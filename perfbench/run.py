#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload steady --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds perfbench/ (the piggy library from
src/ plus the benchmark driver) into $CARGO_TARGET_DIR or .bench_build,
runs the benchmark self-tests after each build, then runs one workload and
relays its output. The last stdout line is the result JSON object. Exits
non-zero, without a result line, when the build or a self-test fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run(cmd, env, timeout, capture=False):
    """Runs cmd to completion (killed and reaped on timeout)."""
    # Build and self-test chatter goes to stderr: stdout ends in the result.
    proc = subprocess.Popen(cmd, env=env,
                            stdout=subprocess.PIPE if capture else sys.stderr.fileno(),
                            text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("timed out: " + " ".join(cmd))
    return proc.returncode, out


def build(build_root, env):
    """Configures and builds perfbench; runs the self-tests after a build
    that changed the binaries."""
    build_dir = os.path.join(build_root, "perfbench")
    stamp = os.path.join(build_dir, "selftest.ok")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        code, _ = run(cmd, env, BUILD_TIMEOUT_S)
        if code != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    code, _ = run(["cmake", "--build", build_dir, "-j", jobs], env, BUILD_TIMEOUT_S)
    if code != 0:
        fail("build failed")
    bench = os.path.join(build_dir, "perfbench")
    selftest = os.path.join(build_dir, "perfbench_selftest")
    if not os.path.exists(stamp) or os.path.getmtime(stamp) < os.path.getmtime(selftest):
        code, _ = run([selftest], env, RUN_TIMEOUT_S)
        if code != 0:
            fail("self-tests failed")
        with open(stamp, "w") as f:
            f.write("ok\n")
    return bench


def commit_id():
    """The checked-out commit when the tree is a git checkout."""
    if not os.path.isdir(".git") or not shutil.which("git"):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["steady", "cluster-wal"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = os.path.join(build_root, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp, CCACHE_DISABLE="1")
    bench = build(build_root, env)

    data_dir = os.path.join(build_root, "data-%d" % os.getpid())
    cmd = [bench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-dir", data_dir, "--commit", commit_id()]
    try:
        code, out = run(cmd, env, RUN_TIMEOUT_S, capture=True)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    lines = out.strip().splitlines()
    sys.stdout.write(out)
    sys.stdout.flush()
    if code != 0:
        sys.exit(code)
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
