#!/usr/bin/env python3
"""CI perf-regression gate over google-benchmark JSON.

Compares a freshly measured bench_micro_algorithms JSON against a checked-in
baseline (BENCH_PR2.json or a later BENCH_PR*.json):

  python3 scripts/check_bench_regression.py \
      --baseline BENCH_PR2.json \
      --current build/bench_micro_algorithms.json \
      --benchmark BM_ChitChatFull --block-threshold 0.30

Every benchmark present in both files is reported with its wall-time delta.
Only the --benchmark family is *blocking*: if any of its instances regressed
by more than --block-threshold (fraction, default 0.30 = +30% wall time), the
script exits 1. Everything else — and smaller regressions of the blocking
family — is advisory, because CI runners and the measurement container are
different machines; the blocking threshold is sized to catch algorithmic
regressions (the kind that undid PR 2's 4x CHITCHAT win), not scheduler
noise.

Baselines may be raw google-benchmark output or a combined BENCH_PR*.json
object that nests it under the "bench_micro_algorithms" key.

With --serving, each file is a saved perfbench/run.py stdout or a perfbench
pin (the change_median of its row == "pairs" entries), compared per workload.
The run must be correct with no failed operations, msgs_per_req and
cost_ratio must stay within BENCHMARK.json's bounds, and ops_per_s may drop
by at most --block-threshold; that last check is advisory unless both runs
had the same nproc. A baseline metric missing from the run fails; other
deltas are advisory:

  python3 scripts/check_bench_regression.py --serving \
      --baseline BENCH_PR29.json \
      --current perfbench-cluster-wal.out --block-threshold 0.50

With --rows, both files are a figure harness's JSON (an array of row
objects, or a BENCH_PR*.json wrapper nesting it under the harness name):
bench_fig12_recovery, bench_fig13_rebalance or bench_fig14_scale, told apart
by the wrapper key or by the rows' fields. The gate only checks
coverage: a baseline row missing from the current run exits 1 (the bench
silently lost a configuration). Every numeric delta is advisory — CI runs
smaller graphs than the checked-in pins, and recovery time is dominated by
host-dependent replans. For recovery rows, only baseline rows whose op count
and snapshot cadence the current run requested are expected (CI sweeps a
subset of the grid):

  python3 scripts/check_bench_regression.py --rows \
      --baseline BENCH_PR7.json \
      --current build/bench_fig12_recovery.json
"""

import argparse
import json
import os
import sys


def load_benchmarks(path):
    """Returns {run_name: real_time_ns} from a google-benchmark JSON file or
    a combined BENCH_PR*.json wrapper."""
    with open(path) as f:
        doc = json.load(f)
    if "benchmarks" not in doc and "bench_micro_algorithms" in doc:
        doc = doc["bench_micro_algorithms"]
    if "benchmarks" not in doc:
        raise ValueError(f"{path}: no 'benchmarks' array (google-benchmark JSON?)")
    unit_ns = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
    out = {}
    for bench in doc["benchmarks"]:
        if bench.get("run_type", "iteration") != "iteration":
            continue  # skip aggregate rows (mean/median/stddev)
        scale = unit_ns.get(bench.get("time_unit", "ns"), 1.0)
        out[bench["run_name"]] = float(bench["real_time"]) * scale
    return out


def in_family(run_name, family):
    return run_name == family or run_name.startswith(family + "/")


# Figure harnesses the --rows gate knows: how a row is keyed, which rows
# count, which numeric columns are printed as advisory deltas, and which key
# positions name a requested grid axis (a baseline row is expected only if
# the current run requested its value on every such axis).
ROW_HARNESSES = {
    "bench_fig12_recovery": {
        "key": ("service", "ops", "snapshot_every"),
        "keep": lambda row: True,
        "show": ("recover_ms", "replayed_ops"),
        "requested": (1, 2),
    },
    "bench_fig13_rebalance": {
        "key": ("scenario", "mode"),
        "keep": lambda row: row.get("row") == "total",
        "show": ("cross_msgs", "imbalance", "moved"),
        "requested": (),
    },
    "bench_fig14_scale": {
        "key": ("row",),
        "keep": lambda row: True,
        "show": ("ops_per_sec", "bytes_per_edge", "wall_s"),
        "requested": (),
    },
}


def load_harness_rows(path):
    """Returns (harness name, raw rows) of a figure harness's JSON."""
    with open(path) as f:
        doc = json.load(f)
    if isinstance(doc, dict):
        name = next((h for h in ROW_HARNESSES if h in doc), None)
        rows = doc.get(name)
    else:
        # A bare array: the first harness whose key fields the rows carry
        # (fig13 rows also have fig14's "row" field, so order matters).
        rows = doc
        name = next((h for h, spec in ROW_HARNESSES.items()
                     if rows and all(k in rows[0] for k in spec["key"])), None)
    if name is None or not isinstance(rows, list) or not rows:
        raise ValueError(f"{path}: no rows of a known figure harness")
    return name, rows


def shared_keys(baseline, current, what, args):
    """Sorted keys present in both files; prints an error when none are."""
    shared = sorted(set(baseline) & set(current))
    if not shared:
        print(f"error: no common {what} between {args.baseline} and "
              f"{args.current}", file=sys.stderr)
    return shared


def row_name(key):
    return key if isinstance(key, str) else "/".join(str(k) for k in key)


def coverage_lost(missing, args):
    """Prints a FAIL line per baseline row missing from the current run and
    returns whether there was one."""
    for key in missing:
        print(f"FAIL: baseline row {row_name(key)} missing from "
              f"{args.current}", file=sys.stderr)
    return bool(missing)


# Host-independent end-to-end metrics: they block at BENCHMARK.json's bound.
HOST_FREE_METRICS = ("msgs_per_req", "cost_ratio")
BENCHMARK_JSON = os.path.join(os.path.dirname(__file__), "..", "BENCHMARK.json")


def load_perfbench(path):
    """Returns {workload: (correct, failed, nproc, {metric: value})} from a
    saved perfbench/run.py stdout or a perfbench pin."""
    with open(path) as f:
        text = f.read()
    if text.lstrip().startswith("["):  # a pin: one row per (workload, metric)
        runs = {}
        for row in json.loads(text):
            if row.get("row") == "pairs":
                ok, failed, _, metrics = runs.get(row["workload"],
                                                  (True, 0, None, {}))
                metrics[row["metric"]] = float(row["change_median"])
                runs[row["workload"]] = (ok and row.get("correct") is True,
                                         failed + int(row.get("failed", 0)),
                                         row.get("nproc"), metrics)
        if not runs:
            raise ValueError(f"{path}: no perfbench 'pairs' rows")
        return runs
    lines = text.strip().splitlines()
    contexts = [line for line in lines if line.startswith("# context ")]
    if not contexts:
        raise ValueError(f"{path}: no '# context' line (perfbench stdout?)")
    context = json.loads(contexts[-1][len("# context "):])
    result = json.loads(lines[-1])
    metrics = {name: float(m["value"])
               for name, m in result.get("metrics", {}).items()}
    return {context["workload"]: (result.get("correct") is True,
                                  int(result.get("failed", 0)),
                                  context.get("nproc"), metrics)}


def check_serving(args):
    """Serving gate over perfbench end-to-end metrics. Throughput blocks
    only at the baseline's core count: on another it says more about the
    host than the code."""
    with open(BENCHMARK_JSON) as f:
        end_to_end = json.load(f)["end_to_end"]
    baseline = load_perfbench(args.baseline)
    current = load_perfbench(args.current)
    shared = shared_keys(baseline, current, "perfbench workloads", args)
    failures = []
    for workload in shared:
        _, _, base_nproc, base = baseline[workload]
        correct, failed, nproc, cur = current[workload]
        print(f"== {workload} (nproc {base_nproc} -> {nproc})")
        if not correct or failed != 0:
            failures.append(f"{workload}: correct={correct} failed={failed}")
            continue
        print(f"{'metric':14s} {'baseline':>14s} {'current':>14s} "
              f"{'worse by':>9s} {'bound':>6s}")
        for m in end_to_end:
            metric, bound = m["name"], float(m["bound"])
            blocking = metric in HOST_FREE_METRICS
            if metric == "ops_per_s":
                bound, blocking = args.block_threshold, nproc == base_nproc
            if metric not in base:
                continue
            if metric not in cur:
                failures.append(f"{workload}: {metric} missing")
                continue
            b, c = base[metric], cur[metric]
            worse = (c - b) / b if m["better"] == "lower" else (b - c) / b
            flag = ""
            if worse > bound and blocking:
                flag = " <-- BLOCKING"
                failures.append(f"{workload}: {metric} worse by {worse:.1%} "
                                f"(> {bound:.0%})")
            elif worse > bound and metric == "ops_per_s":
                flag = (f" (advisory: nproc {nproc} here, {base_nproc} in "
                        f"the baseline)")
            elif worse > bound:
                flag = " (advisory)"
            print(f"{metric:14s} {b:14.6g} {c:14.6g} {worse:+8.1%} "
                  f"{bound:6.0%}{flag}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures or not shared:
        return 1
    print(f"OK: serving gate passed on {len(shared)} workload(s)")
    return 0


def check_rows(args):
    """Coverage gate over a figure harness's rows: every baseline row the
    current run was asked to produce must be present; deltas are advisory.
    """
    harness, base_rows = load_harness_rows(args.baseline)
    cur_harness, cur_rows = load_harness_rows(args.current)
    if cur_harness != harness:
        print(f"error: {args.baseline} holds {harness} rows, {args.current} "
              f"holds {cur_harness} rows", file=sys.stderr)
        return 1
    spec = ROW_HARNESSES[harness]

    def index(rows):
        return {tuple(row[k] for k in spec["key"]): row
                for row in rows if spec["keep"](row)}
    baseline, current = index(base_rows), index(cur_rows)
    requested = [{k[i] for k in current} for i in spec["requested"]]
    expected = {k for k in baseline
                if all(k[i] in values
                       for i, values in zip(spec["requested"], requested))}
    missing = sorted(expected - set(current))
    shared = shared_keys(baseline, current, f"{harness} rows", args)
    if not shared:
        return 1

    print(f"== {harness}: {', '.join(spec['show'])} (baseline -> current, "
          f"advisory)")
    for key in shared:
        base, cur = baseline[key], current[key]
        deltas = "  ".join(f"{m} {base[m]} -> {cur[m]}" for m in spec["show"])
        print(f"{row_name(key):32s} {deltas}")

    if coverage_lost(missing, args):
        return 1
    print(f"OK: {harness} rows covered ({len(shared)}); deltas are advisory")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--current", required=True)
    parser.add_argument("--benchmark", default="BM_ChitChatFull",
                        help="blocking benchmark family (prefix before '/')")
    parser.add_argument("--block-threshold", type=float, default=0.30,
                        help="blocking regression fraction (0.30 = +30%%)")
    parser.add_argument("--serving", action="store_true",
                        help="compare perfbench end-to-end metrics (stdout "
                             "or pin) instead of google-benchmark wall times")
    parser.add_argument("--rows", action="store_true",
                        help="compare a figure harness's rows (fig12 "
                             "recovery, fig13 rebalance, fig14 scale): "
                             "advisory except for missing-row coverage")
    args = parser.parse_args()

    if args.serving:
        return check_serving(args)
    if args.rows:
        return check_rows(args)

    baseline = load_benchmarks(args.baseline)
    current = load_benchmarks(args.current)

    shared = shared_keys(baseline, current, "benchmarks", args)
    if not shared:
        return 1

    blocking_failures = []
    print(f"{'benchmark':44s} {'baseline':>12s} {'current':>12s} {'delta':>8s}")
    for name in shared:
        base_ns, cur_ns = baseline[name], current[name]
        delta = (cur_ns - base_ns) / base_ns if base_ns > 0 else 0.0
        blocking = in_family(name, args.benchmark)
        flag = ""
        if delta > args.block_threshold:
            flag = " <-- BLOCKING" if blocking else " (advisory)"
            if blocking:
                blocking_failures.append((name, delta))
        print(f"{name:44s} {base_ns/1e6:10.2f}ms {cur_ns/1e6:10.2f}ms "
              f"{delta:+7.1%}{flag}")

    gate = [n for n in shared if in_family(n, args.benchmark)]
    if not gate:
        if not any(in_family(n, args.benchmark) for n in current):
            print(f"error: blocking benchmark {args.benchmark} missing from "
                  f"{args.current}", file=sys.stderr)
            return 1
        print(f"warning: {args.benchmark} not in the baseline; gate skipped")
        return 0

    if blocking_failures:
        for name, delta in blocking_failures:
            print(f"FAIL: {name} regressed {delta:+.1%} "
                  f"(> +{args.block_threshold:.0%})", file=sys.stderr)
        return 1
    print(f"OK: {args.benchmark} within +{args.block_threshold:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
