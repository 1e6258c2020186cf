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

The remaining modes read a figure harness's JSON: an array of row objects,
or a BENCH_PR*.json wrapper nesting it under the harness name.

With --recovery, both files are bench_fig12_recovery JSON. Rows are matched
on (service, ops, snapshot_every) and recover_ms / replayed_ops deltas are
printed. The recovery gate is purely *advisory* — recovery wall time is
dominated by replan cost, which varies wildly across hosts — except that a
baseline row missing from the current run exits 1 (the bench silently lost
coverage):

  python3 scripts/check_bench_regression.py --recovery \
      --baseline BENCH_PR7.json \
      --current build/bench_fig12_recovery.json

With --rebalance, both files are bench_fig13_rebalance JSON. The total rows
are matched on (scenario, mode) and cross-message / tail imbalance deltas
are printed. All numeric deltas are advisory — CI replays a smaller graph
than the checked-in baseline, so absolute counts differ by design — but a
baseline (scenario, mode) row missing from the current run exits 1 (the
sweep silently lost a scenario). The rebalance-beats-static assertion itself
lives in the CI workflow, where it runs against the current-scale numbers:

  python3 scripts/check_bench_regression.py --rebalance \
      --baseline BENCH_PR8.json \
      --current build/bench_fig13_rebalance.json

With --scale, both files are bench_fig14_scale JSON. Rows are matched on
`row` (plan, serve). A baseline row missing from the current run fails (the
bench silently lost a phase). Ops_per_sec and bytes_per_edge deltas against
the baseline are advisory — CI smoke runs a smaller graph than the
checked-in 1M-node reference by design:

  python3 scripts/check_bench_regression.py --scale \
      --baseline BENCH_PR10.json \
      --current build/bench_fig14_scale.json
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


def load_rows(path, harness, key, keep=lambda row: True):
    """Returns {key(row): row} over the rows of a figure harness's JSON."""
    with open(path) as f:
        doc = json.load(f)
    if isinstance(doc, dict):
        doc = doc.get(harness)
    if not isinstance(doc, list) or not doc:
        raise ValueError(f"{path}: no {harness} rows")
    return {key(row): row for row in doc if keep(row)}


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


def check_recovery(args):
    """Recovery gate: replay volume and recovery time per
    (service, ops, snapshot_every).

    All deltas are advisory: recovery wall time is dominated by the replan
    each recovered service runs, and that cost differs by an order of
    magnitude between the measurement container and CI runners. The only
    hard failure is coverage loss — a row present in the baseline but absent
    from the current run means the bench stopped exercising that
    configuration.
    """
    def key(row):
        return (row["service"], int(row["ops"]), int(row["snapshot_every"]))
    baseline = load_rows(args.baseline, "bench_fig12_recovery", key)
    current = load_rows(args.current, "bench_fig12_recovery", key)
    # CI sweeps a subset of the baseline grid (smaller --ops / --snapshots),
    # so only baseline rows whose op count AND cadence were requested in the
    # current run count as expected: a missing one means a service silently
    # dropped out of the sweep, not that the grid shrank.
    cur_ops = {k[1] for k in current}
    cur_cadences = {k[2] for k in current}
    expected = {k for k in baseline
                if k[1] in cur_ops and k[2] in cur_cadences}
    missing = sorted(expected - set(current))
    shared = shared_keys(baseline, current, "recovery rows", args)
    if not shared:
        return 1

    print(f"{'service/ops/snapshot_every':28s} {'base ms':>10s} "
          f"{'cur ms':>10s} {'delta':>8s}  replayed_ops")
    for key in shared:
        base, cur = baseline[key], current[key]
        base_ms = float(base["recover_ms"])
        cur_ms = float(cur["recover_ms"])
        delta = (cur_ms - base_ms) / base_ms if base_ms > 0 else 0.0
        flag = " (advisory)" if delta > args.block_threshold else ""
        print(f"{row_name(key):28s} {base_ms:10.1f} {cur_ms:10.1f} "
              f"{delta:+7.1%}  "
              f"{int(base['replayed_ops'])} -> {int(cur['replayed_ops'])}"
              f"{flag}")

    if coverage_lost(missing, args):
        return 1
    print(f"OK: recovery rows covered ({len(shared)}); timing deltas are "
          f"advisory")
    return 0


def check_rebalance(args):
    """Elastic-rebalancing gate: cross-message totals and tail imbalance per
    (scenario, mode).

    All numeric deltas are advisory: the CI sweep replays a smaller graph
    and fewer requests than the checked-in baseline, so absolute
    cross-message counts differ by design (the rebalance-beats-static
    assertion runs separately in CI against same-scale numbers). The hard
    failure is coverage loss — a baseline (scenario, mode) row missing from
    the current run means the sweep stopped exercising that combination.
    """
    def load(path):
        return load_rows(path, "bench_fig13_rebalance",
                         lambda row: (row["scenario"], row["mode"]),
                         lambda row: row.get("row") == "total")
    baseline, current = load(args.baseline), load(args.current)
    missing = sorted(set(baseline) - set(current))
    shared = shared_keys(baseline, current, "rebalance rows", args)
    if not shared:
        return 1

    print(f"{'scenario/mode':28s} {'base cross':>11s} {'cur cross':>11s} "
          f"{'tail imb':>16s}  moved")
    for key in shared:
        base, cur = baseline[key], current[key]
        print(f"{row_name(key):28s} {float(base['cross_msgs']):11.0f} "
              f"{float(cur['cross_msgs']):11.0f} "
              f"{float(base['imbalance']):7.3f} -> {float(cur['imbalance']):.3f}"
              f"  {int(base['moved'])} -> {int(cur['moved'])}")

    if coverage_lost(missing, args):
        return 1
    print(f"OK: rebalance rows covered ({len(shared)}); deltas are advisory")
    return 0


def check_scale(args):
    """Million-user-scale gate: coverage only.

    Ops/sec and bytes/edge deltas against the baseline are advisory (CI
    smoke replays a smaller graph than the checked-in reference), but a
    baseline row missing from the current run fails: the bench silently
    lost a phase.
    """
    def load(path):
        return load_rows(path, "bench_fig14_scale", lambda row: row["row"])
    baseline, current = load(args.baseline), load(args.current)
    missing = sorted(set(baseline) - set(current))
    shared = shared_keys(baseline, current, "scale rows", args)
    if not shared:
        return 1

    print(f"{'row':8s} {'base ops/s':>12s} {'cur ops/s':>12s} "
          f"{'bytes/edge':>16s}  wall_s")
    for key in shared:
        base, cur = baseline[key], current[key]
        print(f"{key:8s} {float(base['ops_per_sec']):12.0f} "
              f"{float(cur['ops_per_sec']):12.0f} "
              f"{float(base['bytes_per_edge']):7.3f} -> "
              f"{float(cur['bytes_per_edge']):.3f}  "
              f"{float(base['wall_s']):.1f} -> {float(cur['wall_s']):.1f}"
              f"  (deltas advisory)")

    if coverage_lost(missing, args):
        return 1
    print(f"OK: scale rows covered ({len(shared)}); deltas are advisory")
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
    parser.add_argument("--recovery", action="store_true",
                        help="compare bench_fig12_recovery rows (advisory "
                             "except for missing-row coverage)")
    parser.add_argument("--rebalance", action="store_true",
                        help="compare bench_fig13_rebalance total rows "
                             "(advisory except for missing-row coverage)")
    parser.add_argument("--scale", action="store_true",
                        help="compare bench_fig14_scale rows (advisory "
                             "except for missing-row coverage)")
    args = parser.parse_args()

    for mode, check in (("serving", check_serving),
                        ("recovery", check_recovery),
                        ("rebalance", check_rebalance), ("scale", check_scale)):
        if getattr(args, mode):
            return check(args)

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
