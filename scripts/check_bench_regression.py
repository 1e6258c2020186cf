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

With --serving, both files are instead bench_fig11_serving JSON (an array of
row objects, or a BENCH_PR*.json wrapper with a "bench_fig11_serving" key).
Rows are matched on (service, mode, threads, shards); ops_per_sec on the
mode=steady rows is the blocking metric (a drop beyond --block-threshold
fails), while replan-mode rows and tail latency are reported as advisory:

  python3 scripts/check_bench_regression.py --serving \
      --baseline BENCH_PR6.json \
      --current build/bench_fig11_serving.json --block-threshold 0.50

With --recovery, both files are bench_fig12_recovery JSON (an array of row
objects, or a BENCH_PR*.json wrapper with a "bench_fig12_recovery" key). Rows
are matched on (service, ops, snapshot_every) and recover_ms / replayed_ops
deltas are printed. The recovery gate is purely *advisory* — recovery wall
time is dominated by replan cost, which varies wildly across hosts — except
that a baseline row missing from the current run exits 1 (the bench silently
lost coverage):

  python3 scripts/check_bench_regression.py --recovery \
      --baseline BENCH_PR7.json \
      --current build/bench_fig12_recovery.json

With --rebalance, both files are bench_fig13_rebalance JSON (an array of row
objects, or a BENCH_PR*.json wrapper with a "bench_fig13_rebalance" key).
The total rows are matched on (scenario, mode) and cross-message / tail
imbalance deltas are printed. All numeric deltas are advisory — CI replays a
smaller graph than the checked-in baseline, so absolute counts differ by
design — but a baseline (scenario, mode) row missing from the current run
exits 1 (the sweep silently lost a scenario). The rebalance-beats-static
assertion itself lives in the CI workflow, where it runs against the
current-scale numbers:

  python3 scripts/check_bench_regression.py --rebalance \
      --baseline BENCH_PR8.json \
      --current build/bench_fig13_rebalance.json

With --scale, both files are bench_fig14_scale JSON (an array of row
objects, or a BENCH_PR*.json wrapper with a "bench_fig14_scale" key). Rows
are matched on `row` (plan, serve). A baseline row missing from the
current run fails (the bench silently lost a phase). Ops_per_sec and
bytes_per_edge deltas against the baseline are advisory — CI smoke runs a
smaller graph than the checked-in 1M-node reference by design:

  python3 scripts/check_bench_regression.py --scale \
      --baseline BENCH_PR10.json \
      --current build/bench_fig14_scale.json
"""

import argparse
import json
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


def load_serving(path):
    """Returns {(service, mode, threads, shards): row} from bench_fig11_serving
    JSON (a bare array of row objects) or a BENCH_PR*.json wrapper."""
    with open(path) as f:
        doc = json.load(f)
    if isinstance(doc, dict):
        doc = doc.get("bench_fig11_serving")
    if not isinstance(doc, list) or not doc:
        raise ValueError(f"{path}: no bench_fig11_serving rows")
    out = {}
    for row in doc:
        key = (row["service"], row["mode"], int(row["threads"]),
               int(row["shards"]))
        out[key] = row
    return out


def check_serving(args):
    """Serving-plane gate: throughput per (service, mode, threads, shards).

    Unlike the wall-time gate, ops_per_sec is higher-is-better, so the
    regression fraction is the *drop* relative to the baseline. Only
    mode=steady rows block: replan-mode throughput depends on how the
    scheduler interleaves the churn thread with the clients (on a single-core
    host it spans two orders of magnitude run to run), so those rows — and
    tail latency everywhere — are advisory.
    """
    baseline = load_serving(args.baseline)
    current = load_serving(args.current)
    shared = sorted(set(baseline) & set(current))
    if not shared:
        print(f"error: no common serving rows between {args.baseline} and "
              f"{args.current}", file=sys.stderr)
        return 1

    blocking_failures = []
    print(f"{'service/mode/threads/shards':34s} {'base ops/s':>12s} "
          f"{'cur ops/s':>12s} {'delta':>8s}  p99(q) us")
    for key in shared:
        base, cur = baseline[key], current[key]
        base_ops = float(base["ops_per_sec"])
        cur_ops = float(cur["ops_per_sec"])
        drop = (base_ops - cur_ops) / base_ops if base_ops > 0 else 0.0
        blocking = key[1] == "steady"
        flag = ""
        if drop > args.block_threshold:
            flag = " <-- BLOCKING" if blocking else " (advisory)"
            if blocking:
                blocking_failures.append((key, drop))
        name = "/".join(str(k) for k in key)
        print(f"{name:34s} {base_ops:12.0f} {cur_ops:12.0f} {-drop:+7.1%}  "
              f"{float(base['query_p99_us']):.0f} -> "
              f"{float(cur['query_p99_us']):.0f}{flag}")

    if blocking_failures:
        for key, drop in blocking_failures:
            print(f"FAIL: {'/'.join(str(k) for k in key)} throughput dropped "
                  f"{drop:.1%} (> {args.block_threshold:.0%})", file=sys.stderr)
        return 1
    print(f"OK: serving throughput within -{args.block_threshold:.0%} of "
          f"baseline on {len(shared)} row(s)")
    return 0


def load_recovery(path):
    """Returns {(service, ops, snapshot_every): row} from bench_fig12_recovery
    JSON (a bare array of row objects) or a BENCH_PR*.json wrapper."""
    with open(path) as f:
        doc = json.load(f)
    if isinstance(doc, dict):
        doc = doc.get("bench_fig12_recovery")
    if not isinstance(doc, list) or not doc:
        raise ValueError(f"{path}: no bench_fig12_recovery rows")
    out = {}
    for row in doc:
        key = (row["service"], int(row["ops"]), int(row["snapshot_every"]))
        out[key] = row
    return out


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
    baseline = load_recovery(args.baseline)
    current = load_recovery(args.current)
    # CI sweeps a subset of the baseline grid (smaller --ops / --snapshots),
    # so only baseline rows whose op count AND cadence were requested in the
    # current run count as expected: a missing one means a service silently
    # dropped out of the sweep, not that the grid shrank.
    cur_ops = {k[1] for k in current}
    cur_cadences = {k[2] for k in current}
    expected = {k for k in baseline
                if k[1] in cur_ops and k[2] in cur_cadences}
    missing = sorted(expected - set(current))
    shared = sorted(set(baseline) & set(current))
    if not shared:
        print(f"error: no common recovery rows between {args.baseline} and "
              f"{args.current}", file=sys.stderr)
        return 1

    print(f"{'service/ops/snapshot_every':28s} {'base ms':>10s} "
          f"{'cur ms':>10s} {'delta':>8s}  replayed_ops")
    for key in shared:
        base, cur = baseline[key], current[key]
        base_ms = float(base["recover_ms"])
        cur_ms = float(cur["recover_ms"])
        delta = (cur_ms - base_ms) / base_ms if base_ms > 0 else 0.0
        flag = " (advisory)" if delta > args.block_threshold else ""
        name = "/".join(str(k) for k in key)
        print(f"{name:28s} {base_ms:10.1f} {cur_ms:10.1f} {delta:+7.1%}  "
              f"{int(base['replayed_ops'])} -> {int(cur['replayed_ops'])}"
              f"{flag}")

    if missing:
        for key in missing:
            print(f"FAIL: baseline row {'/'.join(str(k) for k in key)} "
                  f"missing from {args.current}", file=sys.stderr)
        return 1
    print(f"OK: recovery rows covered ({len(shared)}); timing deltas are "
          f"advisory")
    return 0


def load_rebalance(path):
    """Returns {(scenario, mode): total row} from bench_fig13_rebalance JSON
    (a bare array of row objects) or a BENCH_PR*.json wrapper."""
    with open(path) as f:
        doc = json.load(f)
    if isinstance(doc, dict):
        doc = doc.get("bench_fig13_rebalance")
    if not isinstance(doc, list) or not doc:
        raise ValueError(f"{path}: no bench_fig13_rebalance rows")
    out = {}
    for row in doc:
        if row.get("row") != "total":
            continue
        out[(row["scenario"], row["mode"])] = row
    return out


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
    baseline = load_rebalance(args.baseline)
    current = load_rebalance(args.current)
    missing = sorted(set(baseline) - set(current))
    shared = sorted(set(baseline) & set(current))
    if not shared:
        print(f"error: no common rebalance rows between {args.baseline} and "
              f"{args.current}", file=sys.stderr)
        return 1

    print(f"{'scenario/mode':28s} {'base cross':>11s} {'cur cross':>11s} "
          f"{'tail imb':>16s}  moved")
    for key in shared:
        base, cur = baseline[key], current[key]
        name = "/".join(str(k) for k in key)
        print(f"{name:28s} {float(base['cross_msgs']):11.0f} "
              f"{float(cur['cross_msgs']):11.0f} "
              f"{float(base['imbalance']):7.3f} -> {float(cur['imbalance']):.3f}"
              f"  {int(base['moved'])} -> {int(cur['moved'])}")

    if missing:
        for key in missing:
            print(f"FAIL: baseline row {'/'.join(str(k) for k in key)} "
                  f"missing from {args.current}", file=sys.stderr)
        return 1
    print(f"OK: rebalance rows covered ({len(shared)}); deltas are advisory")
    return 0


def load_scale(path):
    """Returns {row: row object} from bench_fig14_scale JSON (a bare array of
    row objects) or a BENCH_PR*.json wrapper."""
    with open(path) as f:
        doc = json.load(f)
    if isinstance(doc, dict):
        doc = doc.get("bench_fig14_scale")
    if not isinstance(doc, list) or not doc:
        raise ValueError(f"{path}: no bench_fig14_scale rows")
    return {row["row"]: row for row in doc}


def check_scale(args):
    """Million-user-scale gate: coverage only.

    Ops/sec and bytes/edge deltas against the baseline are advisory (CI
    smoke replays a smaller graph than the checked-in reference), but a
    baseline row missing from the current run fails: the bench silently
    lost a phase.
    """
    baseline = load_scale(args.baseline)
    current = load_scale(args.current)
    missing = sorted(set(baseline) - set(current))
    shared = sorted(set(baseline) & set(current))
    if not shared:
        print(f"error: no common scale rows between {args.baseline} and "
              f"{args.current}", file=sys.stderr)
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

    if missing:
        for key in missing:
            print(f"FAIL: baseline row {key} missing from {args.current}",
                  file=sys.stderr)
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
                        help="compare bench_fig11_serving rows instead of "
                             "google-benchmark wall times")
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

    if args.serving:
        return check_serving(args)
    if args.recovery:
        return check_recovery(args)
    if args.rebalance:
        return check_rebalance(args)
    if args.scale:
        return check_scale(args)

    baseline = load_benchmarks(args.baseline)
    current = load_benchmarks(args.current)

    shared = sorted(set(baseline) & set(current))
    if not shared:
        print(f"error: no common benchmarks between {args.baseline} and "
              f"{args.current}", file=sys.stderr)
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
