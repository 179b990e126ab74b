#!/usr/bin/env python3
"""Validates a machine-readable bench report (BENCH_qps.json,
BENCH_dyn.json, or BENCH_numa.json), dispatching on the report's "bench"
field. Stdlib only; exits 1 on the first violation.

qps_service checks:
  * the top-level schema: bench == "qps_service", fleet shape positive,
    a non-empty rates list and the cancel block;
  * per rate: the accounting invariant — every accepted attempt resolved
    with exactly one outcome (served + served_stale + cancelled +
    deadline_expired + shed + failed == submitted) and submitted +
    rejected == attempts;
  * percentile monotonicity p50 <= p90 <= p99;
  * saturation_qps > 0, and the cancel phase resolved every query
    (expired + served == queries) with non-negative, ordered overshoot
    percentiles and 0 <= watchdog_cancels <= expired (each run the
    service watchdog cancels resolves deadline-expired).

dyn_updates checks:
  * the top-level schema: bench == "dyn_updates", threads/batches/
    ops_per_batch positive, closures non-negative, a non-empty results
    list;
  * per row: positive update/repair/full latencies, non-negative closures,
    mean_repair_updates (engine updates per repair, the work count),
    mean_repair_processed (engine vertices processed per repair, both
    runs of an escalated one) and mean_published_entries (entries each
    repair patched or copied into its working buffer),
    the layer split: walk_ms, build_ms (the in-arc index build),
    engine_ms and publish_ms (means over the
    incremental repairs) are non-negative and sum to no more than
    mean_repair_ms, the mean wall time of the same repairs (they are
    disjoint slices of it, at any scale), inline_repairs +
    escalated_repairs == incremental_repairs, compactions_per_batch == 0
    (weight changes, closures and reopenings all stay in place),
    incremental_repairs + full_solves == batches, at least one
    incremental repair, and the correctness anchor exact == true
    (repaired distances bit-identical to a from-scratch solve after
    every batch — checked at any scale);
  * without --schema-only, the repair speedup must reach --min-gain.

numa_fragments checks:
  * the top-level schema: bench == "numa_fragments", threads positive, a
    non-empty results list;
  * per row: positive seconds/relaxations/updates, no more updates than
    relaxations (every update is one relaxation's win), remote_share in
    [0, 1], and the correctness anchor exact == true (partitioned distances
    bit-identical to the flat engine — checked at any scale);
  * remote-traffic accounting: flat and single-fragment rows carry exactly
    zero remote relaxations/batches; multi-fragment rows never count more
    remote relaxations than relaxations, nor more batches than records;
  * without --schema-only, the single-fragment parity run must stay within
    3x of the flat engine's wall time.

With --schema-only, the timing-relation checks (the dyn --min-gain and the
numa parity timing) are skipped: schema, key-set, positivity, the qps
accounting invariants, and the exactness anchors still run. This is the
mode ctest uses on tiny smoke runs, where latencies are noise but
bookkeeping must be exact.

Usage:
  python3 tools/bench_check.py BENCH_qps.json --schema-only
  python3 tools/bench_check.py BENCH_dyn.json --min-gain 2 --graph USA
  python3 tools/bench_check.py BENCH_numa.json
"""

import argparse
import json
import sys

QPS_TOP_KEYS = {
    "schema_version", "bench", "graph", "threads", "solvers",
    "queue_capacity", "seed", "rates", "saturation_qps", "cancel",
}
QPS_RATE_KEYS = {
    "offered_qps", "attempts", "submitted", "rejected", "served",
    "served_stale", "cancelled", "deadline_expired", "shed", "failed",
    "coalesced", "served_cached", "served_qps", "p50_ms", "p90_ms",
    "p99_ms",
}
QPS_CANCEL_KEYS = {
    "queries", "budget_ms", "expired", "served", "watchdog_cancels",
    "p50_overshoot_ms", "p99_overshoot_ms", "watchdog_interval_ms",
}
QPS_OUTCOMES = (
    "served", "served_stale", "cancelled", "deadline_expired", "shed",
    "failed",
)

NUMA_TOP_KEYS = {
    "schema_version", "bench", "threads", "scale", "results",
}
NUMA_ROW_KEYS = {
    "graph", "topology", "fragments", "seconds", "edges_per_sec",
    "relaxations", "updates", "remote_relaxations", "remote_batches",
    "remote_share", "exact",
}

DYN_TOP_KEYS = {
    "schema_version", "bench", "threads", "batches", "ops_per_batch",
    "closures", "scale", "results",
}
DYN_ROW_KEYS = {
    "graph", "algo", "batches", "ops_per_batch", "closures",
    "update_ms", "compactions_per_batch", "repair_ms", "full_ms", "speedup",
    "mean_cone", "mean_seeds", "mean_repair_updates",
    "mean_repair_processed", "mean_published_entries", "walk_ms", "build_ms",
    "engine_ms", "publish_ms",
    "mean_repair_ms", "incremental_repairs", "inline_repairs",
    "escalated_repairs", "full_solves", "exact",
}
# Rounding slack for the layer sum: five values printed to 1e-6 ms, each
# within 5e-7 of its true value.
LAYER_SUM_SLACK_MS = 2.5e-6


def fail(msg):
    print(f"bench_check: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_qps_report(report):
    missing = QPS_TOP_KEYS - report.keys()
    if missing:
        fail(f"missing top-level keys: {sorted(missing)}")
    if report["threads"] < 1 or report["solvers"] < 1:
        fail("threads and solvers must be >= 1")
    if report["queue_capacity"] < 1:
        fail("queue_capacity must be >= 1")
    rates = report["rates"]
    if not rates:
        fail("empty rates list")

    for row in rates:
        missing = QPS_RATE_KEYS - row.keys()
        if missing:
            fail(f"rate row: missing keys {sorted(missing)}")
        name = f"rate {row['offered_qps']:.0f}qps"
        if row["offered_qps"] <= 0:
            fail(f"{name}: offered_qps must be positive")
        if any(row[k] < 0 for k in QPS_OUTCOMES + ("attempts", "submitted",
                                                   "rejected", "coalesced",
                                                   "served_cached")):
            fail(f"{name}: negative count")
        if row["served_cached"] > row["served"]:
            fail(f"{name}: served_cached {row['served_cached']} exceeds "
                 f"served {row['served']}")
        resolved = sum(row[k] for k in QPS_OUTCOMES)
        if resolved != row["submitted"]:
            fail(f"{name}: outcomes sum to {resolved} but {row['submitted']} "
                 "attempts were accepted — a query was dropped or "
                 "double-counted")
        if row["submitted"] + row["rejected"] != row["attempts"]:
            fail(f"{name}: submitted {row['submitted']} + rejected "
                 f"{row['rejected']} != attempts {row['attempts']}")
        if not row["p50_ms"] <= row["p90_ms"] <= row["p99_ms"]:
            fail(f"{name}: latency percentiles not monotonic: "
                 f"p50 {row['p50_ms']}, p90 {row['p90_ms']}, "
                 f"p99 {row['p99_ms']}")
        if any(row[f"p{p}_ms"] < 0 for p in (50, 90, 99)):
            fail(f"{name}: negative latency percentile")
        print(f"bench_check: ok {name}: served {row['served']} "
              f"(+{row['served_stale']} stale), shed {row['shed']}, "
              f"rejected {row['rejected']}, expired "
              f"{row['deadline_expired']}, {row['served_qps']:.0f} qps")

    if report["saturation_qps"] <= 0:
        fail(f"saturation_qps must be positive, "
             f"got {report['saturation_qps']}")
    if max(r["served_qps"] for r in rates) != report["saturation_qps"]:
        fail("saturation_qps is not the max served_qps across rates")

    cancel = report["cancel"]
    missing = QPS_CANCEL_KEYS - cancel.keys()
    if missing:
        fail(f"cancel block: missing keys {sorted(missing)}")
    if cancel["queries"] < 1 or cancel["budget_ms"] <= 0:
        fail("cancel block: queries must be >= 1 and budget_ms positive")
    if cancel["expired"] + cancel["served"] != cancel["queries"]:
        fail(f"cancel block: expired {cancel['expired']} + served "
             f"{cancel['served']} != queries {cancel['queries']} — a "
             "cancelled query never resolved")
    if not 0 <= cancel["p50_overshoot_ms"] <= cancel["p99_overshoot_ms"]:
        fail("cancel block: overshoot percentiles negative or not monotonic")
    if not 0 <= cancel["watchdog_cancels"] <= cancel["expired"]:
        fail(f"cancel block: watchdog_cancels {cancel['watchdog_cancels']} "
             f"outside [0, expired {cancel['expired']}] — a run the "
             "watchdog cancelled resolved other than deadline-expired")
    print(f"bench_check: ok cancel: {cancel['expired']}/{cancel['queries']} "
          f"expired ({cancel['watchdog_cancels']} by the watchdog), "
          f"overshoot p50 {cancel['p50_overshoot_ms']:.3f}ms "
          f"p99 {cancel['p99_overshoot_ms']:.3f}ms "
          f"(watchdog {cancel['watchdog_interval_ms']:.1f}ms)")


def check_dyn_report(report, min_gain, graph_filter, schema_only):
    missing = DYN_TOP_KEYS - report.keys()
    if missing:
        fail(f"missing top-level keys: {sorted(missing)}")
    if report["threads"] < 1 or report["batches"] < 1:
        fail("threads and batches must be >= 1")
    if report["ops_per_batch"] < 1:
        fail("ops_per_batch must be >= 1")
    if report["closures"] < 0:
        fail("closures must be >= 0")
    rows = report["results"]
    if not rows:
        fail("empty results list")

    checked = 0
    for row in rows:
        missing = DYN_ROW_KEYS - row.keys()
        if missing:
            fail(f"row {row.get('graph', '?')}: missing keys {sorted(missing)}")
        name = f"{row['graph']}/{row['algo']}"
        if graph_filter and row["graph"] not in graph_filter:
            continue
        checked += 1
        if row["update_ms"] <= 0 or row["repair_ms"] <= 0 or \
                row["full_ms"] <= 0:
            fail(f"{name}: update/repair/full latencies must be positive")
        if row["closures"] < 0:
            fail(f"{name}: closures must be >= 0")
        if row["mean_repair_updates"] < 0:
            fail(f"{name}: mean_repair_updates must be >= 0")
        if row["mean_repair_processed"] < 0:
            fail(f"{name}: mean_repair_processed must be >= 0")
        if row["mean_published_entries"] < 0:
            fail(f"{name}: mean_published_entries must be >= 0")
        layers = (row["walk_ms"], row["build_ms"], row["engine_ms"],
                  row["publish_ms"])
        if min(layers) < 0:
            fail(f"{name}: walk/build/engine/publish means must be >= 0")
        if sum(layers) > row["mean_repair_ms"] + LAYER_SUM_SLACK_MS:
            fail(f"{name}: walk {layers[0]:.6f} + build {layers[1]:.6f} + "
                 f"engine {layers[2]:.6f} + publish {layers[3]:.6f} ms "
                 f"exceed the mean repair {row['mean_repair_ms']:.6f} ms")
        if row["inline_repairs"] + row["escalated_repairs"] != \
                row["incremental_repairs"]:
            fail(f"{name}: inline_repairs {row['inline_repairs']} + "
                 f"escalated_repairs {row['escalated_repairs']} != "
                 f"incremental_repairs {row['incremental_repairs']}")
        if row["compactions_per_batch"] != 0:
            fail(f"{name}: {row['compactions_per_batch']} compactions per "
                 f"batch, expected 0 ({row['closures']} closures per batch "
                 "must close and reopen in place)")
        if row["incremental_repairs"] + row["full_solves"] != row["batches"]:
            fail(f"{name}: incremental_repairs {row['incremental_repairs']} "
                 f"+ full_solves {row['full_solves']} != batches "
                 f"{row['batches']} — a batch went unaccounted")
        # The correctness anchor holds at any scale: a mismatch between the
        # repaired distances and a from-scratch solve is a bug, not noise.
        if row["exact"] is not True:
            fail(f"{name}: repaired distances diverged from from-scratch")
        if row["incremental_repairs"] < 1:
            fail(f"{name}: every batch fell back to a full solve — the "
                 "warm-repair path never ran")
        if schema_only:
            print(f"bench_check: ok {name} (schema only): "
                  f"update {row['update_ms']:.3f}ms, "
                  f"{row['compactions_per_batch']} compactions/batch, "
                  f"repair {row['repair_ms']:.3f}ms, "
                  f"full {row['full_ms']:.3f}ms, "
                  f"{row['incremental_repairs']}/{row['batches']} repaired")
            continue
        if row["speedup"] < min_gain:
            fail(f"{name}: repair speedup {row['speedup']:.2f}x below "
                 f"required {min_gain:.2f}x")
        print(f"bench_check: ok {name}: repair {row['repair_ms']:.3f}ms vs "
              f"full {row['full_ms']:.3f}ms ({row['speedup']:.2f}x), "
              f"mean cone {row['mean_cone']:.0f}, "
              f"{row['mean_repair_updates']:.0f} updates, "
              f"{row['mean_repair_processed']:.0f} processed and "
              f"{row['mean_published_entries']:.0f} published entries per "
              f"repair, walk/build/engine/publish {row['walk_ms']:.3f}/"
              f"{row['build_ms']:.3f}/{row['engine_ms']:.3f}/"
              f"{row['publish_ms']:.3f} ms, "
              f"{row['escalated_repairs']} escalated")
    if checked == 0:
        fail(f"no rows matched graph filter {sorted(graph_filter)}")


def check_numa_report(report, graph_filter, schema_only):
    missing = NUMA_TOP_KEYS - report.keys()
    if missing:
        fail(f"missing top-level keys: {sorted(missing)}")
    if report["threads"] < 1:
        fail("threads must be >= 1")
    rows = report["results"]
    if not rows:
        fail("empty results list")

    # Bookkeeping invariants are exact at any scale; only the flat-vs-1node
    # parity *timing* check is skipped under --schema-only.
    flat_seconds = {}
    checked = 0
    for row in rows:
        missing = NUMA_ROW_KEYS - row.keys()
        if missing:
            fail(f"row {row.get('graph', '?')}: missing keys {sorted(missing)}")
        name = f"{row['graph']}/{row['topology']}"
        if graph_filter and row["graph"] not in graph_filter:
            continue
        checked += 1
        if row["seconds"] <= 0 or row["relaxations"] < 1 or row["updates"] < 1:
            fail(f"{name}: seconds, relaxations and updates must be positive")
        if row["updates"] > row["relaxations"]:
            fail(f"{name}: updates exceed relaxations")
        # The correctness anchor holds at any scale: partitioned distances
        # must be bit-identical to the flat engine's.
        if row["exact"] is not True:
            fail(f"{name}: partitioned distances diverged from flat")
        if row["fragments"] <= 1:
            # Flat engine or single-fragment parity run: nothing crosses a
            # fragment boundary, so remote traffic must be exactly zero.
            if row["remote_relaxations"] != 0 or row["remote_batches"] != 0:
                fail(f"{name}: single-fragment run produced remote traffic "
                     f"({row['remote_relaxations']} relaxations, "
                     f"{row['remote_batches']} batches)")
        else:
            if row["remote_relaxations"] > row["relaxations"]:
                fail(f"{name}: remote_relaxations exceed total relaxations")
            if row["remote_relaxations"] > 0 and row["remote_batches"] < 1:
                fail(f"{name}: remote records moved without a batch")
            if row["remote_batches"] > row["remote_relaxations"]:
                fail(f"{name}: more batches than records (empty publishes)")
        if not 0 <= row["remote_share"] <= 1:
            fail(f"{name}: remote_share {row['remote_share']} outside [0, 1]")
        if row["topology"] == "flat":
            flat_seconds[row["graph"]] = row["seconds"]
        if schema_only or row["topology"] != "1node":
            print(f"bench_check: ok {name}: {row['seconds'] * 1e3:.3f}ms, "
                  f"remote {row['remote_relaxations']} in "
                  f"{row['remote_batches']} batches "
                  f"(share {row['remote_share']:.3f})")
            continue
        # Parity timing: partitioning into one fragment adds bookkeeping but
        # no remote traffic, so it must stay within a small factor of flat
        # (generous: tiny runs are noisy; real regressions are order-of-
        # magnitude protocol bugs like a spinning termination scan).
        base = flat_seconds.get(row["graph"])
        if base and row["seconds"] > base * 3.0:
            fail(f"{name}: single-fragment run {row['seconds'] * 1e3:.3f}ms "
                 f"is more than 3x flat {base * 1e3:.3f}ms")
        print(f"bench_check: ok {name}: {row['seconds'] * 1e3:.3f}ms "
              f"(flat {base * 1e3:.3f}ms)" if base else
              f"bench_check: ok {name}: {row['seconds'] * 1e3:.3f}ms")
    if checked == 0:
        fail(f"no rows matched graph filter {sorted(graph_filter)}")


def check_report(report, min_gain, graph_filter, schema_only):
    if report.get("schema_version") != 1:
        fail(f"unsupported schema_version {report.get('schema_version')}")
    bench = report.get("bench")
    if bench == "qps_service":
        # The qps accounting invariants are exact at any scale, so
        # --schema-only changes nothing here.
        check_qps_report(report)
    elif bench == "dyn_updates":
        check_dyn_report(report, min_gain, graph_filter, schema_only)
    elif bench == "numa_fragments":
        check_numa_report(report, graph_filter, schema_only)
    else:
        fail(f"unexpected bench name {bench!r}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report",
                        help="path to BENCH_qps/BENCH_dyn/BENCH_numa.json")
    parser.add_argument("--min-gain", type=float, default=1.0,
                        help="required dyn repair speedup over a full solve "
                             "on checked rows (default 1.0)")
    parser.add_argument("--graph", action="append", default=[],
                        help="only apply value checks to this graph "
                             "abbreviation (repeatable; default: all rows)")
    parser.add_argument("--schema-only", action="store_true",
                        help="validate schema and value sanity but skip the "
                             "timing-relation checks (for tiny smoke runs)")
    args = parser.parse_args()

    try:
        with open(args.report, encoding="utf-8") as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read {args.report}: {e}")

    check_report(report, args.min_gain, set(args.graph), args.schema_only)
    print("bench_check: PASS")


if __name__ == "__main__":
    main()
