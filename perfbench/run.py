"""The repo benchmark: one command, three workloads, end to end and per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload agm-zipf --seed 1 --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` makes the separate traced run and prints every per-layer
metric.  The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
carry the run metadata and the details (tail percentile and sample count,
profile cross-check).  A full record, with the spans of a traced run, is
written under ``.perfbench_out/`` in the repository root.

The exit code is 0 only when every output check held.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from benchmarks.common import bench_meta, numba_version, write_bench_json  # noqa: E402
from repro.storage import storage_report  # noqa: E402

import probes  # noqa: E402
import workloads as wl  # noqa: E402

#: percentiles ``batch_ms_tail`` may report, highest first
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: samples the tail percentile must leave beyond it
TAIL_BEYOND = 10
MIB = float(1 << 20)


# --------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------- #
def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(latencies: List[float]) -> Dict[str, float]:
    """Highest ladder percentile with at least ten samples beyond it."""
    count = len(latencies)
    q = next((q for q in TAIL_LADDER if count * (1.0 - q / 100.0) >= TAIL_BEYOND),
             TAIL_LADDER[-1])
    return {"percentile": q, "samples": count,
            "ms": float(np.percentile(latencies, q)) * 1e3}


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_path = os.path.join(ROOT, ".git", ref)
            if os.path.exists(ref_path):
                with open(ref_path) as handle:
                    return handle.read().strip()
            with open(os.path.join(ROOT, ".git", "packed-refs")) as handle:
                for line in handle:
                    if line.strip().endswith(" " + ref):
                        return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown (not a git checkout)"


def run_meta(args) -> Dict[str, object]:
    meta = bench_meta(backend=wl.BACKEND, scoring="exact")
    meta.update({
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "numba": numba_version(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "repro_env": {key: value for key, value in sorted(os.environ.items())
                      if key.startswith("REPRO_")},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    })
    return meta


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


# --------------------------------------------------------------------- #
# timed runs (--trace 0)
# --------------------------------------------------------------------- #
def timed_zipf(spec: wl.ZipfSpec, seed: int, seconds: float, clock, out):
    setups, latencies = [], []
    # per-instance medians; the run reports their mean over instances
    pps, batch_p50, epoch_p50 = [], [], []
    stretch_avg, bits_avg = [], []
    for index in range(spec.instances):
        clock.reset()
        inst = wl.build_zipf(spec, wl.instance_seed(seed, index))
        gc.collect()  # settle the heap the build left behind before timing
        wl.measure_zipf(spec, inst, clock, seconds=seconds / spec.instances)
        attempted, failed = wl.counted(inst.reports)
        out["attempted"] += attempted
        out["failed"] += failed
        wl.check_parity(inst.scheme, inst.model, inst.oracle,
                        f"{spec.name} seed {inst.seed}")
        setups.append(inst.setup_s)
        pps.append(statistics.median(r.packets / s for r, s in
                                     zip(inst.reports, inst.round_s)))
        batch_p50.append(statistics.median(clock.batches[""]))
        epoch_p50.append(statistics.median(inst.round_s))
        latencies.extend(clock.batches[""])
        summary = inst.reports[0].summary(include_p2=False)
        stretch_avg.append(summary["avg_stretch"])
        bits_avg.append(inst.scheme.avg_table_bits())
        out["instances"].append({
            "seed": inst.seed, "setup_s": inst.setup_s,
            "rounds": len(inst.reports), "avg_stretch": summary["avg_stretch"],
            "max_stretch": summary["max_stretch"],
            "table_bits_max": inst.scheme.max_table_bits()})
        del inst
        gc.collect()
    out["tail"] = tail(latencies)
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "route_pps": metric(statistics.fmean(pps), "packets/s"),
        "batch_ms_p50": metric(statistics.fmean(batch_p50) * 1e3, "ms"),
        "batch_ms_tail": metric(out["tail"]["ms"], "ms"),
        "epoch_s_p50": metric(statistics.fmean(epoch_p50), "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        "stretch_avg": metric(statistics.fmean(stretch_avg), "ratio"),
        "table_bits_avg": metric(statistics.fmean(bits_avg), "bits"),
        # a static network has no staleness window: every packet lands
        "stale_delivery_rate": metric(1.0, "ratio"),
    }


def epoch_seconds(clock, tag: str) -> List[float]:
    """Per-epoch wall time of one timeline: gaps between traffic-epoch ends.

    Epoch 0 is the pre-churn baseline and is not an epoch of churn.
    """
    ends = [end for _, end, _ in clock.traffic[tag]]
    return [later - earlier for earlier, later in zip(ends, ends[1:])]


def timed_live(spec: wl.LiveSpec, seed: int, seconds: float, clock, out):
    tz, sp = spec.schemes
    setups, latencies = [], []
    # per-instance medians; the run reports their mean over instances
    pps, batch_p50, epoch_p50 = [], [], []
    # graph-determined figures count once per distinct seed
    stale, stretch_avg, bits_avg = {}, {}, {}
    prints: Dict[int, str] = {}
    measured = 0.0
    index = 0
    while index < spec.min_instances or measured < seconds:
        clock.reset()
        inst = wl.build_live(spec, wl.instance_seed(
            seed, index % spec.distinct_seeds))
        wl.run_live(spec, inst, clock)
        attempted, failed = wl.live_counted(inst)
        out["attempted"] += attempted
        out["failed"] += failed
        measured += sum(inst.timeline_s.values())
        fp = wl.live_fingerprint(inst)
        if prints.setdefault(inst.seed, fp) != fp:
            raise wl.CheckFailed(f"{spec.name} seed {inst.seed}: timelines "
                                 "differ between same-seed instances")
        setups.append(inst.setup_s)
        epoch_p50.append(statistics.median(
            a + b for a, b in zip(epoch_seconds(clock, tz),
                                  epoch_seconds(clock, sp))))
        pps.append(statistics.median(p / (end - start)
                                     for start, end, p in clock.traffic[tz]))
        batch_p50.append(statistics.median(clock.batches[tz]))
        latencies.extend(clock.batches[tz])
        timeline = inst.timelines[tz]
        stale[inst.seed] = statistics.fmean(r.stale_delivery_rate
                                            for r in timeline.epochs[1:])
        summary = timeline.merged_stats().summary(include_p2=False)
        stretch_avg[inst.seed] = summary["avg_stretch"]
        bits_avg[inst.seed] = inst.bits[tz][1]
        out["instances"].append({
            "seed": inst.seed, "setup_s": inst.setup_s,
            "timeline_s": inst.timeline_s,
            "repair_s": {tag: sum(s for s, _ in clock.repairs[tag])
                         + sum(clock.compiles[tag]) for tag in spec.schemes},
            "maintain_reported_s": {
                tag: sum(r.seconds for _, r in clock.repairs[tag])
                for tag in spec.schemes},
            "max_stretch": summary["max_stretch"]})
        del inst
        gc.collect()
        index += 1
    out["tail"] = tail(latencies)
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "route_pps": metric(statistics.fmean(pps), "packets/s"),
        "batch_ms_p50": metric(statistics.fmean(batch_p50) * 1e3, "ms"),
        "batch_ms_tail": metric(out["tail"]["ms"], "ms"),
        "epoch_s_p50": metric(statistics.fmean(epoch_p50), "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        "stretch_avg": metric(statistics.fmean(stretch_avg.values()), "ratio"),
        "table_bits_avg": metric(statistics.fmean(bits_avg.values()), "bits"),
        "stale_delivery_rate": metric(statistics.fmean(stale.values()),
                                      "ratio"),
    }


# --------------------------------------------------------------------- #
# traced run (--trace 1)
# --------------------------------------------------------------------- #
def _delta(after, before, kind: str, name: str) -> float:
    return after[kind].get(name, 0.0) - before[kind].get(name, 0.0)


def layer_metrics(tracer, reports, packets_planned: int, plans: int,
                  oracles, repairs, storage_before,
                  table_bits_max: int) -> Dict[str, Dict]:
    """Per-layer metrics of one traced instance (set-up plus measured part)."""
    S, T, C, N = tracer.self_time, tracer.total, tracer.calls, tracer.counts
    hits = misses = 0
    for oracle in oracles:
        report = oracle.backend.row_cache_report()
        hits += report["hits"]
        misses += report["misses"]
    hop_total = hop_count = 0.0
    for report in reports:
        summary = report.stats.summary(include_p2=False)
        if summary["hops_count"]:
            hop_total += summary["avg_hops"] * summary["hops_count"]
            hop_count += summary["hops_count"]
    storage = storage_report()
    accounted = storage["budgeted_ram_bytes"] + sum(o.nbytes() for o in oracles)
    reports_of_repair = [r for _, r in repairs]
    rebuilt = sum(r.rebuilt_trees for r in reports_of_repair)
    reused = sum(r.reused_trees for r in reports_of_repair)
    failed = sum(r.stats.failures for r in reports)
    reachable = sum(r.stats.packets - r.stats.unreachable for r in reports)
    s, count, ratio = "s", "count", "ratio"
    return {
        "graphs.rows_computed": metric(misses, count),
        "graphs.row_hit_ratio": metric(hits / max(hits + misses, 1), ratio),
        "graphs.pair_distances_s": metric(T["graphs.pair_distances"], s),
        "graphs.prefetch_s": metric(T["graphs.prefetch"], s),
        "construction.spt_trees_s": metric(S["construction.spt_trees"], s),
        "construction.spt_jobs": metric(N["construction.spt_jobs"], count),
        "construction.ball_csr_s": metric(T["construction.ball_csr"], s),
        "construction.tree_from_predecessors_s": metric(
            T["construction.tree_from_predecessors"], s),
        "construction.tree_from_predecessors_calls": metric(
            C["construction.tree_from_predecessors"], count),
        "hashing.digits_s": metric(T["hashing.digits"], s),
        "hashing.digits_calls": metric(C["hashing.digits"], count),
        "trees.name_independent_s": metric(S["trees.name_independent"], s),
        "trees.name_independent_count": metric(C["trees.name_independent"],
                                               count),
        "trees.dictionary_s": metric(S["trees.dictionary"], s),
        "covers.sparse_cover_s": metric(S["covers.sparse_cover"], s),
        "covers.tree_cover_s": metric(S["covers.tree_cover"], s),
        "core.decomposition_s": metric(S["core.decomposition"], s),
        "core.landmarks_s": metric(S["core.landmarks"], s),
        "core.sparse_strategy_s": metric(S["core.sparse_strategy"], s),
        "core.dense_strategy_s": metric(S["core.dense_strategy"], s),
        "baselines.build_s": metric(S["baselines.build"], s),
        "routing.compile_s": metric(T["routing.compile"], s),
        "routing.plan_s": metric(S["routing.plan"], s),
        "routing.scalar_plan_share": metric(plans / max(packets_planned, 1),
                                            ratio),
        "routing.step_s": metric(S["routing.step"], s),
        "routing.verify_s": metric(T["routing.verify"], s),
        "routing.hops_per_packet": metric(hop_total / max(hop_count, 1.0),
                                          count),
        "traffic.batch_gen_s": metric(T["traffic.batch_gen"], s),
        "traffic.score_s": metric(S["traffic.stream"], s),
        "traffic.reduce_s": metric(T["traffic.reduce"], s),
        "traffic.hot_rows_s": metric(T["traffic.hot_rows"], s),
        "dynamics.apply_events_s": metric(T["dynamics.apply_events"], s),
        "dynamics.maintain_s": metric(T["dynamics.maintain"], s),
        "dynamics.maintain_reported_s": metric(
            sum(r.seconds for r in reports_of_repair), s),
        "dynamics.full_rebuild_share": metric(
            sum(r.strategy == "full-rebuild" for r in reports_of_repair)
            / max(len(reports_of_repair), 1), ratio),
        "dynamics.tree_reuse_ratio": metric(reused / max(reused + rebuilt, 1),
                                            ratio),
        "dynamics.dirty_destinations": metric(
            sum(r.dirty_destinations for r in reports_of_repair), count),
        "live.stale_probe_s": metric(T["live.stale_probe"], s),
        "live.traffic_s": metric(tracer.total_under("traffic.run", "live.run"),
                                 s),
        "live.recompile_s": metric(
            tracer.total_under("routing.compile", "live.run"), s),
        "storage.spilled_bytes": metric(
            storage["spilled_bytes"] - storage_before["spilled_bytes"], "bytes"),
        "storage.spill_count": metric(
            storage["spill_count"] - storage_before["spill_count"], count),
        "storage.unaccounted_mb": metric(peak_rss_mb() - accounted / MIB, "MB"),
        "stretch_max": metric(max(r.stats.summary(include_p2=False)
                                  ["max_stretch"] for r in reports), ratio),
        "table_bits_max": metric(table_bits_max, "bits"),
        "failure_rate": metric(failed / max(reachable, 1), ratio),
    }


def traced_zipf(spec: wl.ZipfSpec, seed: int, clock, out):
    """Untraced then traced instance of the same seed, then a profiled round."""
    inst_seed = wl.instance_seed(seed, 0)
    base = wl.build_zipf(spec, inst_seed)
    wl.measure_zipf(spec, base, clock, rounds=spec.traced_rounds)
    wl.check_parity(base.scheme, base.model, base.oracle,
                    f"{spec.name} seed {inst_seed}")
    expected = (wl.fingerprint(base.reports[0].summary(include_p2=False)),
                base.scheme.total_bits())
    untraced_setup, untraced_round = base.setup_s, statistics.median(base.round_s)
    round_spread = max(base.round_s) - min(base.round_s)
    del base
    gc.collect()

    storage_before = storage_report()
    tracer = probes.Tracer()
    tracer.install()
    try:
        with tracer.span("bench.setup"):
            inst = wl.build_zipf(spec, inst_seed)
        before = tracer.snapshot()
        with tracer.span("bench.rounds"):
            wl.measure_zipf(spec, inst, clock, rounds=spec.traced_rounds)
        after = tracer.snapshot()
    finally:
        tracer.uninstall()
    got = (wl.fingerprint(inst.reports[0].summary(include_p2=False)),
           inst.scheme.total_bits())
    if got != expected:
        raise wl.CheckFailed(f"{spec.name} seed {inst_seed}: stats or table "
                             "bits differ between the untraced and traced build")
    attempted, failed = wl.counted(inst.reports)
    out["attempted"] += attempted
    out["failed"] += failed

    traced_round = statistics.median(inst.round_s)
    # a gap counts once it exceeds both the tracing overhead and the
    # round-to-round jitter of the untraced rounds
    threshold = max(traced_round - untraced_round, round_spread)
    profile = wl.route_round(spec, inst, profile=True).profile
    rounds = len(inst.reports)
    traced_stage = {
        # the profile's plan stage includes the hashing done while planning
        "plan": _delta(after, before, "total", "routing.plan"),
        "step": _delta(after, before, "self", "routing.step"),
        "verify": _delta(after, before, "total", "routing.verify"),
        "score": _delta(after, before, "self", "traffic.stream"),
        "reduce": _delta(after, before, "total", "traffic.reduce"),
    }
    check = {}
    for stage, total in traced_stage.items():
        per_round = total / rounds
        gap = abs(per_round - profile.get(stage, 0.0))
        check[stage] = {"traced_s": per_round, "profile_s": profile.get(stage, 0.0),
                        "flagged": gap > threshold}
    out["profile_check"] = {"threshold_s_per_round": threshold, "stages": check}
    plans = int(_delta(after, before, "counts", "routing.scalar_plans"))
    layers = layer_metrics(tracer, inst.reports, rounds * spec.round_packets,
                           plans, [inst.oracle], [], storage_before,
                           inst.scheme.max_table_bits())
    layers.update({
        "repair_s": metric(0.0, "s"),
        "trace.setup_overhead": metric(inst.setup_s / untraced_setup - 1.0,
                                       "ratio"),
        "trace.route_overhead": metric(traced_round / untraced_round - 1.0,
                                       "ratio"),
        "trace.profile_flags": metric(
            sum(c["flagged"] for c in check.values()), "count"),
    })
    out["trace"] = tracer.dump()
    return layers


def traced_live(spec: wl.LiveSpec, seed: int, clock, out):
    """Untraced then traced instance of the same seed (same events)."""
    inst_seed = wl.instance_seed(seed, 0)
    base = wl.build_live(spec, inst_seed)
    wl.run_live(spec, base, clock)
    expected = wl.live_fingerprint(base)
    untraced_setup = base.setup_s
    untraced_run = sum(base.timeline_s.values())
    del base
    gc.collect()

    clock.reset()
    storage_before = storage_report()
    tracer = probes.Tracer()
    tracer.install()
    try:
        with tracer.span("bench.setup"):
            inst = wl.build_live(spec, inst_seed)
        before = tracer.snapshot()
        with tracer.span("bench.timelines"):
            wl.run_live(spec, inst, clock, parity=False)
        after = tracer.snapshot()
    finally:
        tracer.uninstall()
    if wl.live_fingerprint(inst) != expected:
        raise wl.CheckFailed(f"{spec.name} seed {inst_seed}: timelines differ "
                             "between the untraced and traced instance")
    attempted, failed = wl.live_counted(inst)
    out["attempted"] += attempted
    out["failed"] += failed

    reports = [record.report for timeline in inst.timelines.values()
               for record in timeline.epochs]
    planned = sum(r.packets for r in reports) + sum(
        record.stale_packets for timeline in inst.timelines.values()
        for record in timeline.epochs)
    plans = int(_delta(after, before, "counts", "routing.scalar_plans"))
    repairs = [entry for tag in spec.schemes for entry in clock.repairs[tag]]
    layers = layer_metrics(tracer, reports, planned, plans,
                           [part[1] for part in inst.parts.values()], repairs,
                           storage_before, inst.bits[spec.schemes[0]][0])
    repair_s = sum(s for s, _ in repairs) + sum(
        sum(clock.compiles[tag]) for tag in spec.schemes)
    traced_run = sum(inst.timeline_s.values())
    layers.update({
        "repair_s": metric(repair_s, "s"),
        "trace.setup_overhead": metric(inst.setup_s / untraced_setup - 1.0,
                                       "ratio"),
        "trace.route_overhead": metric(traced_run / untraced_run - 1.0,
                                       "ratio"),
        "trace.profile_flags": metric(0, "count"),
    })
    out["trace"] = tracer.dump()
    return layers


# --------------------------------------------------------------------- #
# entry point
# --------------------------------------------------------------------- #
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.makedirs(os.path.join(OUT_DIR, "spill"), exist_ok=True)
    # spilled distance rows stay inside the checkout
    os.environ.setdefault("REPRO_SPILL_DIR", os.path.join(OUT_DIR, "spill"))
    spec = wl.WORKLOADS[args.workload]
    live = isinstance(spec, wl.LiveSpec)
    clock = probes.Clock()
    clock.install(wl.SCHEME_CLASSES)
    out: Dict[str, object] = {"attempted": 0, "failed": 0, "instances": []}
    problems: List[str] = []
    metrics: Dict[str, Dict] = {}
    try:
        if args.trace:
            run = traced_live if live else traced_zipf
            metrics = run(spec, args.seed, clock, out)
        else:
            run = timed_live if live else timed_zipf
            metrics = run(spec, args.seed, args.seconds, clock, out)
    except Exception as exc:  # noqa: BLE001 - reported as a failed run
        traceback.print_exc()
        problems.append(f"{type(exc).__name__}: {exc}")
        # a run that raises counts every packet it attempted as failed
        out["attempted"] = max(int(out["attempted"]), 1)
        out["failed"] = out["attempted"]
    finally:
        clock.uninstall()
    if out["failed"]:
        problems.append(f"{out['failed']} reachable packets were not delivered")

    meta = run_meta(args)
    details = {key: value for key, value in out.items() if key != "trace"}
    details["problems"] = problems
    record = {"meta": meta, "details": details, "metrics": metrics,
              "trace": out.get("trace")}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    write_bench_json(os.path.join(OUT_DIR, name), record)
    print(json.dumps({"meta": meta}))
    print(json.dumps({"details": details}))
    result = {"correct": not problems, "attempted": max(int(out["attempted"]), 1),
              "failed": int(out["failed"]), "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
