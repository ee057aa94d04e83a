"""The three benchmark workloads: what each builds, measures and checks.

Every workload drives only public entry points (``build_scheme``,
``compiled_forwarding``, ``run_traffic``, ``LiveSimulator.run``) on
Barabási–Albert graphs over the lazy distance backend, single process and
closed loop: ``shards=1``, no forked workers, one batch in flight.  A run
builds several **instances**, each from a graph seed derived from the run
seed, so one unusual graph cannot swing a run's figures; set-up time is
the median over instances.

See ``perfbench/README.md`` for why each workload exists and which layer
each one loads.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro.traffic.engine as engine  # called through the module: wrappers apply
from repro.baselines.cowen import CowenRouting
from repro.baselines.shortest_path import ShortestPathRouting
from repro.baselines.thorup_zwick import ThorupZwickRouting
from repro.core.scheme import AGMRoutingScheme
from repro.factory import build_scheme
from repro.graphs.generators import make_graph
from repro.graphs.shortest_paths import DistanceOracle
from repro.live import LiveSimulator
from repro.traffic import make_traffic_model, run_traffic_exact

_now = time.perf_counter

FAMILY = "barabasi-albert"
BACKEND = "lazy"
K = 2
#: packets re-routed through the scalar ``route()`` per parity check
PARITY_PACKETS = 512
#: scheme classes whose compile/maintain calls the clock times
SCHEME_CLASSES = (AGMRoutingScheme, CowenRouting, ThorupZwickRouting,
                  ShortestPathRouting)


def instance_seed(seed: int, index: int) -> int:
    """Graph/scheme/traffic seed of instance ``index`` of a run."""
    return seed * 16 + index


@dataclass(frozen=True)
class ZipfSpec:
    """A static workload: one scheme, Zipf traffic in fixed-size rounds.

    A round is one ``run_traffic`` call of ``epoch_batches`` batches in the
    service loop, so one round is one stats-flush epoch of the engine.
    """

    name: str
    scheme: str
    n: int
    batch: int
    epoch_batches: int
    instances: int
    #: fewest rounds per instance in a timed run, so the batch-latency
    #: sample count stays inside one band of the tail-percentile ladder
    min_rounds: int
    #: rounds per instance in the traced run (fixed work, so per-layer
    #: counts repeat exactly)
    traced_rounds: int
    zipf: Dict[str, object] = field(default_factory=dict)

    @property
    def round_packets(self) -> int:
        return self.batch * self.epoch_batches


@dataclass(frozen=True)
class LiveSpec:
    """The live workload: TZ and shortest-path timelines over one event sequence."""

    name: str
    n: int
    epochs: int
    epoch_packets: int
    batch: int
    stale_packets: int
    #: instances cycle over this many graph seeds; ``min_instances`` above
    #: it makes a same-seed repeat that must reproduce bit for bit
    distinct_seeds: int
    min_instances: int
    schemes: Tuple[str, ...] = ("thorup-zwick", "shortest-path")
    scenario: str = "flap-heavy"


AGM_ZIPF = ZipfSpec("agm-zipf", "agm", n=600, batch=1024, epoch_batches=8,
                    instances=3, min_rounds=5, traced_rounds=4)
COWEN_ZIPF = ZipfSpec("cowen-zipf", "cowen", n=3000, batch=8192,
                      epoch_batches=16, instances=3, min_rounds=7,
                      traced_rounds=8, zipf={"support": 512})
LIVE_FLAP = LiveSpec("live-flap", n=600, epochs=1, epoch_packets=16384,
                     batch=2048, stale_packets=2048, distinct_seeds=8,
                     min_instances=9)

WORKLOADS = {spec.name: spec for spec in (AGM_ZIPF, COWEN_ZIPF, LIVE_FLAP)}


class CheckFailed(AssertionError):
    """An output check of the benchmark did not hold."""


def fingerprint(summary: Dict[str, float]) -> str:
    """Exact text of a stats summary (NaN-safe, every digit kept)."""
    return json.dumps(summary, sort_keys=True)


def check_parity(scheme, model, oracle, label: str) -> None:
    """Scalar ``route()`` and the lockstep engine must give identical walks."""
    args = dict(batch_size=PARITY_PACKETS, oracle=oracle)
    scalar = run_traffic_exact(scheme, model, PARITY_PACKETS, engine="scalar",
                               **args)
    lockstep = run_traffic_exact(scheme, model, PARITY_PACKETS,
                                 engine="lockstep", **args)
    for key in ("found", "finite", "hops", "stretch"):
        if not np.array_equal(scalar[key], lockstep[key]):
            raise CheckFailed(f"{label}: scalar and lockstep {key} differ")


# --------------------------------------------------------------------- #
# static Zipf workloads
# --------------------------------------------------------------------- #
@dataclass
class ZipfInstance:
    seed: int
    scheme: object
    model: object
    oracle: DistanceOracle
    setup_s: float
    round_s: List[float] = field(default_factory=list)
    reports: List[object] = field(default_factory=list)


def build_zipf(spec: ZipfSpec, seed: int) -> ZipfInstance:
    """Set up one instance: graph, oracle, scheme, program, hot-row warm-up."""
    start = _now()
    graph = make_graph(FAMILY, n=spec.n, seed=seed)
    oracle = DistanceOracle(graph, backend=BACKEND)
    scheme = build_scheme(spec.scheme, graph, k=K, seed=seed, oracle=oracle)
    scheme.compiled_forwarding()
    model = make_traffic_model("zipf", graph, seed=seed, **spec.zipf)
    # one batch pins the hot destination rows and warms the table columns
    engine.run_traffic(scheme, model, spec.batch, batch_size=spec.batch,
                       oracle=oracle, shards=1, processes=False)
    return ZipfInstance(seed, scheme, model, oracle, _now() - start)


def route_round(spec: ZipfSpec, inst: ZipfInstance, profile: bool = False):
    return engine.run_traffic(
        inst.scheme, inst.model, spec.round_packets, batch_size=spec.batch,
        oracle=inst.oracle, shards=1, processes=False, service=True,
        epoch_batches=spec.epoch_batches, profile=profile)


def measure_zipf(spec: ZipfSpec, inst: ZipfInstance, clock,
                 seconds: Optional[float] = None,
                 rounds: Optional[int] = None) -> None:
    """Route rounds for ``seconds`` (at least ``min_rounds``) or exactly ``rounds``."""
    clock.armed = True
    start = _now()
    try:
        while True:
            if rounds is not None and len(inst.reports) >= rounds:
                break
            if rounds is None and len(inst.reports) >= spec.min_rounds \
                    and _now() - start >= seconds:
                break
            t0 = _now()
            inst.reports.append(route_round(spec, inst))
            inst.round_s.append(_now() - t0)
    finally:
        clock.armed = False
    first = fingerprint(inst.reports[0].summary(include_p2=False))
    for report in inst.reports[1:]:
        if fingerprint(report.summary(include_p2=False)) != first:
            raise CheckFailed(f"{spec.name} seed {inst.seed}: official stats "
                              "differ between rounds")


def counted(reports) -> Tuple[int, int]:
    """(reachable packets attempted, failed packets) over traffic reports."""
    attempted = failed = 0
    for report in reports:
        stats = report.stats
        attempted += stats.packets - stats.unreachable
        failed += stats.failures
    return attempted, failed


# --------------------------------------------------------------------- #
# live workload
# --------------------------------------------------------------------- #
@dataclass
class LiveInstance:
    seed: int
    setup_s: float
    #: scheme -> (scheme, oracle, simulator)
    parts: Dict[str, tuple]
    #: scheme -> table bits (max, avg, total) as built
    bits: Dict[str, Tuple[int, float, int]]
    timelines: Dict[str, object] = field(default_factory=dict)
    timeline_s: Dict[str, float] = field(default_factory=dict)


def build_live(spec: LiveSpec, seed: int) -> LiveInstance:
    """Set up one instance: per scheme its own graph copy, oracle and program."""
    start = _now()
    parts = {}
    for name in spec.schemes:
        graph = make_graph(FAMILY, n=spec.n, seed=seed)
        oracle = DistanceOracle(graph, backend=BACKEND)
        scheme = build_scheme(name, graph, k=K, seed=seed, oracle=oracle)
        scheme.compiled_forwarding()
        simulator = LiveSimulator(
            scheme, spec.scenario, oracle=oracle, model="zipf",
            epochs=spec.epochs, epoch_packets=spec.epoch_packets,
            batch_size=spec.batch, stale_packets=spec.stale_packets,
            shards=1, processes=False, seed=seed)
        parts[name] = (scheme, oracle, simulator)
    setup_s = _now() - start
    bits = {name: (int(s.max_table_bits()), float(s.avg_table_bits()),
                   int(s.total_bits()))
            for name, (s, _, _) in parts.items()}
    return LiveInstance(seed, setup_s, parts, bits)


def run_live(spec: LiveSpec, inst: LiveInstance, clock,
             parity: bool = True) -> None:
    """Run every scheme's timeline, then check engine parity on the churned graph."""
    for name, (scheme, oracle, simulator) in inst.parts.items():
        clock.tag = name
        clock.armed = True
        start = _now()
        try:
            inst.timelines[name] = simulator.run()
        finally:
            clock.armed = False
        inst.timeline_s[name] = _now() - start
        if parity:
            model = make_traffic_model("zipf", scheme.graph, seed=inst.seed)
            check_parity(scheme, model, oracle,
                         f"{spec.name} {name} seed {inst.seed} after churn")


def live_fingerprint(inst: LiveInstance) -> str:
    """Everything a same-seed instance must reproduce bit for bit."""
    out = {}
    for name, timeline in inst.timelines.items():
        scheme = inst.parts[name][0]
        out[name] = {
            "stats": timeline.merged_stats().summary(include_p2=False),
            "stale_delivered": [r.stale_delivered for r in timeline.epochs],
            "repairs": [r.repair_strategy for r in timeline.epochs],
            "bits_built": inst.bits[name],
            "bits_repaired": int(scheme.total_bits()),
        }
    return json.dumps(out, sort_keys=True)


def live_counted(inst: LiveInstance) -> Tuple[int, int]:
    return counted(record.report for timeline in inst.timelines.values()
                   for record in timeline.epochs)
