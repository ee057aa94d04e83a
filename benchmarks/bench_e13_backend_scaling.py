"""E13 — distance-backend scaling: dense matrix vs lazy LRU rows.

Standalone script (not a pytest-benchmark module: the point is peak *memory*,
which needs a process-wide tracemalloc window per backend).  For each
``n`` in ``--sizes`` it builds a scale-free (Barabási–Albert) workload graph
and, for the dense and lazy backends, records

* backend build time (APSP + eager argsort for dense, cache setup for lazy),
* a fixed query workload: global stats, ball / nearest probes, and a
  200-pair vectorized ``pair_distances`` batch,
* tracemalloc peak memory over build + workload.

With ``--agm`` it additionally runs the headline scenario: a k=2 AGM scheme
build plus a 200-pair evaluation on the largest size with the lazy backend —
demonstrating that the full pipeline completes without ever allocating the
dense n×n matrix (above n=256 the landmark sets' constant factor is scaled
down via ``AGMParams.experiment``, as in every bench — see
``common.scheme_kwargs``; exponents are untouched).

Usage::

    PYTHONPATH=src python benchmarks/bench_e13_backend_scaling.py
    PYTHONPATH=src python benchmarks/bench_e13_backend_scaling.py --sizes 200 1000
    PYTHONPATH=src python benchmarks/bench_e13_backend_scaling.py --agm
"""

from __future__ import annotations

import argparse
import time
import tracemalloc

from repro.core.scheme import AGMRoutingScheme
from repro.experiments.workloads import make_workload
from repro.graphs.shortest_paths import DistanceOracle
from repro.routing.simulator import RoutingSimulator

from common import scheme_kwargs

NUM_PAIRS = 200
NUM_PROBES = 64


def run_workload(graph, oracle) -> None:
    """The fixed query mix every backend is measured on."""
    oracle.diameter()
    oracle.min_positive_distance()
    step = max(1, graph.n // NUM_PROBES)
    radius = oracle.diameter() / 8.0
    for u in range(0, graph.n, step):
        oracle.ball_size(u, radius)
        oracle.nearest(u, 8)
    sim = RoutingSimulator(graph, oracle=oracle)
    pairs = sim.sample_pairs(NUM_PAIRS, seed=7)
    oracle.pair_distances([u for u, _ in pairs], [v for _, v in pairs])


def measure(graph, backend: str) -> dict:
    """Build one backend and run the workload inside a tracemalloc window."""
    tracemalloc.start()
    t0 = time.perf_counter()
    oracle = DistanceOracle(graph, backend=backend)
    if backend == "dense":
        _ = oracle.matrix  # the eager build happens in the constructor
    build_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    run_workload(graph, oracle)
    evaluate_seconds = time.perf_counter() - t0
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {
        "backend": backend,
        "build_s": build_seconds,
        "evaluate_s": evaluate_seconds,
        "peak_mb": peak / 1e6,
        "resident_mb": oracle.nbytes() / 1e6,
    }


def run_agm_scenario(n: int, seed: int = 42) -> None:
    """k=2 AGM build + 200-pair evaluation, lazy backend, no dense matrix."""
    graph = make_workload("barabasi-albert", n, seed=seed)
    tracemalloc.start()
    oracle = DistanceOracle(graph, backend="lazy")
    t0 = time.perf_counter()
    scheme = AGMRoutingScheme.build(graph, k=2, oracle=oracle, seed=3,
                                    **scheme_kwargs("agm", n))
    build_seconds = time.perf_counter() - t0
    simulator = RoutingSimulator(graph, oracle=oracle)
    t0 = time.perf_counter()
    report = simulator.evaluate(scheme, num_pairs=NUM_PAIRS, seed=5)
    evaluate_seconds = time.perf_counter() - t0
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    dense_mb = graph.n * graph.n * 8 / 1e6
    print(f"\n## AGM k=2 on scale-free n={graph.n} (lazy backend)")
    print(f"build        {build_seconds:8.1f} s")
    print(f"evaluate     {evaluate_seconds:8.1f} s   "
          f"({report.num_pairs} pairs, {report.failures} failures, "
          f"max stretch {report.max_stretch:.2f}, "
          f"fallback uses {scheme.fallback_uses})")
    print(f"peak memory  {peak / 1e6:8.0f} MB  "
          f"(dense matrix alone would be {dense_mb:.0f} MB; "
          f"row cache held {oracle.nbytes() / 1e6:.0f} MB)")
    assert oracle.backend_name == "lazy"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[200, 1000, 5000])
    parser.add_argument("--agm", action="store_true",
                        help="also run the k=2 AGM build + evaluation at the "
                             "largest size on the lazy backend")
    args = parser.parse_args()

    print("# E13: distance-backend scaling (dense vs lazy), scale-free graphs")
    header = f"{'n':>6} {'backend':>8} {'build_s':>9} {'evaluate_s':>11} {'peak_mb':>9} {'resident_mb':>12}"
    print(header)
    print("-" * len(header))
    for n in args.sizes:
        graph = make_workload("barabasi-albert", n, seed=42)
        rows = [measure(graph, backend) for backend in ("dense", "lazy")]
        for row in rows:
            print(f"{graph.n:>6} {row['backend']:>8} {row['build_s']:>9.2f} "
                  f"{row['evaluate_s']:>11.2f} {row['peak_mb']:>9.1f} "
                  f"{row['resident_mb']:>12.1f}")
        dense_peak = rows[0]["peak_mb"]
        lazy_peak = rows[1]["peak_mb"]
        if lazy_peak > 0:
            print(f"{'':>6} {'ratio':>8} {'':>9} {'':>11} "
                  f"{dense_peak / lazy_peak:>8.1f}x")

    if args.agm:
        run_agm_scenario(max(args.sizes))


if __name__ == "__main__":
    main()
