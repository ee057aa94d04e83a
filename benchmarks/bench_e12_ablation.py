"""E12 — ablation of the decomposition constants (dense gap, sparse shrink)."""

import pytest

from benchmarks.conftest import record
from repro.experiments.matrix.kinds import run_ablation


@pytest.mark.bench
def test_e12_ablation(benchmark, quick):
    def run():
        return run_ablation(quick=quick, seed=9, k=2)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert all(r["failures"] == 0 for r in result.rows)
    paper_row = next(r for r in result.rows
                     if r["dense_gap"] == 3 and r["sparse_shrink"] == 6.0)
    record(
        benchmark,
        experiment="E12",
        settings=[(r["dense_gap"], r["sparse_shrink"]) for r in result.rows],
        max_stretch=[round(float(r["max_stretch"]), 2) for r in result.rows],
        avg_stretch=[round(float(r["avg_stretch"]), 2) for r in result.rows],
        max_table_bits=[r["max_table_bits"] for r in result.rows],
        fallback_uses=[r.get("fallback_uses", 0) for r in result.rows],
        paper_setting_max_stretch=round(float(paper_row["max_stretch"]), 2),
    )
    # correctness must be insensitive to the constants; stretch should stay
    # within the same O(k) envelope across the whole sweep
    assert max(float(r["max_stretch"]) for r in result.rows) <= 16 * 2 + 8
