"""E5/E6 — empirical verification of Lemma 2, Lemma 3 and Claims 1-2 (Figures 1-2)."""

import pytest

from benchmarks.conftest import record
from repro.experiments.matrix.kinds import run_lemma_properties


@pytest.mark.bench
def test_e5_e6_lemma_properties(benchmark, quick):
    def run():
        return run_lemma_properties(quick=quick, seed=5, k=3)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    total_l2 = sum(r["lemma2_checked"] for r in result.rows)
    total_l3 = sum(r["lemma3_checked"] for r in result.rows)
    record(
        benchmark,
        experiment="E5/E6",
        lemma2_triples_checked=total_l2,
        lemma2_violations=sum(r["lemma2_violations"] for r in result.rows),
        lemma3_triples_checked=total_l3,
        lemma3_violations=sum(r["lemma3_violations"] for r in result.rows),
        claim1_holds=all(r["claim1_holds"] for r in result.rows),
        claim2_holds=all(r["claim2_holds"] for r in result.rows),
    )
    assert sum(r["lemma2_violations"] for r in result.rows) == 0
    assert sum(r["lemma3_violations"] for r in result.rows) == 0
