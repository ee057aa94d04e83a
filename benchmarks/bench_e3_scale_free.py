"""E3 — the scale-free claim: table size vs aspect ratio for AGM vs Awerbuch-Peleg."""

import pytest

from benchmarks.conftest import record
from repro.experiments.matrix.kinds import run_scale_free


@pytest.mark.bench
def test_e3_scale_free(benchmark, quick):
    deltas = [1e2, 1e6, 1e12] if quick else [1e2, 1e4, 1e6, 1e9, 1e12]

    def run():
        return run_scale_free(quick=quick, seed=3, k=2, deltas=deltas, num_pairs=30)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    agm = sorted(result.filter(scheme="agm"), key=lambda r: r["target_delta"])
    ap = sorted(result.filter(scheme="awerbuch-peleg"), key=lambda r: r["target_delta"])
    assert all(r["failures"] == 0 for r in result.rows)
    agm_growth = agm[-1]["max_table_bits"] / agm[0]["max_table_bits"]
    ap_growth = ap[-1]["max_table_bits"] / ap[0]["max_table_bits"]
    record(
        benchmark,
        experiment="E3",
        deltas=[f"{d:.0e}" for d in deltas],
        agm_max_table_bits=[r["max_table_bits"] for r in agm],
        ap_max_table_bits=[r["max_table_bits"] for r in ap],
        agm_growth=round(agm_growth, 2),
        ap_growth=round(ap_growth, 2),
        agm_max_stretch=max(r["max_stretch"] for r in agm),
        ap_max_stretch=max(r["max_stretch"] for r in ap),
    )
    # the scale-free scheme's storage must grow strictly less than the log Δ scheme's
    assert agm_growth < ap_growth
