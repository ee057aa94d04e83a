"""Tests for the E12 ablation experiment (decomposition-constant sensitivity)."""

import pytest

from repro.core.params import AGMParams
from repro.core.scheme import AGMRoutingScheme
from repro.experiments.matrix.kinds import run_ablation
from repro.routing.simulator import RoutingSimulator


class TestAblationExperiment:
    def test_tiny_sweep_runs_and_stays_correct(self):
        result = run_ablation(quick=True, seed=2, k=2,
                              dense_gaps=[1, 3], sparse_shrinks=[6.0],
                                  num_pairs=15)
        assert len(result.rows) == 2
        assert all(r["failures"] == 0 for r in result.rows)
        assert {r["dense_gap"] for r in result.rows} == {1, 3}

    def test_rows_carry_setting_columns(self):
        result = run_ablation(quick=True, seed=2, k=2,
                              dense_gaps=[3], sparse_shrinks=[3.0, 12.0],
                                  num_pairs=10)
        for row in result.rows:
            assert row["sparse_shrink"] in (3.0, 12.0)
            assert row["scheme"] == "agm"


class TestConstantSensitivityDirect:
    @pytest.mark.parametrize("dense_gap", [1, 5])
    def test_correctness_insensitive_to_dense_gap(self, small_er, er_oracle, dense_gap):
        params = AGMParams.experiment().with_overrides(dense_gap=dense_gap)
        scheme = AGMRoutingScheme.build(small_er, k=2, params=params,
                                        oracle=er_oracle, seed=4)
        report = RoutingSimulator(small_er, oracle=er_oracle).evaluate(
            scheme, num_pairs=60, seed=5)
        assert report.failures == 0
        assert report.max_stretch <= 16 * 2 + 8

    @pytest.mark.parametrize("sparse_shrink", [2.0, 12.0])
    def test_correctness_insensitive_to_sparse_shrink(self, small_er, er_oracle, sparse_shrink):
        params = AGMParams.experiment().with_overrides(sparse_shrink=sparse_shrink)
        scheme = AGMRoutingScheme.build(small_er, k=2, params=params,
                                        oracle=er_oracle, seed=4)
        report = RoutingSimulator(small_er, oracle=er_oracle).evaluate(
            scheme, num_pairs=60, seed=5)
        assert report.failures == 0
        assert report.max_stretch <= 16 * 2 + 8
