"""Experiment harness: workloads, runners, reporting and the experiment kinds.

Every experiment body (E1–E5, E12, and the general ``grid`` / ``traffic`` /
``live`` kinds) is a function in :mod:`repro.experiments.matrix.kinds` with
the shape ``fn(quick=True, seed=..., **params) -> ExperimentResult``; the
pytest-benchmark wrappers in ``benchmarks/``, the runnable examples and the
config-driven matrix runner all call those functions directly.
"""

from repro.experiments.harness import ExperimentResult, run_matrix, evaluate_scheme_on_graph
from repro.experiments.workloads import WorkloadSpec, standard_suite, make_workload
from repro.experiments.reporting import format_table, format_series, results_to_csv

__all__ = [
    "ExperimentResult",
    "run_matrix",
    "evaluate_scheme_on_graph",
    "WorkloadSpec",
    "standard_suite",
    "make_workload",
    "format_table",
    "format_series",
    "results_to_csv",
]
