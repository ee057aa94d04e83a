"""Benchmark suite regenerating every paper experiment (E1–E12)."""
