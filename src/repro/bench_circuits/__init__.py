"""Synthetic MCNC-like benchmark circuit generators.

:mod:`~repro.bench_circuits.suite` holds the Table I suite;
:mod:`~repro.bench_circuits.generator` holds the scalable 10^4–10^6 node
presets, the scaling inputs of whole-network optimization runs.  Both
resolve through :func:`build_benchmark`.
"""

from .generator import (
    SCALABLE_BENCHMARKS,
    ScalableSpec,
    build_scalable,
    scalable_names,
)
from .suite import (
    BENCHMARKS,
    BenchmarkSpec,
    benchmark_names,
    build_benchmark,
    build_compression_circuit,
)

__all__ = [
    "BENCHMARKS",
    "BenchmarkSpec",
    "SCALABLE_BENCHMARKS",
    "ScalableSpec",
    "benchmark_names",
    "build_benchmark",
    "build_compression_circuit",
    "build_scalable",
    "scalable_names",
]
