"""The logic-optimization experiment of Table I (top half) and Fig. 3.

Three flows are compared on every benchmark, each one a declarative pass
pipeline over the flow engine (:mod:`repro.flows.engine`):

``MIG``
    The benchmark built as a MIG and optimized by the MIGhty pipeline
    (``Balance → Repeat[DepthOpt, SizeOpt, Eliminate, Balance]``, i.e.
    depth optimization interlaced with size/activity recovery).
``AIG``
    The same function built as an AIG and optimized by the ``resyn2``-style
    rebuild chain (balance / rewrite / refactor passes with a
    no-regression acceptance rule).
``BDD``
    The same function turned into canonical BDDs and structurally
    decomposed back into a network (the BDS-style baseline).  Like the
    paper (which reports N.A. for ``clma``), benchmarks whose BDDs explode
    are reported as unavailable rather than aborting the run.

Each flow reports the Table I metrics: size, depth, total switching
activity and runtime.  Because the flows run on the engine, every row can
also carry the per-pass metrics trace (``mig_passes`` / ``aig_passes``),
which :func:`repro.flows.report.format_pass_metrics` renders and
:func:`repro.flows.report.pass_metrics_to_json` serialises for the
benchmark harness.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..aig.aig import Aig
from ..aig.resyn import resyn2
from ..analysis.metrics import NetworkMetrics, measure_network
from ..bdd.decompose import decompose_to_mig
from ..bench_circuits import benchmark_names, build_benchmark
from ..core.mig import Mig
from .engine import PassMetrics
from .mighty import mighty_optimize

__all__ = [
    "OptimizationComparison",
    "run_mig_optimization",
    "run_aig_optimization",
    "run_bdd_optimization",
    "compare_optimization",
    "run_optimization_experiment",
]

#: Benchmarks above this PI count skip the BDD baseline (canonical BDDs with
#: a static order blow up; the paper similarly reports N.A. for clma).
BDD_PI_LIMIT = 600
BDD_NODE_LIMIT = 400_000


@dataclass
class OptimizationComparison:
    """Per-benchmark row of Table I (top).

    ``mig_passes`` / ``aig_passes`` hold the engine's per-pass metrics
    trace of the two optimizing flows (empty when a flow did not run).
    ``*_network`` carry the optimized networks themselves when the row
    was produced with ``keep_networks=True``
    (:func:`repro.parallel.corpus.optimization_row` uses them for
    structural fingerprints and CEC verdicts).
    """

    name: str
    mig: NetworkMetrics
    aig: NetworkMetrics
    bdd: Optional[NetworkMetrics]
    mig_passes: List[PassMetrics] = field(default_factory=list)
    aig_passes: List[PassMetrics] = field(default_factory=list)
    mig_network: Optional[object] = None
    aig_network: Optional[object] = None
    bdd_network: Optional[object] = None


def run_mig_optimization(
    mig: Mig, rounds: int = 2, depth_effort: int = 2
) -> Tuple[NetworkMetrics, List[PassMetrics]]:
    """Optimize a MIG with the MIGhty pipeline and measure it.

    Returns the Table I metrics row and the engine's per-pass trace.  The
    runtime is captured before the activity measurement so the runtime
    column reports optimization time only, as in the paper.
    """
    start = time.perf_counter()
    result = mighty_optimize(mig, rounds=rounds, depth_effort=depth_effort)
    runtime = time.perf_counter() - start
    return measure_network(mig, runtime_s=runtime), result.pass_metrics


def run_aig_optimization(aig: Aig) -> Tuple[NetworkMetrics, Aig, List[PassMetrics]]:
    """Optimize an AIG with the resyn2-style chain and measure it.

    Returns ``(metrics, optimized_aig, pass_metrics)``; the input AIG is
    not modified (the script chains rebuilds).
    """
    start = time.perf_counter()
    optimized, stats = resyn2(aig)
    runtime = time.perf_counter() - start
    return measure_network(optimized, runtime_s=runtime), optimized, stats.pass_metrics


def run_bdd_optimization(network, keep_network: bool = False):
    """Run the BDD-decomposition baseline; ``None`` when it is infeasible.

    Returns the metrics row, or ``(metrics, decomposed_network)`` with
    ``keep_network=True``.
    """
    if network.num_pis > BDD_PI_LIMIT:
        return None
    start = time.perf_counter()
    try:
        decomposed, _stats = decompose_to_mig(network)
    except (MemoryError, RecursionError):
        return None
    runtime = time.perf_counter() - start
    metrics = measure_network(decomposed, name=network.name, runtime_s=runtime)
    return (metrics, decomposed) if keep_network else metrics


def compare_optimization(
    benchmark: str,
    rounds: int = 2,
    depth_effort: int = 2,
    include_bdd: bool = True,
    keep_networks: bool = False,
) -> OptimizationComparison:
    """Run the three flows of Table I (top) on one benchmark.

    ``keep_networks=True`` attaches the optimized networks to the row
    (``mig_network`` / ``aig_network`` / ``bdd_network``) so callers can
    fingerprint or equivalence-check them.
    """
    mig = build_benchmark(benchmark, Mig)
    aig = build_benchmark(benchmark, Aig)

    mig_metrics, mig_passes = run_mig_optimization(
        mig, rounds=rounds, depth_effort=depth_effort
    )
    aig_metrics, optimized_aig, aig_passes = run_aig_optimization(aig)

    bdd_metrics = bdd_network = None
    if include_bdd:
        bdd_outcome = run_bdd_optimization(
            build_benchmark(benchmark, Mig), keep_network=True
        )
        if bdd_outcome is not None:
            bdd_metrics, bdd_network = bdd_outcome
    return OptimizationComparison(
        name=benchmark,
        mig=mig_metrics,
        aig=aig_metrics,
        bdd=bdd_metrics,
        mig_passes=mig_passes,
        aig_passes=aig_passes,
        mig_network=mig if keep_networks else None,
        aig_network=optimized_aig if keep_networks else None,
        bdd_network=bdd_network if keep_networks else None,
    )


def run_optimization_experiment(
    benchmarks: Optional[List[str]] = None,
    rounds: int = 2,
    depth_effort: int = 2,
    include_bdd: bool = True,
) -> List[OptimizationComparison]:
    """Run the full Table I (top) experiment."""
    names = benchmarks if benchmarks is not None else benchmark_names()
    return [
        compare_optimization(
            name, rounds=rounds, depth_effort=depth_effort, include_bdd=include_bdd
        )
        for name in names
    ]
