"""Experiment flows, declared as pass pipelines over the flow engine.

:mod:`repro.flows.engine` provides the pass-manager substrate (named,
composable passes with per-pass size/depth/runtime metrics, reported
in one ``FlowResult`` per flow run);
:mod:`repro.flows.mighty` declares the paper's MIGhty flow on top of it;
:mod:`repro.flows.optimize` and :mod:`repro.flows.synthesis` run the
Table I experiments; :mod:`repro.flows.report` formats the tables and
serialises the per-pass metrics for the benchmark harness.
:mod:`repro.flows.batch` shards whole-network flows over a corpus
(``optimize_many``, with the result cache of
:mod:`repro.flows.result_cache` behind ``cache_dir=``).

Every flow rewrites the whole network.  Large networks run the same
whole-network passes as small ones, as in ABC's DAG-aware rewriting
(Mishchenko, Chatterjee and Brayton, DAC'06): the :class:`Balance` pass
alone handles a 10^6-gate MIG (the ``rand_42000`` preset) in about 35 s
on one core of a 2-CPU host.
"""

from .engine import (
    Balance,
    DepthOpt,
    DepthRewrite,
    Eliminate,
    FlowResult,
    FunctionPass,
    MigRewrite,
    Pass,
    PassMetrics,
    PassVerificationError,
    Pipeline,
    RebuildPass,
    Repeat,
    SizeOpt,
    run_rebuild_chain,
)
from .batch import (
    BatchItem,
    BatchReport,
    format_batch_report,
    optimize_many,
)
from .mighty import mighty_optimize, mighty_pipeline
from .optimize import (
    OptimizationComparison,
    compare_optimization,
    run_aig_optimization,
    run_bdd_optimization,
    run_mig_optimization,
    run_optimization_experiment,
)
from .report import (
    format_optimization_table,
    format_pass_metrics,
    format_synthesis_table,
    optimization_space_points,
    pass_metrics_to_json,
    summarize_optimization,
    summarize_synthesis,
    synthesis_space_points,
)
from .synthesis import (
    SynthesisComparison,
    SynthesisMetrics,
    compare_synthesis,
    run_aig_synthesis,
    run_cst_synthesis,
    run_mig_synthesis,
    run_synthesis_experiment,
)

__all__ = [
    # engine
    "Pass",
    "FunctionPass",
    "RebuildPass",
    "Pipeline",
    "Repeat",
    "run_rebuild_chain",
    "PassMetrics",
    "PassVerificationError",
    "FlowResult",
    "Balance",
    "DepthOpt",
    "DepthRewrite",
    "SizeOpt",
    "MigRewrite",
    "Eliminate",
    # mighty
    "mighty_optimize",
    "mighty_pipeline",
    # batch (process-parallel corpus API; optimize_many(cache_dir=) adds
    # the content-addressed result cache of flows.result_cache)
    "optimize_many",
    "BatchItem",
    "BatchReport",
    "format_batch_report",
    # optimization experiment
    "compare_optimization",
    "run_optimization_experiment",
    "run_mig_optimization",
    "run_aig_optimization",
    "run_bdd_optimization",
    "OptimizationComparison",
    # synthesis experiment
    "compare_synthesis",
    "run_synthesis_experiment",
    "run_mig_synthesis",
    "run_aig_synthesis",
    "run_cst_synthesis",
    "SynthesisComparison",
    "SynthesisMetrics",
    # reporting
    "format_optimization_table",
    "format_synthesis_table",
    "format_pass_metrics",
    "pass_metrics_to_json",
    "summarize_optimization",
    "summarize_synthesis",
    "optimization_space_points",
    "synthesis_space_points",
]
