"""Experiment flows, declared as pass pipelines over the flow engine.

:mod:`repro.flows.engine` provides the pass-manager substrate (named,
composable passes with per-pass size/depth/activity/runtime metrics);
:mod:`repro.flows.mighty` declares the paper's MIGhty flow on top of it;
:mod:`repro.flows.optimize` and :mod:`repro.flows.synthesis` run the
Table I experiments; :mod:`repro.flows.report` formats the tables and
serialises the per-pass metrics for the benchmark harness.
:mod:`repro.flows.batch` shards whole-network flows over a corpus
(``optimize_many``, with the result cache of
:mod:`repro.flows.result_cache` behind ``cache_dir=``) and windows one
large network (``optimize_large``, :mod:`repro.flows.partitioned`).
"""

from .engine import (
    ActivityOpt,
    Balance,
    Cleanup,
    DepthOpt,
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
    Reshape,
    SizeOpt,
    run_rebuild_chain,
)
from .batch import (
    BatchItem,
    BatchReport,
    LargeResult,
    format_batch_report,
    optimize_large,
    optimize_many,
)
from .mighty import MightyResult, mighty_optimize, mighty_pipeline
from .partitioned import (
    PartitionedRewrite,
    WindowVerificationError,
    partitioned_rewrite,
    sweep_offset,
)
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
    "SizeOpt",
    "MigRewrite",
    "Eliminate",
    "Reshape",
    "ActivityOpt",
    "Cleanup",
    # mighty
    "mighty_optimize",
    "mighty_pipeline",
    "MightyResult",
    # batch (process-parallel corpus API; optimize_many(cache_dir=) adds
    # the content-addressed result cache of flows.result_cache)
    "optimize_many",
    "BatchItem",
    "BatchReport",
    "format_batch_report",
    # partition-parallel single-circuit API
    "optimize_large",
    "LargeResult",
    "PartitionedRewrite",
    "WindowVerificationError",
    "partitioned_rewrite",
    "sweep_offset",
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
