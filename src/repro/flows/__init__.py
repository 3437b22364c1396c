"""Experiment flows, declared as pass pipelines over the flow engine.

:mod:`repro.flows.engine` provides the pass-manager substrate (named,
composable passes with per-pass size/depth/runtime metrics, reported
in one ``FlowResult`` per flow run);
:mod:`repro.flows.mighty` declares the paper's MIGhty flow on top of it;
:mod:`repro.flows.table1` runs the Table I experiment, one row per
benchmark that optimizes each flow's network once, measures it (top half,
Fig. 3) and maps it (bottom half, Fig. 4); :mod:`repro.flows.report`
renders and serialises the per-pass metrics.
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
from .report import format_pass_metrics, pass_metrics_to_json
from .table1 import (
    Table1Row,
    format_table1,
    run_table1,
    summarize_table1,
    table1_row,
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
    # the Table I experiment
    "table1_row",
    "run_table1",
    "Table1Row",
    "summarize_table1",
    "format_table1",
    # per-pass reporting
    "format_pass_metrics",
    "pass_metrics_to_json",
]
