"""E1 — Table I (top): logic optimization, MIG vs AIG vs decomposed BDD.

Regenerates the size / depth / activity / runtime rows of Table I for every
benchmark of the synthetic MCNC-like suite and prints the formatted table
together with the headline averages (MIG depth −18.6% vs AIG and −23.7% vs
BDD in the paper).

Run with ``pytest benchmarks/bench_table1_optimization.py --benchmark-only``.
"""

from repro.flows import (
    format_optimization_table,
    run_optimization_experiment,
    summarize_optimization,
)

from .conftest import flow_depth_effort, flow_rounds, report, selected_benchmarks


def test_table1_optimization(benchmark):
    """Run the three optimization flows per benchmark; print the table."""

    def run():
        return run_optimization_experiment(
            selected_benchmarks(),
            rounds=flow_rounds(),
            depth_effort=flow_depth_effort(),
            include_bdd=True,
        )

    results = benchmark.pedantic(run, iterations=1, rounds=1)
    for result in results:
        benchmark.extra_info[f"{result.name}_mig_size"] = result.mig.size
        benchmark.extra_info[f"{result.name}_mig_depth"] = result.mig.depth
        benchmark.extra_info[f"{result.name}_aig_size"] = result.aig.size
        benchmark.extra_info[f"{result.name}_aig_depth"] = result.aig.depth
        if result.bdd is not None:
            benchmark.extra_info[f"{result.name}_bdd_size"] = result.bdd.size
            benchmark.extra_info[f"{result.name}_bdd_depth"] = result.bdd.depth
        assert result.mig.size > 0, result.name
        assert result.mig.depth > 0, result.name

    summary = summarize_optimization(results)
    print()
    report("Table I (top) — logic optimization\n" + format_optimization_table(results))
    benchmark.extra_info["depth_improvement_vs_aig_percent"] = round(
        summary.depth_improvement_vs_aig, 2
    )
    benchmark.extra_info["depth_improvement_vs_bdd_percent"] = round(
        summary.depth_improvement_vs_bdd, 2
    )
    # Shape of the paper's result: the MIG flow is shallower on average than
    # both baselines (paper: -18.6% and -23.7%).
    assert summary.avg_depth["MIG"] <= summary.avg_depth["AIG"]
    assert summary.avg_depth["MIG"] <= summary.avg_depth["BDD"]
