"""E3 — Fig. 3: the (size, depth, activity) optimization-space points.

The paper plots one point per flow (MIG, AIG, decomposed BDD) in a 3-D
space of average size / depth / switching activity.  This bench prints the
three coordinate triples — the data behind the figure — on a representative
subset of the suite (configurable through ``REPRO_BENCH_BENCHMARKS``).
"""

import pytest

from repro.flows import optimization_space_points, run_optimization_experiment

from .conftest import flow_depth_effort, flow_rounds, selected_benchmarks

#: Fig. 3 uses a representative subset by default to keep the bench quick;
#: set REPRO_BENCH_BENCHMARKS to override.
_DEFAULT_SUBSET = ["alu4", "my_adder", "b9", "count", "misex3", "C1908"]


def _subset():
    names = selected_benchmarks()
    if len(names) > 8:
        return _DEFAULT_SUBSET
    return names


def test_fig3_optimization_space(benchmark):
    """Regenerate the Fig. 3 series (one (size, depth, activity) per flow)."""

    def run():
        results = run_optimization_experiment(
            _subset(), rounds=flow_rounds(), depth_effort=flow_depth_effort()
        )
        return results, optimization_space_points(results)

    results, points = benchmark.pedantic(run, iterations=1, rounds=1)
    print()
    print("Fig. 3 — optimization space (size, depth, activity):")
    for flow, (size, depth, activity) in points.items():
        print(f"  {flow:4s}: size={size:9.1f}  depth={depth:6.2f}  activity={activity:10.2f}")
        benchmark.extra_info[f"{flow}_size"] = round(size, 1)
        benchmark.extra_info[f"{flow}_depth"] = round(depth, 2)
        benchmark.extra_info[f"{flow}_activity"] = round(activity, 2)
    # Shape: the MIG point dominates on the depth axis (the paper's claim).
    assert points["MIG"][1] <= points["AIG"][1]
    assert points["MIG"][1] <= points["BDD"][1]
