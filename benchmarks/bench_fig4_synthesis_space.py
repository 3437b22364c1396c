"""E4 — Fig. 4: the (area, power, delay) synthesis-space points.

Prints the three coordinate triples behind Fig. 4 (MIG, AIG and the
commercial-synthesis-tool stand-in after technology mapping).
"""

import pytest

from repro.flows import run_synthesis_experiment, synthesis_space_points

from .conftest import flow_rounds, selected_benchmarks

_DEFAULT_SUBSET = ["alu4", "my_adder", "b9", "count", "misex3", "C1908"]


def _subset():
    names = selected_benchmarks()
    if len(names) > 8:
        return _DEFAULT_SUBSET
    return names


def test_fig4_synthesis_space(benchmark):
    """Regenerate the Fig. 4 series (one (area, delay, power) per flow)."""

    def run():
        results = run_synthesis_experiment(
            _subset(), rounds=flow_rounds()
        )
        return results, synthesis_space_points(results)

    results, points = benchmark.pedantic(run, iterations=1, rounds=1)
    print()
    print("Fig. 4 — synthesis space (area um2, delay ns, power uW):")
    for flow, (area, delay, power) in points.items():
        print(f"  {flow:4s}: area={area:8.2f}  delay={delay:6.3f}  power={power:8.2f}")
        benchmark.extra_info[f"{flow}_area_um2"] = round(area, 2)
        benchmark.extra_info[f"{flow}_delay_ns"] = round(delay, 3)
        benchmark.extra_info[f"{flow}_power_uw"] = round(power, 2)
    # Shape: the MIG point is the fastest of the three flows (tracked to a
    # tolerance on the synthetic suite — see EXPERIMENTS.md for deviations).
    best_counterpart = min(points["AIG"][1], points["CST"][1])
    assert points["MIG"][1] <= 1.15 * best_counterpart
