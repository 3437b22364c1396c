"""E6 — the headline averages quoted in the paper's abstract.

Paper: "MIG optimization reduces the number of logic levels by 18%, on
average, with respect to AIG optimization performed by ABC" and the
synthesis flow "enables an average reduction of {22%, 14%, 11%} in the
estimated {delay, area, power} metrics".

This bench computes both headline numbers on a representative subset and
prints paper-vs-measured.  When ``REPRO_BENCH_TRACE_JSON`` names a file,
the per-pass metrics traces of both optimizing flows are serialised there
(one JSON record per pass, tagged ``<benchmark>/<flow>``) so CI can upload
them as an artifact and speed trajectories stay diffable across PRs.
"""

import json
import os
import time

import pytest

from repro.flows import (
    format_pass_metrics,
    run_optimization_experiment,
    run_synthesis_experiment,
    summarize_optimization,
    summarize_synthesis,
)

from .conftest import flow_rounds

_SUBSET = ["alu4", "my_adder", "b9", "count", "misex3", "C1908", "dalu"]


def test_headline_summary(benchmark):
    """Compute the abstract's headline percentages on a subset of the suite."""

    def run():
        t0 = time.perf_counter()
        rows = run_optimization_experiment(_SUBSET, rounds=flow_rounds())
        opt_wall = time.perf_counter() - t0
        opt = summarize_optimization(rows)
        t0 = time.perf_counter()
        syn = summarize_synthesis(
            run_synthesis_experiment(_SUBSET, rounds=flow_rounds())
        )
        syn_wall = time.perf_counter() - t0
        return opt, syn, rows, opt_wall, syn_wall

    opt, syn, rows, opt_wall, syn_wall = benchmark.pedantic(run, iterations=1, rounds=1)
    trace_path = os.environ.get("REPRO_BENCH_TRACE_JSON")
    if trace_path:
        records = []
        for row in rows:
            for flow, passes in (("mig", row.mig_passes), ("aig", row.aig_passes)):
                for metrics in passes:
                    record = metrics.as_dict()
                    record["flow"] = f"{row.name}/{flow}"
                    records.append(record)
        with open(trace_path, "w") as handle:
            json.dump(records, handle, indent=2, sort_keys=True)
        print(f"\nPer-pass trace written to {trace_path} ({len(records)} records)")
    print()
    print(
        f"Wall-time: optimization experiment {opt_wall:.2f}s, "
        f"synthesis experiment {syn_wall:.2f}s "
        f"(subset of {len(_SUBSET)} benchmarks)"
    )
    benchmark.extra_info["opt_wall_s"] = round(opt_wall, 2)
    benchmark.extra_info["syn_wall_s"] = round(syn_wall, 2)
    # Per-pass trace of the MIGhty flow on the largest subset member, so
    # the CI log shows where the wall-time goes before/after each pass.
    largest = max(rows, key=lambda r: r.mig.size)
    print()
    print(format_pass_metrics(largest.mig_passes, title=f"MIGhty passes on {largest.name}"))
    print()
    print("Headline results (paper → measured):")
    print(f"  depth vs AIG       : -18.6%  → {-opt.depth_improvement_vs_aig:+.1f}%")
    print(f"  depth vs BDD       : -23.7%  → {-opt.depth_improvement_vs_bdd:+.1f}%")
    print(f"  synthesis delay    : -22%    → {-syn.delay_improvement:+.1f}%")
    print(f"  synthesis area     : -14%    → {-syn.area_improvement:+.1f}%")
    print(f"  synthesis power    : -11%    → {-syn.power_improvement:+.1f}%")
    benchmark.extra_info["depth_vs_aig_percent"] = round(-opt.depth_improvement_vs_aig, 2)
    benchmark.extra_info["delay_vs_best_percent"] = round(-syn.delay_improvement, 2)
    # Shape assertions: depth and delay advantages must point the paper's way.
    assert opt.depth_improvement_vs_aig >= 0.0
    assert syn.delay_improvement >= 0.0
