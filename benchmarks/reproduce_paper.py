#!/usr/bin/env python3
"""Reproduce the paper's Table I, Figs. 3-4 and headline numbers.

Runs one Table I row per benchmark of the suite at ``rounds=1``
(:func:`repro.flows.run_table1`: MIGhty and ``resyn2`` optimize each
circuit once; the optimized networks are measured for the top half and
mapped for the bottom half), prints both tables, the paper-vs-measured
headline and the per-pass trace of the largest circuit, then runs two
ablations and the large compression circuit (Section V-A.2):

* reshape rules: the paper's algebraic flow (``boolean_rewrite=False``)
  with subsets of the reshape rule list, on four circuits;
* MAJ3/MIN3 cells: the rows' optimized MIGs mapped with and without the
  majority cells;
* the 192-block compression circuit through MIGhty and ``resyn2``.

Every number it computes is written to ``BENCH_table1.json`` at the
repository root.  The file holds results only (no runtimes, no host),
so a change that moves any Table I number shows up in its diff.  The
script fails if a shape of the paper's result does not hold.

    PYTHONPATH=src python benchmarks/reproduce_paper.py
"""

import argparse
import json
import sys
import time
from pathlib import Path

from repro.aig.aig import Aig
from repro.aig.resyn import resyn2
from repro.bench_circuits import build_benchmark, build_compression_circuit
from repro.core import RESHAPE_RULES
from repro.core.mig import Mig
from repro.flows import (
    format_pass_metrics,
    format_table1,
    mighty_optimize,
    run_table1,
    summarize_table1,
)
from repro.mapping import map_mig, nand_nor_library
from repro.parallel.corpus import structural_row

JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_table1.json"
ROUNDS = 1

#: Paper value of each headline comparison, in percent (negative = MIG smaller).
PAPER_HEADLINE = {
    "depth_vs_aig": -18.6,
    "depth_vs_bdd": -23.7,
    "delay": -22.0,
    "area": -14.0,
    "power": -11.0,
}

RESHAPE_SUBSET = ["alu4", "my_adder", "count", "misex3"]
COMPRESSION_BLOCKS = 192


def _without(*dropped):
    return tuple(rule for rule in RESHAPE_RULES if rule not in dropped)


#: Reshape rule lists of the ablation; "full" is the shipped default.
RESHAPE_CONFIGS = {
    "full": RESHAPE_RULES,
    "no_relevance": _without("Ψ.R"),
    "no_substitution": _without("Ψ.S"),
    "no_complementary": _without("Ψ.C"),
    "associativity_only": _without("Ψ.R", "Ψ.S", "Ψ.C"),
}


def reshape_ablation():
    """Average depth and size of the algebraic flow per reshape rule list."""
    results = {}
    for config, rules in RESHAPE_CONFIGS.items():
        depths, sizes = [], []
        for name in RESHAPE_SUBSET:
            mig = build_benchmark(name, Mig)
            mighty_optimize(
                mig, rounds=1, depth_effort=1, reshape_rules=rules, boolean_rewrite=False
            )
            depths.append(mig.depth())
            sizes.append(mig.num_gates)
        results[config] = {
            "avg_depth": sum(depths) / len(depths),
            "avg_size": sum(sizes) / len(sizes),
        }
    return {"benchmarks": RESHAPE_SUBSET, "configs": results}


def library_ablation(rows):
    """Average area and delay of the rows' MIGs with and without MAJ3/MIN3."""
    library = nand_nor_library()
    without = [map_mig(row.mig_network, library) for row in rows]
    return {
        "with_maj_cells": {
            "avg_area_um2": sum(r.mig_mapped.area_um2 for r in rows) / len(rows),
            "avg_delay_ns": sum(r.mig_mapped.delay_ns for r in rows) / len(rows),
        },
        "without_maj_cells": {
            "avg_area_um2": sum(n.area() for n in without) / len(rows),
            "avg_delay_ns": sum(n.delay() for n in without) / len(rows),
        },
    }


def compression_row():
    """MIGhty vs ``resyn2`` on the compression circuit; runtimes are printed."""
    mig = build_compression_circuit(COMPRESSION_BLOCKS, Mig)
    start = time.perf_counter()
    aig, _ = resyn2(build_compression_circuit(COMPRESSION_BLOCKS, Aig))
    aig_s = time.perf_counter() - start
    start = time.perf_counter()
    mighty_optimize(mig, rounds=1)
    mig_s = time.perf_counter() - start
    print(f"  AIG : {aig.num_gates} nodes, {aig.depth()} levels, {aig_s:.1f}s")
    print(f"  MIG : {mig.num_gates} nodes, {mig.depth()} levels, {mig_s:.1f}s")
    return {
        "blocks": COMPRESSION_BLOCKS,
        "mig": {"size": mig.num_gates, "depth": mig.depth()},
        "aig": {"size": aig.num_gates, "depth": aig.depth()},
    }


def shape_checks(rows, summary, fig3, fig4, reshape, library, compression):
    """The paper's result shapes as ``(label, holds)`` pairs."""
    best_delay = min(summary.avg_delay["AIG"], summary.avg_delay["CST"])
    checks = [
        (f"{r.name}: MIG size, depth, area and delay > 0",
         r.mig.size > 0 and r.mig.depth > 0
         and r.mig_mapped.area_um2 > 0 and r.mig_mapped.delay_ns > 0)
        for r in rows
    ]
    checks += [
        ("Table I: MIG avg depth <= AIG", summary.avg_depth["MIG"] <= summary.avg_depth["AIG"]),
        ("Table I: MIG avg depth <= BDD", summary.avg_depth["MIG"] <= summary.avg_depth["BDD"]),
        ("Table I: MIG avg delay <= 1.2x best of AIG/CST",
         summary.avg_delay["MIG"] <= 1.2 * best_delay),
        ("Fig. 3: MIG depth <= AIG", fig3["MIG"][1] <= fig3["AIG"][1]),
        ("Fig. 3: MIG depth <= BDD", fig3["MIG"][1] <= fig3["BDD"][1]),
        ("Fig. 4: MIG delay <= 1.15x best of AIG/CST",
         fig4["MIG"][1] <= 1.15 * min(fig4["AIG"][1], fig4["CST"][1])),
        ("headline: depth improvement vs AIG >= 0", summary.depth_improvement_vs_aig >= 0.0),
        ("headline: delay improvement >= 0", summary.delay_improvement >= 0.0),
        ("compression: MIG depth <= AIG", compression["mig"]["depth"] <= compression["aig"]["depth"]),
    ]
    checks += [
        (f"reshape ablation [{config}]: avg depth > 0", values["avg_depth"] > 0)
        for config, values in reshape["configs"].items()
    ]
    checks += [
        (f"library ablation [{name}]: avg area > 0", values["avg_area_um2"] > 0)
        for name, values in library.items()
    ]
    return checks


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.parse_args(argv)
    started = time.perf_counter()

    rows = run_table1(rounds=ROUNDS)
    rows_s = time.perf_counter() - started
    summary = summarize_table1(rows)
    print(format_table1(rows))
    largest = max(rows, key=lambda r: r.mig.size)
    print()
    print(format_pass_metrics(largest.mig_passes, title=f"MIGhty passes on {largest.name}"))

    measured = {
        "depth_vs_aig": -summary.depth_improvement_vs_aig,
        "depth_vs_bdd": -summary.depth_improvement_vs_bdd,
        "delay": -summary.delay_improvement,
        "area": -summary.area_improvement,
        "power": -summary.power_improvement,
    }
    headline = {
        "mig_size": sum(r.mig.size for r in rows),
        "mig_depth": sum(r.mig.depth for r in rows),
        "aig_size": sum(r.aig.size for r in rows),
        "aig_depth": sum(r.aig.depth for r in rows),
        "percent": {
            key: {"paper": PAPER_HEADLINE[key], "measured": value}
            for key, value in measured.items()
        },
    }
    print()
    print(
        f"Headline (paper -> measured): MIG {headline['mig_size']} gates / "
        f"{headline['mig_depth']} levels, AIG {headline['aig_size']} / "
        f"{headline['aig_depth']}"
    )
    for key, value in measured.items():
        print(f"  {key:<13s}: {PAPER_HEADLINE[key]:+6.1f}%  -> {value:+.1f}%")

    fig3 = {
        flow: [summary.avg_size[flow], summary.avg_depth[flow], summary.avg_activity[flow]]
        for flow in ("MIG", "AIG", "BDD")
    }
    fig4 = {
        flow: [summary.avg_area[flow], summary.avg_delay[flow], summary.avg_power[flow]]
        for flow in ("MIG", "AIG", "CST")
    }
    reshape = reshape_ablation()
    library = library_ablation(rows)
    print()
    print("Reshape-rule ablation (avg depth, avg size):")
    for config, values in reshape["configs"].items():
        print(f"  {config:<19s}: {values['avg_depth']:6.2f} {values['avg_size']:8.1f}")
    print("Library ablation (avg area um2, avg delay ns):")
    for name, values in library.items():
        print(f"  {name:<19s}: {values['avg_area_um2']:8.2f} {values['avg_delay_ns']:6.3f}")
    print(f"Compression circuit, {COMPRESSION_BLOCKS} blocks "
          "(paper: MIG +1.7% size, -9.6% levels, ~2x runtime):")
    compression = compression_row()

    averages = {
        key: value for key, value in vars(summary).items() if key != "avg_runtime"
    }
    report = {
        "rounds": ROUNDS,
        "rows": [structural_row(row.as_dict()) for row in rows],
        "summary": averages,
        "headline": headline,
        "fig3_size_depth_activity": fig3,
        "fig4_area_delay_power": fig4,
        "ablation_reshape": reshape,
        "ablation_library": library,
        "compression": compression,
    }
    with open(JSON_PATH, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True, ensure_ascii=False)
        handle.write("\n")

    checks = shape_checks(rows, summary, fig3, fig4, reshape, library, compression)
    failed = [label for label, holds in checks if not holds]
    print()
    print(f"{len(checks) - len(failed)}/{len(checks)} shape checks hold; "
          f"wrote {JSON_PATH.name}; Table I rows {rows_s:.1f}s, "
          f"total {time.perf_counter() - started:.1f}s")
    for label in failed:
        print(f"  FAILED: {label}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
