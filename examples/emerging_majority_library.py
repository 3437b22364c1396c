#!/usr/bin/env python3
"""Emerging-technology scenario: how much do native majority cells buy?

The introduction of the paper motivates MIGs with nanotechnologies that
implement majority gates natively.  This example quantifies that argument
within the CMOS flow shipped here: it optimizes a few benchmarks with the
MIGhty flow and maps them twice — once with the MAJ3/MIN3 cells available
and once with a NAND/NOR-only library — then reports the area/delay gap.

Run with ``python examples/emerging_majority_library.py``.
"""

from repro.bench_circuits import build_benchmark
from repro.core.mig import Mig
from repro.flows import mighty_optimize
from repro.mapping import default_library, map_mig, nand_nor_library


def main() -> None:
    maj_library = default_library()
    nand_library = nand_nor_library()
    benchmarks = ["my_adder", "alu4", "count", "C1908"]

    print(f"{'benchmark':<10s} {'with MAJ3 (area/delay)':>26s} {'without MAJ3 (area/delay)':>28s}")
    total_with = total_without = 0.0
    for name in benchmarks:
        mig = build_benchmark(name, Mig)
        mighty_optimize(mig, rounds=1)
        with_maj = map_mig(mig, maj_library)
        without_maj = map_mig(mig, nand_library)
        total_with += with_maj.area()
        total_without += without_maj.area()
        print(
            f"{name:<10s} {with_maj.area():>14.2f} / {with_maj.delay():>7.3f}"
            f" {without_maj.area():>16.2f} / {without_maj.delay():>7.3f}"
        )
    saving = 100.0 * (total_without - total_with) / total_without
    print(f"\nArea saved by native majority cells: {saving:.1f}% "
          f"(the emerging-technology argument of Section I)")


if __name__ == "__main__":
    main()
