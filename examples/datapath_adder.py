#!/usr/bin/env python3
"""Datapath scenario: depth optimization of adder carry chains.

The paper highlights datapath circuits as the place "where majority logic
is dominant" and its biggest Table I win is the ripple-carry adder
(``my_adder``: 33 → 19 logic levels).  This example builds the 16-bit adder
benchmark as a MIG and as an AIG, runs both flows, and compares the depth
and the mapped delay — the end-to-end story of the paper on one circuit.

Run with ``python examples/datapath_adder.py``.
"""

from repro.aig.aig import Aig
from repro.aig.resyn import resyn2
from repro.bench_circuits import build_benchmark
from repro.core.mig import Mig
from repro.flows import mighty_optimize
from repro.mapping import default_library, map_aig, map_mig
from repro.verify import check_equivalence


def main() -> None:
    library = default_library()

    mig = build_benchmark("my_adder", Mig)
    aig = build_benchmark("my_adder", Aig)
    reference = build_benchmark("my_adder", Mig)
    print(f"my_adder as MIG: {mig.num_gates} nodes, {mig.depth()} levels")
    print(f"my_adder as AIG: {aig.num_gates} nodes, {aig.depth()} levels")

    mighty_optimize(mig, rounds=2)
    optimized_aig, _ = resyn2(aig)
    print(f"\nMIGhty flow   : {mig.num_gates} nodes, {mig.depth()} levels")
    print(f"resyn2 flow   : {optimized_aig.num_gates} nodes, {optimized_aig.depth()} levels")
    print(f"MIG function preserved: {check_equivalence(mig, reference).equivalent}")

    mig_netlist = map_mig(mig, library)
    aig_netlist = map_aig(optimized_aig, library)
    print("\nAfter technology mapping (same library, same mapper):")
    print(
        f"  MIG flow: area {mig_netlist.area():.2f} um2, "
        f"delay {mig_netlist.delay():.3f} ns, power {mig_netlist.power():.1f} uW"
    )
    print(
        f"  AIG flow: area {aig_netlist.area():.2f} um2, "
        f"delay {aig_netlist.delay():.3f} ns, power {aig_netlist.power():.1f} uW"
    )
    faster = "MIG" if mig_netlist.delay() <= aig_netlist.delay() else "AIG"
    print(f"\nFastest netlist on this datapath circuit: {faster} flow")


if __name__ == "__main__":
    main()
