"""E8b — ablation: value of the MAJ3 / MIN3 standard cells (Section V-B).

The paper attributes part of the synthesis gains to "the presence of MAJ-3
and MIN-3 gates in the standard-cell library [which] allows us to natively
recognize and preserve MIG nodes".  This ablation maps the same optimized
MIGs with and without majority cells in the library and compares the
resulting area / delay.
"""

import pytest

from repro.bench_circuits import build_benchmark
from repro.core.mig import Mig
from repro.flows import mighty_optimize
from repro.mapping import default_library, map_mig, nand_nor_library

_SUBSET = ["alu4", "my_adder", "count", "misex3", "C1908"]


@pytest.mark.parametrize(
    "library_name,library_factory",
    [("with_maj_cells", default_library), ("without_maj_cells", nand_nor_library)],
)
def test_library_ablation(benchmark, library_name, library_factory):
    """Map the optimized MIGs with/without MAJ3-MIN3 cells."""
    library = library_factory()

    def run():
        area = delay = 0.0
        for name in _SUBSET:
            mig = build_benchmark(name, Mig)
            mighty_optimize(mig, rounds=1)
            netlist = map_mig(mig, library)
            area += netlist.area()
            delay += netlist.delay()
        return area / len(_SUBSET), delay / len(_SUBSET)

    avg_area, avg_delay = benchmark.pedantic(run, iterations=1, rounds=1)
    print(f"\nlibrary ablation [{library_name}]: avg area {avg_area:.2f} um2, avg delay {avg_delay:.3f} ns")
    benchmark.extra_info["avg_area_um2"] = round(avg_area, 2)
    benchmark.extra_info["avg_delay_ns"] = round(avg_delay, 3)
    assert avg_area > 0
