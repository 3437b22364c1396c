"""Golden structural fingerprints of the two Table I flows.

Kernel speed-ups (cut enumeration, rewrite dry runs, gate creation) must
not change any optimization result.  These pins hold the exact optimized
structure — node ids, fanin tuples, complement bits — of the MIGhty flow
at the benchmark settings (``rounds=1, depth_effort=1``) and of the AIG
``resyn2`` script on five fast Table I circuits; any drift in a decision
of either flow changes a fingerprint here.
"""

import pytest

from repro.aig import Aig
from repro.aig.resyn import resyn2
from repro.bench_circuits import build_benchmark
from repro.core import Mig
from repro.flows import mighty_optimize
from repro.parallel.corpus import structural_fingerprint

#: name -> (size, depth, structural fingerprint) after mighty_optimize.
MIGHTY = {
    "alu4": (76, 12, "5ebd180420c4d65d89f4533a02493d243edaa8f83a5f39a71ca55f31cd1be833"),
    "b9": (190, 7, "79ab67640747fdae0535b7c4bb8772d5d57239c9bf32880111a2a67dabe6b2aa"),
    "count": (180, 9, "69f772b87c2293de377bb1c30c400850d403ad0056815514ef3624242b00e302"),
    "dalu": (299, 23, "34309852ca1adec79a4ef1f60651099485b5cfdb2d18ce2886969fd8acf568cc"),
    "misex3": (301, 8, "72c9ec7749aeec9246551a6a22518fd30bbf11e6400c4a262dae01d7c9b7458c"),
}

#: name -> (size, depth, structural fingerprint) after resyn2.
RESYN2 = {
    "alu4": (79, 16, "523de352616146f06ba0d1a9bdd762cb114b4e9a3bc4328f9a34c6f79898cda9"),
    "b9": (190, 6, "8d8da5279bf3e36015ef17aadbb1b538be645e09cd0641c199268ac2fca212ca"),
    "count": (200, 11, "d85a17aafbe8ef439a1fcf911400033e80aa2223bd8c178ea843773f93b145b6"),
    "dalu": (329, 39, "f9468ab6cf1aab804022d763ef4bc63438ea091ca4b8ac993cad03ec280c8669"),
    "misex3": (300, 8, "680ab102fe52f603c06b71c9d31c019b2977240549b3635f934e83584997ca22"),
}


@pytest.mark.parametrize("name", sorted(MIGHTY))
def test_mighty_fingerprint(name):
    mig = build_benchmark(name, Mig)
    mighty_optimize(mig, rounds=1, depth_effort=1)
    assert (mig.num_gates, mig.depth(), structural_fingerprint(mig)) == MIGHTY[name]


@pytest.mark.parametrize("name", sorted(RESYN2))
def test_resyn2_fingerprint(name):
    optimized, _ = resyn2(build_benchmark(name, Aig))
    assert (
        optimized.num_gates, optimized.depth(), structural_fingerprint(optimized)
    ) == RESYN2[name]
