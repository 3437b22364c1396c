"""E8a — ablation: which reshape rules matter (Section IV design choices).

The size/depth optimizers rely on the reshape process (Ω.A, Ψ.C, Ψ.R, Ψ.S)
to escape local minima.  This ablation runs the depth-oriented MIG flow
with subsets of the reshape rule list and reports the resulting average
depth and size, quantifying each rule's contribution.
"""

import pytest

from repro.bench_circuits import build_benchmark
from repro.core import RESHAPE_RULES
from repro.core.mig import Mig
from repro.flows import mighty_optimize

_SUBSET = ["alu4", "my_adder", "count", "misex3"]


def _without(*dropped):
    return tuple(rule for rule in RESHAPE_RULES if rule not in dropped)


# "full" is the shipped default rule list.
_CONFIGS = {
    "full": RESHAPE_RULES,
    "no_relevance": _without("Ψ.R"),
    "no_substitution": _without("Ψ.S"),
    "no_complementary": _without("Ψ.C"),
    "associativity_only": _without("Ψ.R", "Ψ.S", "Ψ.C"),
}


@pytest.mark.parametrize("config_name", list(_CONFIGS))
def test_reshape_ablation(benchmark, config_name):
    """Average depth/size of the MIG flow with a reshape-rule subset."""
    rules = _CONFIGS[config_name]

    def run():
        depths, sizes = [], []
        for name in _SUBSET:
            mig = build_benchmark(name, Mig)
            mighty_optimize(mig, rounds=1, depth_effort=1, reshape_rules=rules)
            depths.append(mig.depth())
            sizes.append(mig.num_gates)
        return sum(depths) / len(depths), sum(sizes) / len(sizes)

    avg_depth, avg_size = benchmark.pedantic(run, iterations=1, rounds=1)
    print(f"\nreshape ablation [{config_name}]: avg depth {avg_depth:.2f}, avg size {avg_size:.1f}")
    benchmark.extra_info["avg_depth"] = round(avg_depth, 2)
    benchmark.extra_info["avg_size"] = round(avg_size, 1)
    assert avg_depth > 0
