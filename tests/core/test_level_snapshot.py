"""Guards of the level snapshot the Ω/Ψ hot loops read.

``reshape`` and ``push_up`` copy the kernel's incrementally maintained
``_level`` array instead of calling :meth:`LogicNetwork.levels`, which
re-runs a PO-reachability DFS after every substitution.  The copy equals
``levels()`` on every live node whenever the network has no dangling
nodes, which holds at the entry of each pass; these tests pin that
condition, the absence of topology rebuilds, and golden results.
"""

import pytest

from repro.bench_circuits.generator import gen_random_logic
from repro.bench_circuits.suite import build_benchmark
from repro.core import Mig, optimize_depth, optimize_size
from repro.core.depth_opt import push_up
from repro.core.reshape import reshape
from repro.core.size_opt import eliminate
from repro.network.base import LogicNetwork
from repro.parallel.corpus import structural_fingerprint


def live_levels(mig):
    """``_level`` with dead slots reported as 0 (their entry is stale)."""
    return [0 if mig.is_dead(node) else level for node, level in enumerate(mig._level)]


def test_reshape_never_rebuilds_topology(monkeypatch):
    mig = Mig()
    gen_random_logic(mig, blocks=40)
    rebuilds = []
    original = LogicNetwork._rebuild_topology

    def counting_rebuild(self):
        rebuilds.append(self)
        original(self)

    monkeypatch.setattr(LogicNetwork, "_rebuild_topology", counting_rebuild)
    rewrites = reshape(mig)
    assert rewrites >= 64  # at least one mid-pass snapshot refresh
    assert rebuilds == []


@pytest.mark.parametrize("gate_mix", ["aoig", "maj", "mixed"])
@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_level_snapshot_equals_levels_at_pass_entry(network_forge, gate_mix, seed):
    mig = network_forge(
        kind="mig", gate_mix=gate_mix, num_pis=8, num_gates=120, num_pos=5, seed=seed
    )
    eliminate(mig)
    assert live_levels(mig) == mig.levels()
    push_up(mig)
    assert live_levels(mig) == mig.levels()


# Results of the levels()-based hot loops, which the snapshot must keep;
# reading ``_level`` live in reshape (no copy, no refresh) changes both.
GOLDEN = {
    "my_adder": (555, 18, "8df71ce512617f0068592aee23a74442895db46409291eaad519c65e903bfe67"),
    "dalu": (1053, 24, "ae4bece0bc78cc633664c481c8edc2b5bab993a9e91df350eb988d01d8f66feb"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_depth_then_size_golden(name):
    mig = build_benchmark(name)
    optimize_depth(mig, effort=1)
    optimize_size(mig, effort=1)
    assert (mig.num_gates, mig.depth(), structural_fingerprint(mig)) == GOLDEN[name]
