"""Guards of the level snapshot the Ω/Ψ hot loops read.

``reshape`` and ``push_up`` copy the kernel's incrementally maintained
level array (:meth:`LogicNetwork.level_snapshot`) instead of calling
:meth:`LogicNetwork.levels`, which re-runs a PO-reachability DFS after
every substitution.  The copy equals
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
from repro.flows import mighty_optimize
from repro.network.base import LogicNetwork
from repro.parallel.corpus import structural_fingerprint


def live_levels(mig):
    """``level_snapshot()`` with dead slots reported as 0 (their entry is stale)."""
    return [0 if mig.is_dead(node) else level for node, level in enumerate(mig.level_snapshot())]


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


# The discarded trajectory: optimize_depth rolls cla back to its input, so
# only the work statistics show whether every level read saw exact levels
# (a read of unsettled labels changes the push-up/reshape counts here
# without changing the returned network).
CLA_DEPTH_OPT = {
    "sizes": (784, 39, 784, 39),
    "rewrites": (1666, 844),
    "depth_per_cycle": [42],
    "fingerprint": "a516c1aaade30038ecb7a9e9c23632927a9993841fa31f707dfea4a4b1b5ffb9",
}


def test_optimize_depth_trajectory_golden():
    mig = build_benchmark("cla")
    stats = optimize_depth(mig, effort=1)
    sizes = (stats.initial_size, stats.initial_depth, stats.final_size, stats.final_depth)
    assert sizes == CLA_DEPTH_OPT["sizes"]
    assert (stats.push_up_rewrites, stats.reshape_rewrites) == CLA_DEPTH_OPT["rewrites"]
    assert stats.depth_per_cycle == CLA_DEPTH_OPT["depth_per_cycle"]
    assert structural_fingerprint(mig) == CLA_DEPTH_OPT["fingerprint"]


def test_single_push_up_golden():
    mig = build_benchmark("cla")
    assert push_up(mig) == 786
    assert (mig.num_gates, mig.depth()) == (1573, 24)
    assert structural_fingerprint(mig) == (
        "4bd1e2eab58200ad458b42628c2b39f2e6371a7b645159fdf2eb915a13fdaf0a"
    )


def test_push_up_then_reshape_golden():
    """reshape refreshes its snapshot mid-pass, after its own rewrites left
    level falls pending; unsettled labels there change this network."""
    mig = build_benchmark("C1908")
    assert (push_up(mig), reshape(mig)) == (980, 657)
    assert (mig.num_gates, mig.depth()) == (3584, 62)
    assert structural_fingerprint(mig) == (
        "64378ae59f80f7bfe395fec339b7be0df6b19a8219a7dcf83c8f635c6a903076"
    )


def test_mighty_pass_trace_golden():
    """Per-pass (size, depth) of one MIGhty round; covers the cut rewriter's
    per-root level reads (``depth_rewrite``, ``mig_rewrite``)."""
    mig = build_benchmark("my_adder")
    result = mighty_optimize(mig, rounds=1)
    trace = [(m.name, m.size_after, m.depth_after) for m in result.pass_metrics]
    assert trace == [
        ("balance", 112, 34),
        ("depth_rewrite", 112, 17),
        ("mig_rewrite", 112, 17),
        ("eliminate", 112, 17),
        ("balance", 112, 17),
        ("mighty_round", 112, 17),
    ]
