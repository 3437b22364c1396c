"""Tests for k-feasible cut enumeration over the shared network kernel."""

import random

import pytest

from repro.aig.aig import Aig
from repro.aig.rewrite import rewrite_aig_inplace
from repro.core import Mig, mutate_network, random_aoig_mig, random_mig, rewrite_mig
from repro.core.signal import CONST_NODE, make_signal, node_of
from repro.network import mig_to_aig
from repro.network.cuts import CutManager, cut_cone, enumerate_cuts, mffc_nodes


def _brute_force_table(net, root, leaves):
    """Truth table of ``root`` over ``leaves`` by direct cone evaluation.

    Gates are evaluated by the simulator's per-kind program loop, not by
    the ``_gate_value`` hook the cut enumerator merges with."""
    num_leaves = len(leaves)
    mask = (1 << (1 << num_leaves)) - 1
    values = {CONST_NODE: 0}
    for index, leaf in enumerate(leaves):
        pattern = 0
        block = (1 << (1 << index)) - 1
        period = 1 << (index + 1)
        for start in range(1 << index, 1 << num_leaves, period):
            pattern |= block << start
        values[leaf] = pattern

    order = []
    seen = set(values)

    def visit(node):
        if node not in seen:
            seen.add(node)
            for fanin in net._fanins[node]:
                visit(node_of(fanin))
            order.append(node)

    visit(root)
    net._simulate_program([(node, *net._fanins[node]) for node in order], values, mask)
    return values[root]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_mig_cut_tables_match_cone_simulation(seed):
    mig = random_mig(6, 30, num_pos=4, seed=seed)
    cuts = enumerate_cuts(mig, k=4, cut_limit=8)
    checked = 0
    for node in mig.topological_order():
        for cut in cuts[node]:
            assert 1 <= len(cut.leaves) <= 4
            assert cut.leaves == tuple(sorted(cut.leaves))
            if cut.leaves == (node,):
                assert cut.table == 0b10
                continue
            assert cut.table == _brute_force_table(mig, node, cut.leaves)
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("seed", [4, 5])
def test_aig_cut_tables_match_cone_simulation(seed):
    aig = mig_to_aig(random_aoig_mig(6, 30, num_pos=3, seed=seed))
    cuts = enumerate_cuts(aig, k=4, cut_limit=8)
    for node in aig.topological_order():
        for cut in cuts[node]:
            if cut.leaves == (node,):
                continue
            assert cut.table == _brute_force_table(aig, node, cut.leaves)


def _assert_tables_match_cone_simulation(net, cuts):
    for node in net.topological_order():
        for cut in cuts[node]:
            if cut.leaves == (node,):
                assert cut.table == 0b10
                continue
            assert cut.table == _brute_force_table(net, node, cut.leaves), (node, cut)


@pytest.mark.parametrize("kind", ["mig", "aig"])
@pytest.mark.parametrize("seed", [21, 22])
def test_manager_cut_tables_match_cone_simulation_after_edits(network_forge, kind, seed):
    """The cone-simulation oracle on networks edited in place (mutations,
    substitutions, rewrite sweeps), read through the incremental manager."""
    net = network_forge(
        kind=kind, gate_mix="mixed", num_pis=7, num_gates=60, num_pos=5, seed=seed
    )
    manager = CutManager.for_network(net, k=4, cut_limit=8)
    manager.cuts()
    rng = random.Random(seed)
    sweep = rewrite_mig if kind == "mig" else rewrite_aig_inplace
    for step in range(9):
        if step % 3 == 0:
            sweep(net)
        elif step % 3 == 1:
            mutate_network(net, seed=rng.randrange(1 << 30), in_place=True)
        else:
            gates = net.topological_order()
            node = gates[rng.randrange(len(gates))]
            net.substitute(node, make_signal(rng.choice(net.pi_nodes()), rng.randrange(2)))
        _assert_tables_match_cone_simulation(net, manager.cuts())


def test_every_gate_keeps_its_trivial_cut():
    mig = random_mig(5, 20, num_pos=2, seed=9)
    cuts = enumerate_cuts(mig, k=3, cut_limit=2)
    for node in mig.topological_order():
        assert cuts[node][-1].leaves == (node,)


def test_no_dominated_cuts_are_kept():
    mig = random_mig(6, 40, num_pos=4, seed=11)
    cuts = enumerate_cuts(mig, k=4, cut_limit=8)
    for node in mig.topological_order():
        leaf_sets = [set(c.leaves) for c in cuts[node] if c.leaves != (node,)]
        for i, a in enumerate(leaf_sets):
            for j, b in enumerate(leaf_sets):
                if i != j:
                    assert not a < b, f"cut {a} dominates kept cut {b} at {node}"


def test_cut_limit_bounds_cut_count():
    mig = random_mig(7, 60, num_pos=5, seed=13)
    cuts = enumerate_cuts(mig, k=4, cut_limit=3)
    for node in mig.topological_order():
        assert len(cuts[node]) <= 4  # limit + trivial cut


def test_invalid_k_rejected():
    with pytest.raises(ValueError):
        enumerate_cuts(Mig(), k=5)


def test_cut_cone_stops_at_leaves():
    mig = Mig()
    a, b, c = (mig.add_pi(n) for n in "abc")
    inner = mig.maj(a, b, c)
    root_sig = mig.maj(inner, a, b)
    mig.add_po(root_sig, "f")
    root = node_of(root_sig)
    cone = cut_cone(mig, root, (node_of(inner),))
    assert cone == [root]
    cone_full = cut_cone(mig, root, (node_of(a), node_of(b), node_of(c)))
    assert set(cone_full) == {root, node_of(inner)}


def test_mffc_respects_external_references():
    mig = Mig()
    a, b, c, d = (mig.add_pi(n) for n in "abcd")
    shared = mig.maj(a, b, c)
    root_sig = mig.maj(shared, d, a)
    mig.add_po(root_sig, "f")
    root = node_of(root_sig)
    leaves = (node_of(a), node_of(b), node_of(c), node_of(d))
    # shared is only referenced by root: both nodes are in the MFFC.
    assert mffc_nodes(mig, root, leaves) == {root, node_of(shared)}
    # An external reference to `shared` keeps it alive.
    mig.add_po(shared, "g")
    assert mffc_nodes(mig, root, leaves) == {root}


def test_mffc_stops_at_cut_leaves():
    mig = Mig()
    a, b, c, d = (mig.add_pi(n) for n in "abcd")
    inner = mig.maj(a, b, c)
    mid = mig.maj(inner, d, a)
    root_sig = mig.maj(mid, b, c)
    mig.add_po(root_sig, "f")
    root = node_of(root_sig)
    # Cutting at `inner` keeps its cone out of the MFFC.
    mffc = mffc_nodes(mig, root, (node_of(inner), *(node_of(s) for s in (a, b, c, d))))
    assert node_of(inner) not in mffc
    assert mffc == {root, node_of(mid)}
