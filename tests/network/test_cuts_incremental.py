"""Property/fuzz tests for the incremental cut engine (:class:`CutManager`).

The manager's core invariant: after *any* sequence of in-place edits, the
cut list it reports for every live PO-reachable node — leaves *and* truth
tables, in order — equals a from-scratch :func:`enumerate_cuts` of the
current network: the packed lists compare equal.  The tests drive that
invariant through seeded single-gate mutation sequences, real rewrite
rounds, substitution-heavy optimizer passes, PO redirects and wholesale ``assign_from`` resets, over
both MIG and AIG forges, and additionally prove the incremental rewrite
path bit-identical to the from-scratch one.
"""

import gc
import weakref

import pytest

from repro.aig.rewrite import rewrite_aig_inplace
from repro.core import rewrite_mig
from repro.core.generation import mutate_network
from repro.network.cuts import CutManager, _unpack, enumerate_cuts


def _assert_cuts_match_scratch(net, manager):
    """Incremental cuts == from-scratch cuts on every PO-reachable node.

    The packed lists are compared whole: same cuts, same order, same
    tables and signatures.  Both build signatures in the same code, so
    every signature, the implicit trivial cut's included, is also rebuilt
    from its leaves."""
    actual = manager.cuts()
    expected = enumerate_cuts(net, k=manager.k, cut_limit=manager.cut_limit)
    nodes = set(net._topology()) | set(net.pi_nodes())
    for node in nodes:
        assert actual[node] is not None, f"node {node} missing from incremental cuts"
        assert actual[node] == expected[node], f"cut mismatch at node {node}"
    for node, packed in enumerate(actual):
        if packed is not None:
            assert not net._dead[node], f"cache still holds dead node {node}"
            for leaves, sign, _table in _unpack(packed, node):
                expected_sign = 0
                for leaf in leaves:
                    expected_sign |= 1 << (leaf & 31)
                assert sign == expected_sign, f"stale signature at node {node}"


def _check_mutation_sequence(network_forge, kind, seed, k, cut_limit):
    net = network_forge(
        kind=kind, gate_mix="mixed", num_pis=7, num_gates=60, num_pos=5, seed=seed
    )
    manager = CutManager.for_network(net, k=k, cut_limit=cut_limit)
    _assert_cuts_match_scratch(net, manager)
    for step in range(12):
        mutate_network(net, seed=1000 * seed + step, in_place=True)
        _assert_cuts_match_scratch(net, manager)


@pytest.mark.parametrize("kind", ["mig", "aig"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cuts_match_scratch_after_mutation_sequences(network_forge, kind, seed):
    _check_mutation_sequence(network_forge, kind, seed, k=4, cut_limit=8)


@pytest.mark.parametrize("kind", ["mig", "aig"])
@pytest.mark.parametrize("seed", [1, 2])
def test_mapper_cut_setting_matches_scratch_after_mutations(network_forge, kind, seed):
    """The ``k=3, cut_limit=6`` setting the technology mapper enumerates."""
    _check_mutation_sequence(network_forge, kind, seed, k=3, cut_limit=6)


@pytest.mark.parametrize("kind", ["mig", "aig"])
@pytest.mark.parametrize("seed", [4, 5])
def test_cuts_match_scratch_after_rewrite_rounds(network_forge, kind, seed):
    net = network_forge(
        kind=kind, gate_mix="mixed", num_pis=8, num_gates=120, num_pos=8, seed=seed
    )
    if kind == "mig":
        manager = CutManager.for_network(net, k=4, cut_limit=6)
        for _ in range(3):
            rewrite_mig(net)
            _assert_cuts_match_scratch(net, manager)
    else:
        manager = CutManager.for_network(net, k=4, cut_limit=8)
        for _ in range(3):
            rewrite_aig_inplace(net)
            _assert_cuts_match_scratch(net, manager)


@pytest.mark.parametrize("seed", [6, 7])
def test_cuts_match_scratch_after_optimizer_passes(network_forge, seed):
    from repro.core.size_opt import optimize_size

    net = network_forge(
        kind="mig", gate_mix="maj", num_pis=7, num_gates=80, num_pos=6, seed=seed
    )
    manager = CutManager.for_network(net, k=4, cut_limit=8)
    manager.cuts()
    optimize_size(net, effort=1)
    _assert_cuts_match_scratch(net, manager)


def test_cuts_match_scratch_after_po_redirect(network_forge):
    from repro.core.signal import make_signal

    net = network_forge(kind="mig", num_pis=6, num_gates=40, num_pos=2, seed=11)
    manager = CutManager.for_network(net, k=4, cut_limit=8)
    manager.cuts()
    # Redirect a PO onto an interior gate: reachability changes, and nodes
    # that fell out of (or came back into) the reachable region must still
    # report from-scratch-identical cuts.
    gates = list(net.topological_order())
    net.set_po(0, make_signal(gates[len(gates) // 2]))
    net.cleanup()
    _assert_cuts_match_scratch(net, manager)
    net.add_po(make_signal(gates[0]), "extra")
    _assert_cuts_match_scratch(net, manager)


def test_manager_resets_on_assign_from(network_forge):
    net = network_forge(kind="mig", num_pis=6, num_gates=40, num_pos=3, seed=21)
    other = network_forge(kind="mig", num_pis=5, num_gates=30, num_pos=2, seed=22)
    manager = CutManager.for_network(net, k=4, cut_limit=8)
    manager.cuts()
    net.assign_from(other)
    _assert_cuts_match_scratch(net, manager)


@pytest.mark.parametrize("kind", ["mig", "aig"])
def test_incremental_rewrite_bit_identical_to_scratch(network_forge, kind):
    """Multi-round incremental rewriting must reproduce the from-scratch
    result exactly: same node ids, same fanins, same PO signals."""

    def dump(net):
        return (
            tuple(net.po_signals()),
            tuple((n, net._fanins[n]) for n in net.topological_order()),
        )

    def sweep(net, incremental):
        if kind == "mig":
            return rewrite_mig(net, incremental=incremental)
        return rewrite_aig_inplace(net, incremental=incremental)

    for seed in (31, 32):
        a = network_forge(
            kind=kind, gate_mix="mixed", num_pis=8, num_gates=150, num_pos=8, seed=seed
        )
        b = network_forge(
            kind=kind, gate_mix="mixed", num_pis=8, num_gates=150, num_pos=8, seed=seed
        )
        for _ in range(4):
            sweep(a, True)
            sweep(b, False)
        assert dump(a) == dump(b)


def test_converged_sweep_is_skipped(network_forge):
    net = network_forge(kind="mig", gate_mix="mixed", num_pis=7, num_gates=80, seed=41)
    stats = rewrite_mig(net)
    while stats["rewrites"] or stats["aliased"]:
        stats = rewrite_mig(net)
    serial = net._mutation_serial
    stats = rewrite_mig(net)
    assert stats["converged_skip"] == 1
    assert stats["cut_nodes_recomputed"] == 0
    assert net._mutation_serial == serial, "skipped sweep must not touch the network"
    # Any structural change re-arms the sweep.
    mutate_network(net, seed=42, in_place=True)
    stats = rewrite_mig(net)
    assert stats["converged_skip"] == 0


def test_reuse_counters_report_incrementality(network_forge):
    net = network_forge(
        kind="mig", gate_mix="mixed", num_pis=8, num_gates=200, num_pos=10, seed=51
    )
    first = rewrite_mig(net)
    assert first["cut_nodes_reused"] == 0 and first["cut_nodes_recomputed"] > 0
    second = rewrite_mig(net)
    if not second["converged_skip"]:
        assert second["cut_nodes_reused"] > 0
        assert second["cut_nodes_recomputed"] < first["cut_nodes_recomputed"]


def test_rebuild_wrappers_release_cut_state(network_forge):
    """One-shot rewrite()/refactor() results must not pin a cut cache."""
    from repro.aig.rewrite import refactor, rewrite

    aig = network_forge(kind="aig", gate_mix="mixed", num_pis=7, num_gates=60, seed=71)
    for wrapper in (rewrite, refactor):
        result = wrapper(aig)
        assert not result.__dict__.get("_cut_managers")
        assert "_dry_probe_cache" not in result.__dict__
        assert not result._mutation_listeners


@pytest.mark.parametrize("boolean_rewrite", [True, False])
def test_mighty_optimize_releases_cut_state(network_forge, boolean_rewrite):
    """A finished MIGhty run leaves no cut manager or listener behind."""
    from repro.flows import mighty_optimize

    mig = network_forge(kind="mig", gate_mix="mixed", num_pis=8, num_gates=120, seed=73)
    mighty_optimize(mig, rounds=2, depth_effort=1, boolean_rewrite=boolean_rewrite)
    assert not mig.__dict__.get("_cut_managers")
    assert not mig._mutation_listeners


def test_optimized_network_is_freed_by_reference_counting(network_forge):
    """With the cyclic collector off, dropping the last reference to an
    optimized network frees it at once: nothing forms a cycle with it."""
    from repro.flows import mighty_optimize

    mig = network_forge(kind="mig", gate_mix="mixed", num_pis=8, num_gates=120, seed=74)
    gc.collect()
    gc.disable()
    try:
        mighty_optimize(mig, rounds=1, depth_effort=1)
        ref = weakref.ref(mig)
        del mig
        assert ref() is None
    finally:
        gc.enable()


def test_for_network_shares_and_detach_releases(network_forge):
    net = network_forge(kind="mig", num_pis=6, num_gates=30, seed=61)
    manager = CutManager.for_network(net, k=4, cut_limit=8)
    assert CutManager.for_network(net, k=4, cut_limit=8) is manager
    assert CutManager.for_network(net, k=3, cut_limit=6) is not manager
    manager.detach()
    assert CutManager.for_network(net, k=4, cut_limit=8) is not manager
    # A detached manager no longer receives events.
    mutate_network(net, seed=62, in_place=True)
    assert not manager._dirty


def test_cut_store_footprint():
    """The manager's store is one packed array per live node — no object
    per cut — and stays under a per-node byte ceiling (about 125 B per
    node here; a list of per-cut objects takes about 700)."""
    import sys
    from array import array

    from repro.bench_circuits.generator import gen_random_logic
    from repro.core import Mig

    net = Mig()
    gen_random_logic(net, blocks=20)
    store = CutManager.for_network(net, k=4, cut_limit=8).cuts()
    live = len(net._topology()) + net.num_pis
    containers = {id(packed): packed for packed in store if packed is not None}
    assert len(containers) <= live
    assert all(type(packed) is array for packed in containers.values())
    total = sys.getsizeof(store) + sum(sys.getsizeof(p) for p in containers.values())
    assert total <= 200 * live, f"{total / live:.0f} B per node"
