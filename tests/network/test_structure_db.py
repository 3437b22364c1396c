"""Top-k structure database: Pareto-front invariants and staleness.

Three contracts from the exact-synthesis PR:

* every class's entry list is a strict Pareto front on (size, depth) —
  sizes strictly increase, depths strictly decrease, every entry replays
  to the class function (``get_structure`` stays the size-best head);
* :func:`register_structures` validates semantically before merging and
  bumps the database generation exactly when the front changes;
* ``cut_rewrite``'s convergence skip re-arms when the database changes
  under it (the staleness bugfix: the pre-fix token recorded only the
  network's mutation serial, so a sweep that had converged against the
  old database skipped forever and never saw newly registered
  structures).
"""

import pytest

from repro.core.mig import Mig
from repro.core.signal import CONST_FALSE, CONST_TRUE
from repro.network import npn
from repro.network.npn import (
    DbEntry,
    entry_truth_table,
    get_structure,
    get_structures,
    npn_canonical,
    npn_representatives,
    register_structures,
    replay_structure,
    structure_db_generation,
)
from repro.network.rewrite import cut_rewrite
from repro.synth import SAT, synthesize_exact


@pytest.fixture()
def fresh_db():
    npn.reset_structure_db()
    yield
    npn.reset_structure_db()


def _xor3_rep():
    xor3 = sum(1 << t for t in range(16) if bin(t & 7).count("1") & 1)
    return npn_canonical(xor3)[0]


@pytest.mark.parametrize("kind", ["mig", "aig"])
def test_topk_fronts_are_strict_pareto_and_replay(fresh_db, kind):
    for rep in npn_representatives():
        front = get_structures(kind, rep)
        assert front, f"{rep:#06x}: empty entry list"
        assert front[0] == get_structure(kind, rep)
        for entry in front:
            assert entry_truth_table(entry) == rep
            assert entry.size == len(entry.ops)
            assert entry.depth == npn._entry_depth(entry)
        sizes = [entry.size for entry in front]
        depths = [entry.depth for entry in front]
        assert sizes == sorted(set(sizes)), f"{rep:#06x}: sizes not strictly increasing"
        assert depths == sorted(set(depths), reverse=True), (
            f"{rep:#06x}: depths not strictly decreasing"
        )


def test_register_structures_rejects_wrong_function(fresh_db):
    rep = _xor3_rep()
    entry = get_structure("mig", rep)
    wrong = entry._replace(output=entry.output ^ 1)
    with pytest.raises(ValueError):
        register_structures("mig", rep, [wrong])
    with pytest.raises(ValueError):
        register_structures("mig", rep, [entry._replace(size=entry.size + 1)])
    with pytest.raises(ValueError):
        register_structures("xmg", rep, [entry])
    with pytest.raises(ValueError):  # non-canonical key
        register_structures("mig", 0x6996 if rep != 0x6996 else 0x9669, [entry])


def test_register_structures_merges_dominated_entries_away(fresh_db):
    rep = _xor3_rep()
    front = get_structures("mig", rep)
    generation = structure_db_generation()
    # Re-registering the existing front is a no-op: no generation bump.
    assert register_structures("mig", rep, list(front)) == front
    assert structure_db_generation() == generation


def test_exact_entry_improves_the_fast_tier_front(fresh_db):
    """The fast (decomposition) tier synthesizes xor3 in 6 MAJ gates; the
    exact tier proves 3 is the minimum and the merge must adopt it."""
    rep = _xor3_rep()
    fast = get_structures("mig", rep)
    result = synthesize_exact(rep, "mig")
    assert result.status == SAT and result.optimal
    assert result.gates < fast[0].size
    merged = register_structures("mig", rep, [result.entry])
    assert merged[0].size == result.gates
    assert entry_truth_table(merged[0]) == rep


def test_reset_drops_registered_entries(fresh_db):
    """Regression: a reset used to flush registrations into the disk cache
    and reload them, so an exact-enriched entry outlived the reset and
    leaked into every later run reading that cache directory."""
    rep = _xor3_rep()
    committed = get_structures("mig", rep)
    digest = npn.structure_db_digest()
    result = synthesize_exact(rep, "mig")
    assert result.status == SAT and result.gates < committed[0].size
    register_structures("mig", rep, [result.entry])
    npn.reset_structure_db()
    assert get_structures("mig", rep) == committed
    assert npn.structure_db_digest() == digest


def _build_xor3_cascade():
    """xor2(xor2(a, b), c) out of explicit AND/OR majorities: 6 gates,
    structurally irredundant, functionally the xor3 class function."""
    net = Mig()
    x = [net.add_pi(f"x{i}") for i in range(3)]
    g0 = net.maj(x[0], x[1], CONST_TRUE)
    g1 = net.maj(x[0], x[1], CONST_FALSE)
    g2 = net.maj(g0, g1 ^ 1, CONST_FALSE)
    g3 = net.maj(g2, x[2], CONST_TRUE)
    g4 = net.maj(g2, x[2], CONST_FALSE)
    net.add_po(net.maj(g3, g4 ^ 1, CONST_FALSE), "f")
    return net


def test_converged_skip_rearms_on_db_update(fresh_db):
    """Regression test for the staleness bug: a sweep that converged
    against the old database must re-run — and rewrite — after a better
    structure is registered.  On the pre-fix code (convergence token =
    mutation serial only) the third sweep reports ``converged_skip`` and
    the network stays at 6 gates."""
    rep = _xor3_rep()
    net = _build_xor3_cascade()
    assert net.num_gates == 6

    first = cut_rewrite(net, "mig")
    assert first["rewrites"] == 0  # fast-tier entry is the network itself
    second = cut_rewrite(net, "mig")
    assert second["converged_skip"] == 1

    result = synthesize_exact(rep, "mig")
    assert result.status == SAT and result.gates == 3
    register_structures("mig", rep, [result.entry])

    third = cut_rewrite(net, "mig")
    assert third["converged_skip"] == 0, "stale convergence token not re-armed"
    assert third["rewrites"] >= 1
    assert net.num_gates == 3
    parity = sum(1 << t for t in range(8) if bin(t).count("1") & 1)
    assert net.truth_tables()[0] == parity


def _tradeoff_cone(net, inputs, front, name):
    """Replay the size-best 0x180 form (``front[0]``, 5 gates, depth 5)
    over ``inputs`` as PO ``name``, and keep the first node of the
    shallower ``front[1]`` (6 gates, depth 4) that the cone lacks alive
    behind a PO of its own: with that node shared, ``front[1]`` costs no
    more nodes than the cone frees.  Returns the cone's root signal."""
    root = replay_structure(net, front[0], inputs)
    net.add_po(root, name)
    built = set(net.gates())
    shallow = replay_structure(net, front[1], inputs)
    shared = min(n for n in net.gates() if n not in built and n != shallow >> 1)
    net.add_po(shared << 1, f"{name}_shared")
    net.cleanup()
    return root


def test_depth_mode_spends_topk_entries_area_mode_does_not(fresh_db):
    """Class 0x180's fast-tier front is [(5, 5), (6, 4)]: an area sweep
    (head entry only) leaves the 5-gate form alone, a depth sweep takes
    the shallower structure, which costs no extra node here because one
    of its nodes already exists."""
    front = get_structures("mig", 0x180)
    assert len(front) >= 2, "class no longer has a size/depth tradeoff"

    net = Mig()
    _tradeoff_cone(net, [net.add_pi(f"x{i}") for i in range(4)], front, "f")
    size_before, depth_before = net.num_gates, net.depth()
    assert depth_before == front[0].depth

    area = net.copy()
    assert cut_rewrite(area, "mig")["rewrites"] == 0
    assert area.depth() == depth_before

    stats = cut_rewrite(net, "mig", max_level_growth=-1)
    assert stats["rewrites"] >= 1
    assert net.depth() == front[1].depth
    assert net.num_gates <= size_before


def test_depth_mode_visits_only_critical_roots(fresh_db):
    """A depth move off the critical path buys no depth, so it must spend
    no nodes: the 0x180 cone of the test above is rewritten where a deep
    chain makes it critical and left as built where it is shallow."""
    front = get_structures("mig", 0x180)
    net = Mig()
    deep = _tradeoff_cone(net, [net.add_pi(f"x{i}") for i in range(4)], front, "f")
    for i in range(6):
        deep = net.and_(deep, net.add_pi(f"c{i}"))
    net.add_po(deep, "deep")
    before = set(net.gates())
    shallow = _tradeoff_cone(net, [net.add_pi(f"y{i}") for i in range(4)], front, "g")
    shallow_cone = {n: net.fanins(n) for n in set(net.gates()) - before}
    assert len(shallow_cone) == front[0].size + 1
    depth_before = net.depth()

    stats = cut_rewrite(net, "mig", max_level_growth=-1)
    assert stats["rewrites"] >= 1
    assert net.depth() < depth_before
    assert net.po_signals()[net.po_names().index("g")] == shallow
    assert {n: net.fanins(n) for n in shallow_cone} == shallow_cone
