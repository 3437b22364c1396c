"""Top-k structure database: Pareto-front invariants, digest and depth mode.

* every class's entry list is a strict Pareto front on (size, depth) —
  sizes strictly increase, depths strictly decrease, every entry replays
  to the class function;
* entry validation rejects a wrong function, size, depth or gate arity,
  and the front merge drops dominated entries;
* the exact tier beats the fast tier where the fast tier is not minimal;
* the committed file is loaded once per process and never changes;
* the database digest is the SHA-256 of the committed file's bytes, so
  it is equal in every process and cannot drift from the file;
* depth-mode ``cut_rewrite`` spends the top-k entries, on critical roots
  only.
"""

import hashlib

import pytest

from repro.core.mig import Mig
from repro.network import npn
from repro.network.npn import (
    STRUCTURE_DB_PATH,
    entry_truth_table,
    get_structures,
    npn_canonical,
    npn_representatives,
    replay_structure,
)
from repro.network.rewrite import cut_rewrite


def _xor3_rep():
    xor3 = sum(1 << t for t in range(16) if bin(t & 7).count("1") & 1)
    return npn_canonical(xor3)[0]


@pytest.mark.parametrize("kind", ["mig", "aig"])
def test_topk_fronts_are_strict_pareto_and_replay(kind):
    for rep in npn_representatives():
        front = get_structures(kind, rep)
        assert front, f"{rep:#06x}: empty entry list"
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


def test_validate_entry_rejects_wrong_function_size_depth_and_arity():
    rep = _xor3_rep()
    entry = get_structures("mig", rep)[0]
    assert npn._validate_entry("mig", rep, entry)
    assert not npn._validate_entry("mig", rep, entry._replace(output=entry.output ^ 1))
    assert not npn._validate_entry("mig", rep, entry._replace(size=entry.size + 1))
    assert not npn._validate_entry("mig", rep, entry._replace(depth=entry.depth + 1))
    assert not npn._validate_entry("aig", rep, entry)  # 3-input gates in an AIG
    assert not npn._validate_entry("mig", rep ^ 1, entry)


def test_pareto_front_drops_dominated_entries():
    """Duplicates, deeper copies of a size and larger entries that are no
    shallower fall away; a smaller entry becomes the head even when it is
    deeper."""
    front = get_structures("mig", 0x180)
    assert len(front) >= 2, "class no longer has a size/depth tradeoff"
    head, tail = front[0], front[-1]
    dominated = [
        head._replace(depth=head.depth + 1),
        tail._replace(size=tail.size + 1),
        head._replace(size=tail.size, output=head.output ^ 1),
    ]
    assert npn._pareto_front([*dominated, *reversed(front), *front]) == front
    assert npn._pareto_front(front) == front
    smaller = head._replace(size=head.size - 1, depth=head.depth + 1)
    assert npn._pareto_front([*front, smaller]) == (smaller, *front)


def test_exact_entry_improves_the_fast_tier_front():
    """The fast (decomposition) tier synthesizes xor3 in 6 MAJ gates; the
    exact tier finds the 3-gate minimum, which becomes the front's head."""
    rep = _xor3_rep()
    fast = get_structures("mig", rep)
    assert fast[0].size == 6
    enriched = npn._exact_enrich("mig", rep, fast, budget=2_000, size_slack=2)
    assert enriched[0].size == 3
    assert enriched == npn._pareto_front(enriched)
    assert all(npn._validate_entry("mig", rep, entry) for entry in enriched)
    net = Mig()
    inputs = [net.add_pi(f"x{i}") for i in range(4)]
    net.add_po(replay_structure(net, enriched[0], inputs), "f")
    assert net.truth_tables()[0] == rep


def test_digest_is_the_sha256_of_the_committed_file():
    """Regression: the digest used to hash the in-memory contents, which
    could drift from the file after a run-time edit of the database."""
    expected = hashlib.sha256(STRUCTURE_DB_PATH.read_bytes()).hexdigest()
    assert npn.structure_db_digest() == expected
    assert npn.load_structure_db()[1] == expected


def test_database_is_loaded_once_per_process(monkeypatch):
    front = get_structures("mig", 0x180)
    digest = npn.structure_db_digest()

    def _reload(*args, **kwargs):
        raise AssertionError("structure database read twice")

    monkeypatch.setattr(npn, "load_structure_db", _reload)
    assert get_structures("mig", 0x180) is front
    assert npn.structure_db_digest() == digest
    assert isinstance(front, tuple)
    with pytest.raises(ValueError):
        get_structures("xmg", 0x180)


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


def test_depth_mode_spends_topk_entries_area_mode_does_not():
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


def test_depth_mode_visits_only_critical_roots():
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
