"""Unit tests for the core MIG data structure."""

import pytest

from repro.core.mig import Mig
from repro.core.signal import (
    CONST_FALSE,
    CONST_TRUE,
    is_complemented,
    negate,
    node_of,
)


def build_xyz():
    mig = Mig()
    x = mig.add_pi("x")
    y = mig.add_pi("y")
    z = mig.add_pi("z")
    return mig, x, y, z


class TestConstruction:
    def test_empty_network(self):
        mig = Mig()
        assert mig.num_pis == 0
        assert mig.num_pos == 0
        assert mig.num_gates == 0
        assert mig.depth() == 0

    def test_constants(self):
        mig = Mig()
        assert mig.constant(False) == CONST_FALSE
        assert mig.constant(True) == CONST_TRUE
        assert negate(CONST_FALSE) == CONST_TRUE

    def test_add_pi_po(self):
        mig, x, y, z = build_xyz()
        f = mig.maj(x, y, z)
        idx = mig.add_po(f, "f")
        assert idx == 0
        assert mig.num_pis == 3
        assert mig.num_pos == 1
        assert mig.num_gates == 1
        assert mig.pi_names() == ["x", "y", "z"]
        assert mig.po_names() == ["f"]

    def test_strashing_reuses_nodes(self):
        mig, x, y, z = build_xyz()
        f1 = mig.maj(x, y, z)
        f2 = mig.maj(z, x, y)
        f3 = mig.maj(y, z, x)
        assert f1 == f2 == f3
        assert mig.num_gates == 1

    def test_majority_axiom_applied_on_creation(self):
        mig, x, y, z = build_xyz()
        assert mig.maj(x, x, y) == x
        assert mig.maj(x, negate(x), y) == y
        assert mig.maj(y, x, x) == x
        assert mig.num_gates == 0

    def test_constant_folding(self):
        mig, x, y, z = build_xyz()
        assert mig.maj(CONST_FALSE, CONST_TRUE, x) == x
        assert mig.maj(CONST_FALSE, CONST_FALSE, x) == CONST_FALSE
        assert mig.maj(CONST_TRUE, CONST_TRUE, x) == CONST_TRUE
        assert mig.num_gates == 0

    def test_inverter_propagation_normalisation(self):
        mig, x, y, z = build_xyz()
        f = mig.maj(negate(x), negate(y), z)
        g = mig.maj(x, y, negate(z))
        # By Ω.I, M(x', y', z) = M'(x, y, z'); the two share one node.
        assert node_of(f) == node_of(g)
        assert f == negate(g)
        assert mig.num_gates == 1


class TestDerivedOperators:
    def test_and_or_truth(self):
        mig = Mig()
        a = mig.add_pi("a")
        b = mig.add_pi("b")
        mig.add_po(mig.and_(a, b), "and")
        mig.add_po(mig.or_(a, b), "or")
        mig.add_po(mig.xor_(a, b), "xor")
        mig.add_po(mig.nand_(a, b), "nand")
        mig.add_po(mig.nor_(a, b), "nor")
        mig.add_po(mig.xnor_(a, b), "xnor")
        tts = mig.truth_tables()
        assert tts[0] == 0b1000
        assert tts[1] == 0b1110
        assert tts[2] == 0b0110
        assert tts[3] == 0b0111
        assert tts[4] == 0b0001
        assert tts[5] == 0b1001

    def test_maj_truth_table(self):
        mig, x, y, z = build_xyz()
        mig.add_po(mig.maj(x, y, z), "m")
        (tt,) = mig.truth_tables()
        assert tt == 0b11101000

    def test_xor3(self):
        mig, x, y, z = build_xyz()
        mig.add_po(mig.xor3_(x, y, z), "p")
        (tt,) = mig.truth_tables()
        assert tt == 0b10010110

    def test_mux(self):
        mig = Mig()
        s = mig.add_pi("s")
        t = mig.add_pi("t")
        e = mig.add_pi("e")
        mig.add_po(mig.mux_(s, t, e), "f")
        (tt,) = mig.truth_tables()
        # Variable order: s is bit 0, t is bit 1, e is bit 2.
        expected = 0
        for i in range(8):
            s_v, t_v, e_v = i & 1, (i >> 1) & 1, (i >> 2) & 1
            expected |= ((t_v if s_v else e_v) & 1) << i
        assert tt == expected

    def test_minority(self):
        mig, x, y, z = build_xyz()
        mig.add_po(mig.minority(x, y, z), "min")
        (tt,) = mig.truth_tables()
        assert tt == 0b00010111


class TestDepthAndLevels:
    def test_depth_of_chain(self):
        mig = Mig()
        pis = [mig.add_pi(f"x{i}") for i in range(5)]
        acc = pis[0]
        for p in pis[1:]:
            acc = mig.and_(acc, p)
        mig.add_po(acc, "f")
        assert mig.depth() == 4
        assert mig.num_gates == 4

    def test_critical_nodes_cover_longest_path(self):
        mig = Mig()
        pis = [mig.add_pi(f"x{i}") for i in range(4)]
        a = mig.and_(pis[0], pis[1])
        b = mig.and_(a, pis[2])
        c = mig.and_(b, pis[3])
        d = mig.or_(pis[0], pis[1])
        mig.add_po(c, "deep")
        mig.add_po(d, "shallow")
        critical = set(mig.critical_nodes())
        assert node_of(c) in critical
        assert node_of(b) in critical
        assert node_of(a) in critical
        assert node_of(d) not in critical


class TestSubstitution:
    def test_substitute_simple(self):
        mig, x, y, z = build_xyz()
        f = mig.maj(x, y, z)
        g = mig.and_(f, x)
        mig.add_po(g, "g")
        before = mig.truth_tables()
        # Substitute f by an equivalent reconstruction: must keep function.
        f2 = mig.maj(y, z, x)
        assert f2 == f  # strashing: same node, nothing to do
        assert mig.substitute(node_of(f), f2)
        assert mig.truth_tables() == before

    def test_substitute_with_constant(self):
        mig, x, y, z = build_xyz()
        f = mig.and_(x, y)
        g = mig.or_(f, z)
        mig.add_po(g, "g")
        # Force f to constant 0: g becomes z.
        assert mig.substitute(node_of(f), CONST_FALSE)
        (tt,) = mig.truth_tables()
        # g == z: variable z is bit index 2 → pattern 0b11110000
        assert tt == 0b11110000
        assert mig.num_gates == 0

    def test_substitute_cascades_simplification(self):
        mig, x, y, z = build_xyz()
        a = mig.and_(x, y)
        b = mig.or_(a, z)
        c = mig.and_(b, a)
        mig.add_po(c, "c")
        # Replace a by x: b = or(x, z), c = and(b, x) = x & (x|z) = x.
        assert mig.substitute(node_of(a), x)
        tts = mig.truth_tables()
        assert tts[0] == 0b10101010

    def test_substitute_rejects_cycle(self):
        mig, x, y, z = build_xyz()
        a = mig.and_(x, y)
        b = mig.or_(a, z)
        mig.add_po(b, "b")
        # Substituting a by b would create a cycle (a is in b's TFI).
        assert not mig.substitute(node_of(a), b)

    def test_substitute_updates_pos(self):
        mig, x, y, z = build_xyz()
        f = mig.and_(x, y)
        mig.add_po(f, "f")
        mig.add_po(negate(f), "nf")
        assert mig.substitute(node_of(f), z)
        tts = mig.truth_tables()
        assert tts[0] == 0b11110000
        assert tts[1] == 0b00001111

    def test_dead_node_recycling(self):
        mig, x, y, z = build_xyz()
        f = mig.and_(x, y)
        g = mig.or_(f, z)
        mig.add_po(g, "g")
        assert mig.num_gates == 2
        mig.substitute(node_of(g), x)
        # Both gates are dangling now and must have been reclaimed.
        assert mig.num_gates == 0


class TestCopy:
    def test_copy_preserves_function_and_names(self):
        mig, x, y, z = build_xyz()
        f = mig.maj(mig.and_(x, y), mig.or_(y, z), negate(z))
        mig.add_po(f, "f")
        clone = mig.copy()
        assert clone.pi_names() == mig.pi_names()
        assert clone.po_names() == mig.po_names()
        assert clone.truth_tables() == mig.truth_tables()
        assert clone.num_gates <= mig.num_gates

    def test_copy_drops_dangling_nodes(self):
        mig, x, y, z = build_xyz()
        used = mig.and_(x, y)
        _unused = mig.or_(y, z)
        mig.add_po(used, "f")
        clone = mig.copy()
        assert clone.num_gates == 1


class TestValidation:
    def test_unknown_signal_rejected(self):
        mig = Mig()
        x = mig.add_pi("x")
        with pytest.raises(ValueError):
            mig.maj(x, 998, 1000)

    def test_maj_keeps_the_precise_signal_errors(self):
        mig = Mig()
        x, y = mig.add_pi("x"), mig.add_pi("y")
        dead = mig.maj(x, y, CONST_TRUE)  # never referenced
        mig.cleanup()
        cases = [
            ((x, y, 1000), "references unknown node"),
            ((-2, x, y), "references unknown node"),
            ((x, dead, y), "references a dead node"),
        ]
        for fanins, message in cases:
            with pytest.raises(ValueError, match=message):
                mig.maj(*fanins)

    def test_fanins_of_pi_rejected(self):
        mig = Mig()
        x = mig.add_pi("x")
        with pytest.raises(ValueError):
            mig.fanins(node_of(x))

    def test_exhaustive_simulation_limit(self):
        mig = Mig()
        pis = [mig.add_pi(f"x{i}") for i in range(21)]
        acc = pis[0]
        for p in pis[1:]:
            acc = mig.and_(acc, p)
        mig.add_po(acc, "f")
        with pytest.raises(ValueError):
            mig.truth_tables()


class TestCanonicalForms:
    """The compare-exchange fast paths of the majority kernel hooks
    return exactly the keys, in the same order, as the sorting forms."""

    # Every triple over the constant and four nodes, both polarities:
    # distinct nodes, same-node pairs (x, x and x, x'), constant fanins.
    TRIPLES = [(a, b, c) for a in range(10) for b in range(10) for c in range(10)]

    def test_strash_candidates_match_sorted_keys(self):
        mig = Mig()
        for triple in self.TRIPLES:
            expected = (
                (tuple(sorted(triple)), False),
                (tuple(sorted(f ^ 1 for f in triple)), True),
            )
            assert tuple(mig._strash_candidates(triple)) == expected, triple
            assert mig._gate_key(triple) == tuple(sorted(triple)), triple

    def test_normalize_and_simplify_match_reference_forms(self):
        mig = Mig()
        for a, b, c in self.TRIPLES:
            flip = sum(map(is_complemented, (a, b, c))) >= 2
            stored = (negate(a), negate(b), negate(c)) if flip else (a, b, c)
            assert mig._normalize_gate((a, b, c)) == (tuple(sorted(stored)), flip)
            if a == b or a == c:
                expected = a
            elif b == c:
                expected = b
            elif a == negate(b):
                expected = c
            elif a == negate(c):
                expected = b
            elif b == negate(c):
                expected = a
            else:
                expected = None
            assert mig._gate_simplify((a, b, c)) == expected, (a, b, c)
