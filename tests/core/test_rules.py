"""Tests for graph-level Ω / Ψ rule application on MIG networks."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import mutate_network, random_aoig_mig, random_mig
from repro.core.algebra import Const, Expr, Not, Var, equivalent, to_string, variables
from repro.core.mig import Mig
from repro.core.rules import (
    KERNEL_AXIOMS,
    RULES,
    cone_nodes,
    cone_size,
    effective_fanins,
    rebuild_cone,
    try_associativity,
    try_complementary_associativity,
    try_distributivity_lr,
    try_distributivity_rl,
    try_relevance,
    try_substitution,
)
from repro.core.signal import negate, node_of
from repro.verify import assert_equivalent, check_equivalence


PATTERN_PAIRS = [(name, rule.lhs, rule.rhs) for name, rule in RULES.items()] + [
    (name, lhs, rhs) for name, pairs in KERNEL_AXIOMS.items() for lhs, rhs in pairs
]


def first_appearance(expr: Expr):
    """Variable names of ``expr`` in the order a left-to-right reading meets them."""
    if isinstance(expr, Var):
        return [expr.name]
    children = [expr.child] if isinstance(expr, Not) else getattr(expr, "children", ())
    return list(dict.fromkeys(n for child in children for n in first_appearance(child)))


def build_expr(mig, expr: Expr, pis) -> int:
    """Build ``expr`` into ``mig`` over the PI signals ``pis`` (by name)."""
    if isinstance(expr, Var):
        return pis[expr.name]
    if isinstance(expr, Const):
        return mig.constant(expr.value)
    if isinstance(expr, Not):
        return negate(build_expr(mig, expr.child, pis))
    return mig.maj(*(build_expr(mig, child, pis) for child in expr.children))


def make_network_with(builder):
    """Build a MIG through ``builder(mig, pis)`` and register all results as POs."""
    mig = Mig()
    pis = [mig.add_pi(f"x{i}") for i in range(6)]
    outputs = builder(mig, pis)
    if isinstance(outputs, int):
        outputs = [outputs]
    for i, out in enumerate(outputs):
        mig.add_po(out, f"y{i}")
    return mig


class TestStructuralHelpers:
    def test_effective_fanins_regular_and_complemented(self):
        mig = Mig()
        a, b, c = (mig.add_pi(n) for n in "abc")
        f = mig.maj(a, b, c)
        assert effective_fanins(mig, f) == tuple(sorted((a, b, c)))
        assert effective_fanins(mig, negate(f)) == tuple(
            negate(s) for s in sorted((a, b, c))
        )
        assert effective_fanins(mig, a) is None

    def test_cone_nodes_and_bound(self):
        mig = Mig()
        pis = [mig.add_pi(f"x{i}") for i in range(4)]
        f1 = mig.and_(pis[0], pis[1])
        f2 = mig.or_(f1, pis[2])
        f3 = mig.maj(f1, f2, pis[3])
        mig.add_po(f3, "y")
        cone = cone_nodes(mig, f3, bound=10)
        assert set(cone) == {node_of(f1), node_of(f2), node_of(f3)}
        assert cone.index(node_of(f1)) < cone.index(node_of(f3))
        assert cone_nodes(mig, f3, bound=2) is None
        assert cone_size(mig, f3) == 3

    def test_cone_nodes_gives_up_at_the_bound(self):
        """A cone over ``bound`` gates is rejected once ``bound + 1`` gates
        are visited, without walking the rest of the cone."""

        class CountingStore(list):
            reads = 0

            def __getitem__(self, index):
                CountingStore.reads += 1
                return super().__getitem__(index)

        mig = Mig()
        pis = [mig.add_pi(f"x{i}") for i in range(4)]
        chain = [mig.and_(pis[0], pis[1])]
        for i in range(199):
            chain.append(mig.and_(chain[-1], pis[i % 4]))
        mig.add_po(chain[-1], "y")
        assert cone_nodes(mig, chain[-1], bound=200) == [node_of(s) for s in chain]
        mig._fanins = CountingStore(mig._fanins)
        assert cone_nodes(mig, chain[-1], bound=8) is None
        assert CountingStore.reads < 50

    def test_rebuild_cone_replacement(self):
        mig = Mig()
        pis = [mig.add_pi(f"x{i}") for i in range(4)]
        f1 = mig.and_(pis[0], pis[1])
        f2 = mig.or_(f1, pis[2])
        mig.add_po(f2, "y")
        new_sig = rebuild_cone(mig, f2, cone_nodes(mig, f2, 10), {node_of(pis[0]): pis[3]})
        mig.add_po(new_sig, "y_rebuilt")
        tts = mig.truth_tables()
        # y = x0&x1 | x2 ; y_rebuilt = x3&x1 | x2
        n = 4
        expected_y = 0
        expected_r = 0
        for i in range(1 << n):
            bits = [(i >> k) & 1 for k in range(n)]
            expected_y |= ((bits[0] & bits[1]) | bits[2]) << i
            expected_r |= ((bits[3] & bits[1]) | bits[2]) << i
        assert tts[0] == expected_y
        assert tts[1] == expected_r


class TestDistributivity:
    def test_rl_removes_node(self):
        def builder(mig, p):
            c1 = mig.maj(p[0], p[1], p[2])
            c2 = mig.maj(p[0], p[1], p[3])
            return mig.maj(c1, c2, p[4])

        mig = make_network_with(builder)
        reference = mig.copy()
        assert mig.num_gates == 3
        root = node_of(mig.po_signals()[0])
        assert try_distributivity_rl(mig, root)
        mig.cleanup()
        assert mig.num_gates == 2
        assert_equivalent(mig, reference)

    def test_rl_skips_shared_children(self):
        def builder(mig, p):
            c1 = mig.maj(p[0], p[1], p[2])
            c2 = mig.maj(p[0], p[1], p[3])
            top = mig.maj(c1, c2, p[4])
            return [top, c1]  # c1 is shared: rewrite would not save a node

        mig = make_network_with(builder)
        root = node_of(mig.po_signals()[0])
        assert not try_distributivity_rl(mig, root)

    def test_lr_reduces_depth(self):
        def builder(mig, p):
            deep = mig.and_(mig.and_(p[0], p[1]), p[2])  # depth 2 operand
            inner = mig.maj(p[3], p[4], deep)
            return mig.maj(p[5], p[4], inner)

        mig = make_network_with(builder)
        reference = mig.copy()
        depth_before = mig.depth()
        root = node_of(mig.po_signals()[0])
        assert try_distributivity_lr(mig, root, mig.levels())
        mig.cleanup()
        assert mig.depth() < depth_before
        assert_equivalent(mig, reference)

    def test_lr_rejects_useless_move(self):
        def builder(mig, p):
            inner = mig.maj(p[0], p[1], p[2])
            return mig.maj(p[3], p[4], inner)

        mig = make_network_with(builder)
        root = node_of(mig.po_signals()[0])
        # All operands arrive at level 0: no depth benefit, must refuse.
        assert not try_distributivity_lr(mig, root, mig.levels())


class TestAssociativity:
    def test_associativity_swaps_deep_operand(self):
        def builder(mig, p):
            deep = mig.and_(mig.and_(p[0], p[1]), p[2])
            inner = mig.maj(p[3], p[4], deep)
            return mig.maj(p[5], p[4], inner)  # shares operand p[4]

        mig = make_network_with(builder)
        reference = mig.copy()
        depth_before = mig.depth()
        root = node_of(mig.po_signals()[0])
        assert try_associativity(mig, root, mig.levels())
        mig.cleanup()
        assert mig.depth() <= depth_before
        assert_equivalent(mig, reference)

    def test_associativity_requires_shared_operand(self):
        def builder(mig, p):
            deep = mig.and_(p[0], p[1])
            inner = mig.maj(p[2], p[3], deep)
            return mig.maj(p[4], p[5], inner)

        mig = make_network_with(builder)
        root = node_of(mig.po_signals()[0])
        assert not try_associativity(mig, root, mig.levels())

    def test_complementary_associativity(self):
        def builder(mig, p):
            deep = mig.and_(mig.and_(p[0], p[1]), p[2])
            inner = mig.maj(deep, negate(p[4]), p[3])
            return mig.maj(p[5], p[4], inner)

        mig = make_network_with(builder)
        reference = mig.copy()
        root = node_of(mig.po_signals()[0])
        assert try_complementary_associativity(mig, root)
        mig.cleanup()
        assert_equivalent(mig, reference)

    def test_complementary_associativity_no_match(self):
        def builder(mig, p):
            inner = mig.maj(p[0], p[1], p[2])
            return mig.maj(p[3], p[4], inner)

        mig = make_network_with(builder)
        root = node_of(mig.po_signals()[0])
        assert not try_complementary_associativity(mig, root)


class TestRelevanceAndSubstitution:
    def test_relevance_preserves_function(self):
        def builder(mig, p):
            # Reconvergence: p[0] feeds both the top node and the cone of z.
            z = mig.maj(p[0], p[2], p[3])
            return mig.maj(p[0], p[1], z)

        mig = make_network_with(builder)
        reference = mig.copy()
        root = node_of(mig.po_signals()[0])
        applied = try_relevance(mig, root, max_growth=2)
        assert applied
        mig.cleanup()
        assert_equivalent(mig, reference)

    def test_relevance_requires_reconvergence(self):
        def builder(mig, p):
            z = mig.maj(p[2], p[3], p[4])
            return mig.maj(p[0], p[1], z)

        mig = make_network_with(builder)
        root = node_of(mig.po_signals()[0])
        assert not try_relevance(mig, root)

    def test_substitution_preserves_function(self):
        def builder(mig, p):
            # XOR-like structure where Ψ.S has a chance to simplify.
            a = mig.and_(p[0], negate(p[1]))
            b = mig.and_(negate(p[0]), p[1])
            return mig.or_(a, b)

        mig = make_network_with(builder)
        reference = mig.copy()
        root = node_of(mig.po_signals()[0])
        try_substitution(mig, root)  # may or may not commit
        mig.cleanup()
        assert_equivalent(mig, reference)


class TestKernelMajorityAxiom:
    """The kernel applies Ω.M to every triple it builds or retargets, so no
    live gate ever holds an Ω.M-reducible triple (two fanins on one node:
    ``M(x, x, z)`` or ``M(x, x', z)``, constants included)."""

    @staticmethod
    def reducible_gates(mig):
        return [
            node
            for node in mig.gates()
            if not mig.is_dead(node) and len({f >> 1 for f in mig.fanins(node)}) < 3
        ]

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_no_live_gate_is_reducible_after_edit_cascades(self, network_forge, seed):
        mig = network_forge(
            kind="mig", gate_mix="mixed", num_pis=6, num_gates=40, num_pos=4, seed=seed
        )
        rng = random.Random(seed)
        assert self.reducible_gates(mig) == []
        for step in range(12):
            gates = [n for n in mig.gates() if not mig.is_dead(n)]
            if not gates:
                break
            node = rng.choice(gates)
            # Targets are drawn from the live nodes so that duplicate
            # operands (the Ω.M matches) come up often.
            signals = [0, 1] + [
                (n << 1) | rng.randrange(2) for n in (*mig.pi_nodes(), *gates)
            ]
            op = step % 3
            if op == 0:
                mutate_network(mig, seed=seed * 31 + step, in_place=True)
            elif op == 1:
                mig.substitute(node, rng.choice(signals))
            else:
                try:
                    mig.replace_fanins(node, tuple(rng.choice(signals) for _ in range(3)))
                except ValueError:
                    pass  # the drawn fanins would close a cycle
            mig.check_integrity()
            assert self.reducible_gates(mig) == [], (seed, step)


class TestRulePreservationOnRandomNetworks:
    """Apply every rule everywhere on random networks and re-verify."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_rules_preserve_equivalence_random_mig(self, seed):
        mig = random_mig(8, 60, num_pos=6, seed=seed)
        reference = mig.copy()
        levels = mig.levels()
        for node in list(mig.gates()):
            if mig.is_dead(node):
                continue
            try_distributivity_rl(mig, node)
            try_associativity(mig, node, levels)
            try_complementary_associativity(mig, node)
            try_relevance(mig, node, max_growth=2)
        mig.cleanup()
        assert_equivalent(mig, reference)

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_rules_preserve_equivalence_random_aoig(self, seed):
        mig = random_aoig_mig(9, 80, num_pos=8, seed=seed)
        reference = mig.copy()
        levels = mig.levels()
        for node in list(mig.gates()):
            if mig.is_dead(node):
                continue
            try_distributivity_lr(mig, node, levels)
            try_distributivity_rl(mig, node)
            try_substitution(mig, node)
        mig.cleanup()
        result = check_equivalence(mig, reference)
        assert result.equivalent, result


class TestRulePatterns:
    """The pattern pairs of ``RULES`` and ``KERNEL_AXIOMS`` are the rule
    specification: each is proved sound, and each graph rule is checked to
    build exactly its right-hand side on a forged match."""

    @pytest.mark.parametrize(
        "name, lhs, rhs", PATTERN_PAIRS, ids=[f"{n}:{to_string(l)}" for n, l, _ in PATTERN_PAIRS]
    )
    def test_pattern_is_sound(self, name, lhs, rhs):
        """Exhaustive over the pattern's variables; since the variables
        stand for any sub-expression, this proves every instance."""
        assert 2 <= len(variables(lhs) | variables(rhs)) <= 5
        assert equivalent(lhs, rhs), name

    #: Gates the rewrite adds to its strashed cone (Ψ.S only by collapse).
    GATE_CHANGE = {
        "Ω.A": 0, "Ω.A-reshape": 0, "Ψ.C": 0, "Ψ.R": 0, "Ψ.S": -1,
        "Ω.D L→R": 1, "Ω.D R→L": -1,
    }

    @pytest.mark.parametrize("name", list(RULES))
    def test_pattern_gate_change(self, name):
        """Ω.D L→R duplicates a gate to cut depth, R→L removes one; the
        other moves keep the size, except Ψ.S on its collapsing cone."""

        def gates(expr):
            mig = Mig()
            pis = {v: mig.add_pi(v) for v in first_appearance(RULES[name].lhs)}
            mig.add_po(build_expr(mig, expr, pis), "f")
            return mig.num_gates

        assert gates(RULES[name].rhs) - gates(RULES[name].lhs) == self.GATE_CHANGE[name]

    @pytest.mark.parametrize("name", list(RULES))
    def test_rule_builds_its_right_hand_side(self, name):
        rule = RULES[name]
        mig = Mig()
        # Ψ.S breaks the tie between the equally used leaves v and u by
        # the order it meets them, so the PIs follow the pattern's order.
        pis = {v: mig.add_pi(v) for v in first_appearance(rule.lhs)}
        root = build_expr(mig, rule.lhs, pis)
        mig.add_po(root, "f")
        # The depth rules move the operand that arrives last: ``z``.
        levels = [0] * mig.num_nodes
        if "z" in pis:
            levels[node_of(pis["z"])] = 1
        extra = {"levels": levels, "growth": 0}.get(rule.arg)
        node = node_of(root)
        assert rule.fn(mig, node) if extra is None else rule.fn(mig, node, extra)
        assert mig.po_signals()[0] == build_expr(mig, rule.rhs, pis)
