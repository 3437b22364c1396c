"""Tests of the symbolic MIG Boolean algebra.

The Ω/Ψ rules themselves are pattern pairs in :data:`repro.core.rules.RULES`;
``tests/core/test_rules.py::TestRulePatterns`` proves them sound and ties
them to the graph code.
"""

import itertools

import pytest

from repro.core.algebra import (
    FALSE,
    TRUE,
    equivalent,
    evaluate,
    expr_depth,
    expr_size,
    from_aoig_and,
    from_aoig_or,
    inv,
    maj,
    replace_variable,
    truth_table,
    var,
    variables,
)

x, y, z, w = (var(n) for n in "xyzw")


class TestEvaluation:
    def test_majority_semantics(self):
        e = maj(x, y, z)
        for bits in itertools.product([False, True], repeat=3):
            assignment = dict(zip("xyz", bits))
            assert evaluate(e, assignment) == (sum(bits) >= 2)

    def test_constants_and_inverter(self):
        assert evaluate(TRUE, {}) is True
        assert evaluate(FALSE, {}) is False
        assert evaluate(inv(TRUE), {}) is False
        assert inv(inv(x)) == x

    def test_and_or_encodings(self):
        assert equivalent(from_aoig_and(x, y), maj(x, y, FALSE))
        for bits in itertools.product([False, True], repeat=2):
            assignment = dict(zip("xy", bits))
            assert evaluate(from_aoig_and(x, y), assignment) == (bits[0] and bits[1])
            assert evaluate(from_aoig_or(x, y), assignment) == (bits[0] or bits[1])

    def test_variables_and_missing_value(self):
        e = maj(x, inv(y), TRUE)
        assert variables(e) == frozenset({"x", "y"})
        with pytest.raises(KeyError):
            evaluate(e, {"x": True})

    def test_truth_table_order(self):
        e = maj(x, y, FALSE)  # AND
        assert truth_table(e, order=["x", "y"]) == 0b1000

    def test_size_and_depth(self):
        e = maj(maj(x, y, FALSE), z, TRUE)
        assert expr_size(e) == 2
        assert expr_depth(e) == 2
        assert expr_size(inv(e)) == 2

    def test_replace_variable(self):
        e = maj(x, inv(x), y)
        replaced = replace_variable(e, "x", z)
        assert replaced == maj(z, inv(z), y)


class TestPaperExamples:
    """The worked examples from Section III / IV of the paper."""

    def test_fig1a_xor3_aoig_transposition(self):
        # f = x ⊕ y ⊕ z built from AND/OR/INV, transposed into MIG form.
        def xor(a, b):
            return from_aoig_or(
                from_aoig_and(a, inv(b)), from_aoig_and(inv(a), b)
            )

        f = xor(xor(x, y), z)
        reference = 0
        for i in range(8):
            bits = [(i >> k) & 1 for k in range(3)]
            if bits[0] ^ bits[1] ^ bits[2]:
                reference |= 1 << i
        assert truth_table(f, order=["x", "y", "z"]) == reference

    def test_fig2a_size_optimization_walkthrough(self):
        # h = M(x, M(x, z', w), M(x, y, z)) optimizes to x (Section IV-A).
        h = maj(x, maj(x, inv(z), w), maj(x, y, z))
        # Step 1: associativity swaps w and M(x, y, z).
        step1 = maj(x, maj(x, inv(z), maj(x, y, z)), w)
        assert equivalent(h, step1)
        # Step 2: relevance (Ψ.R with operands z', x) replaces z by x inside
        # the reconvergent operand.
        inner = maj(x, inv(z), maj(x, y, z))
        step2_inner = maj(inv(z), x, replace_variable(maj(x, y, z), "z", x))
        assert step2_inner == maj(inv(z), x, maj(x, y, x))
        assert equivalent(inner, step2_inner)
        # Step 3: the whole expression collapses to x.
        assert equivalent(h, x)

    def test_fig2d_activity_example_function_preserved(self):
        # k = M(x, y, M(x', z, w)) = M(x, y, M(y, z, w)) by Ψ.R.
        k = maj(x, y, maj(inv(x), z, w))
        rewritten = maj(x, y, replace_variable(maj(inv(x), z, w), "x", inv(y)))
        assert rewritten == maj(x, y, maj(y, z, w))
        assert equivalent(k, rewritten)
