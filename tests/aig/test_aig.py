"""Tests for the AIG substrate and the resyn2-style baseline optimizer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig import RESYN2_SCRIPT, Aig, balance, resyn2, rewrite, run_script
from repro.aig.balance import collect_conjuncts
from repro.analysis.activity import signal_probabilities, total_switching_activity
from repro.core import random_aoig_mig
from repro.core.signal import negate, node_of
from repro.network import mig_to_aig
from repro.verify import assert_equivalent, check_equivalence


def random_aig(seed=1, num_pis=8, num_gates=60, num_pos=5):
    return mig_to_aig(random_aoig_mig(num_pis, num_gates, num_pos=num_pos, seed=seed))


class TestAigConstruction:
    def test_basic_operators(self):
        aig = Aig()
        a, b = aig.add_pi("a"), aig.add_pi("b")
        aig.add_po(aig.and_(a, b), "and")
        aig.add_po(aig.or_(a, b), "or")
        aig.add_po(aig.xor_(a, b), "xor")
        aig.add_po(aig.nand_(a, b), "nand")
        tts = aig.truth_tables()
        assert tts == [0b1000, 0b1110, 0b0110, 0b0111]

    def test_constant_folding_and_strash(self):
        aig = Aig()
        a, b = aig.add_pi("a"), aig.add_pi("b")
        assert aig.and_(a, aig.constant(False)) == aig.constant(False)
        assert aig.and_(a, aig.constant(True)) == a
        assert aig.and_(a, a) == a
        assert aig.and_(a, negate(a)) == aig.constant(False)
        f1 = aig.and_(a, b)
        f2 = aig.and_(b, a)
        assert f1 == f2
        aig.add_po(f1, "f")
        assert aig.num_gates == 1

    def test_maj_encoding(self):
        aig = Aig()
        a, b, c = (aig.add_pi(n) for n in "abc")
        aig.add_po(aig.maj_(a, b, c), "m")
        (tt,) = aig.truth_tables()
        assert tt == 0b11101000

    def test_depth_and_reachability(self):
        aig = Aig()
        pis = [aig.add_pi(f"x{i}") for i in range(4)]
        chain = pis[0]
        for p in pis[1:]:
            chain = aig.and_(chain, p)
        _dangling = aig.and_(pis[0], negate(pis[1]))
        aig.add_po(chain, "f")
        assert aig.depth() == 3
        assert aig.num_gates == 3  # dangling node not counted

    def test_copy(self):
        aig = random_aig(seed=4)
        clone = aig.copy()
        assert clone.pi_names() == aig.pi_names()
        assert check_equivalence(aig, clone).equivalent


class TestBalance:
    def test_collect_conjuncts_chain(self):
        aig = Aig()
        pis = [aig.add_pi(f"x{i}") for i in range(4)]
        chain = aig.and_(aig.and_(aig.and_(pis[0], pis[1]), pis[2]), pis[3])
        leaves = collect_conjuncts(aig, chain)
        assert sorted(leaves) == sorted(pis)

    def test_balance_reduces_chain_depth(self):
        aig = Aig()
        pis = [aig.add_pi(f"x{i}") for i in range(8)]
        chain = pis[0]
        for p in pis[1:]:
            chain = aig.and_(chain, p)
        aig.add_po(chain, "f")
        assert aig.depth() == 7
        balanced = balance(aig)
        assert balanced.depth() == 3
        assert_equivalent(aig, balanced)

    def test_balance_preserves_function_random(self):
        for seed in (1, 2, 3):
            aig = random_aig(seed=seed)
            balanced = balance(aig)
            assert_equivalent(aig, balanced)
            assert balanced.depth() <= aig.depth()

    @staticmethod
    def _deep_chain(levels=1501):
        """One fresh PI ANDed per level with the complemented previous AND.

        Complemented edges stop every AND-tree at one gate, so the chain
        stays ``levels`` deep — deeper than the default recursion limit.
        """
        aig = Aig()
        prev = aig.add_pi("x0")
        for i in range(1, levels + 1):
            prev = aig.and_(aig.add_pi(f"x{i}"), negate(prev))
        aig.add_po(prev, "f")
        return aig

    @pytest.mark.parametrize(
        "flow", [balance, lambda aig: resyn2(aig)[0]], ids=["balance", "resyn2"]
    )
    def test_deep_chain_does_not_recurse(self, flow):
        aig = self._deep_chain()
        assert aig.depth() == 1501
        optimized = flow(aig)
        assert optimized.depth() == 1501
        assert check_equivalence(aig, optimized).equivalent


class TestRewriteAndResyn:
    def test_rewrite_preserves_function(self):
        for seed in (5, 6):
            aig = random_aig(seed=seed)
            rewritten = rewrite(aig)
            assert_equivalent(aig, rewritten)

    def test_rewrite_removes_redundant_structure(self):
        aig = Aig()
        a, b = aig.add_pi("a"), aig.add_pi("b")
        # (a & b) & (a & !b) == 0, hidden across two levels.
        f = aig.and_(aig.and_(a, b), aig.and_(a, negate(b)))
        aig.add_po(f, "f")
        rewritten = rewrite(aig)
        assert rewritten.num_gates == 0

    def test_resyn2_improves_or_preserves(self):
        for seed in (7, 8, 9):
            aig = random_aig(seed=seed)
            optimized, result = resyn2(aig)
            assert_equivalent(aig, optimized)
            assert optimized.num_gates <= aig.num_gates
            assert result.final_size == optimized.num_gates
            assert result.pass_names() == list(RESYN2_SCRIPT)

    def test_run_script_unknown_pass(self):
        aig = random_aig(seed=10)
        with pytest.raises(ValueError):
            run_script(aig, ("balance", "does_not_exist"))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=5000))
    def test_resyn2_equivalence_property(self, seed):
        aig = random_aig(seed=seed, num_pis=6, num_gates=30, num_pos=3)
        optimized, _ = resyn2(aig)
        assert_equivalent(aig, optimized)


class TestAigActivity:
    def test_probabilities_basic(self):
        aig = Aig()
        a, b = aig.add_pi("a"), aig.add_pi("b")
        f = aig.and_(a, b)
        aig.add_po(f, "f")
        probs = signal_probabilities(aig)
        assert probs[node_of(f)] == pytest.approx(0.25)
        assert total_switching_activity(aig) == pytest.approx(2 * 0.25 * 0.75)

    def test_biased_inputs(self):
        aig = Aig()
        a, b = aig.add_pi("a"), aig.add_pi("b")
        aig.add_po(aig.and_(a, b), "f")
        activity = total_switching_activity(aig, {"a": 1.0, "b": 1.0})
        assert activity == pytest.approx(0.0)

    def test_invalid_probability_rejected(self):
        aig = Aig()
        a = aig.add_pi("a")
        aig.add_po(a, "f")
        with pytest.raises(ValueError):
            signal_probabilities(aig, {"a": 1.5})
