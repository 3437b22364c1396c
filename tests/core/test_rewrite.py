"""Tests for MIG Boolean cut rewriting (core/rewrite.py + the flow pass)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench_circuits import build_benchmark
from repro.core import Mig, rewrite_mig
from repro.flows import MigRewrite, Pipeline
from repro.verify import assert_equivalent, check_equivalence

SMALL = ["alu4", "count", "misex3"]


class TestRewriteMig:
    @pytest.mark.parametrize("name", SMALL)
    def test_preserves_function_and_never_regresses(self, name):
        mig = build_benchmark(name, Mig)
        reference = build_benchmark(name, Mig)
        size_before, depth_before = mig.num_gates, mig.depth()
        stats = rewrite_mig(mig)
        mig.check_integrity()
        assert check_equivalence(mig, reference, num_random_vectors=1024).equivalent
        assert mig.num_gates <= size_before
        assert mig.depth() <= depth_before
        # The recorded gain is the sum of the per-rewrite MFFC estimates; the
        # realised improvement can only be larger (substitution cascades
        # reclaim additional strash/Ω.M collapses in the fanout).
        assert stats["gain"] <= size_before - mig.num_gates

    def test_finds_gains_algebra_misses(self):
        # A cone computing a plain majority through six nodes: Boolean
        # matching collapses it to the single database structure.
        mig = Mig()
        a, b, c = (mig.add_pi(n) for n in "abc")
        f = mig.or_(mig.and_(a, b), mig.and_(c, mig.or_(a, b)))
        mig.add_po(f, "f")
        assert mig.num_gates == 4
        stats = rewrite_mig(mig)
        assert stats["rewrites"] >= 1
        assert mig.num_gates == 1  # M(a, b, c)
        reference = Mig()
        a, b, c = (reference.add_pi(n) for n in "abc")
        reference.add_po(reference.maj(a, b, c), "f")
        assert_equivalent(mig, reference)

    def test_constant_cone_collapses(self):
        mig = Mig()
        a, b = mig.add_pi("a"), mig.add_pi("b")
        # (a·b) · (a·b') == 0, hidden across two levels of majority logic.
        f = mig.and_(mig.and_(a, b), mig.and_(a, mig.not_(b)))
        mig.add_po(f, "f")
        rewrite_mig(mig)
        assert mig.num_gates == 0

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=5000))
    def test_equivalence_property(self, network_forge, seed):
        mig = network_forge(kind="mig", gate_mix="aoig", num_pis=6, num_gates=30, seed=seed)
        reference = mig.copy()
        depth_before = mig.depth()
        rewrite_mig(mig)
        mig.check_integrity()
        assert_equivalent(mig, reference)
        assert mig.depth() <= depth_before

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=5000))
    def test_pure_majority_networks_property(self, network_forge, seed):
        mig = network_forge(kind="mig", gate_mix="maj", num_pis=6, num_gates=25, seed=seed)
        reference = mig.copy()
        rewrite_mig(mig)
        assert_equivalent(mig, reference)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=5000))
    def test_mixed_gate_networks_property(self, network_forge, seed):
        # XOR/MUX-rich cones exercise the non-trivial NPN classes of the
        # structure database far more than plain AND/OR soup.
        mig = network_forge(kind="mig", gate_mix="mixed", num_pis=7, num_gates=35, seed=seed)
        reference = mig.copy()
        rewrite_mig(mig)
        mig.check_integrity()
        assert_equivalent(mig, reference)

    @pytest.mark.parametrize("seed", [37, 56, 158])
    def test_alias_collapse_never_overstates_gain(self, network_forge, seed):
        # Regression class: a fanout of the rewritten root used to collapse
        # back onto it during the substitution cascade, leaving the root
        # (and its whole assumed-freed cone) alive while the gain was
        # still credited.  The engine now detects the surviving root,
        # merges the duplicate replacement back and counts nothing.
        mig = network_forge(kind="mig", gate_mix="aoig", num_pis=7, num_gates=60, num_pos=4, seed=seed)
        mig.cleanup()
        reference = mig.copy()
        size_before = mig.num_gates
        stats = rewrite_mig(mig)
        mig.check_integrity()
        assert stats["gain"] <= size_before - mig.num_gates
        assert mig.num_gates <= size_before
        assert_equivalent(mig, reference)

    def test_level_growth_bound_lifted(self):
        # Size-first mode may trade depth for size but must stay equivalent.
        mig = build_benchmark("alu4", Mig)
        reference = build_benchmark("alu4", Mig)
        size_before = mig.num_gates
        rewrite_mig(mig, max_level_growth=None, allow_zero_gain=True)
        assert check_equivalence(mig, reference, num_random_vectors=1024).equivalent
        assert mig.num_gates <= size_before


class TestMigRewritePass:
    def test_pass_in_pipeline_records_metrics(self):
        mig = build_benchmark("count", Mig)
        reference = build_benchmark("count", Mig)
        result = Pipeline([MigRewrite()], name="boolean").run(mig)
        assert result.pass_names() == ["mig_rewrite"]
        metrics = result.pass_metrics[0]
        assert metrics.size_after <= metrics.size_before
        assert metrics.depth_after <= metrics.depth_before
        assert "rewrites" in metrics.details
        assert check_equivalence(mig, reference, num_random_vectors=1024).equivalent
