"""Tests for the size / depth / activity optimizers (Algorithms 1 and 2)."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import total_switching_activity
from repro.bench_circuits import build_benchmark
from repro.core import (
    Mig,
    RESHAPE_RULES,
    negate,
    optimize_activity,
    optimize_depth,
    optimize_size,
    random_aoig_mig,
    random_mig,
)
from repro.core.depth_opt import push_up
from repro.core.size_opt import eliminate
from repro.flows import mighty_optimize
from repro.parallel.corpus import structural_fingerprint
from repro.verify import assert_equivalent


def xor3_aoig_mig():
    """The Fig. 1(a) starting point: x ⊕ y ⊕ z transposed from its AOIG."""
    mig = Mig()
    x, y, z = (mig.add_pi(n) for n in "xyz")

    def xor(a, b):
        return mig.or_(mig.and_(a, negate(b)), mig.and_(negate(a), b))

    mig.add_po(xor(xor(x, y), z), "f")
    mig.name = "xor3_aoig"
    return mig


def fig1b_aoig_mig():
    """The Fig. 1(b) starting point: g = x(y + uv) transposed from its AOIG."""
    mig = Mig()
    x, y, u, v = (mig.add_pi(n) for n in "xyuv")
    g = mig.and_(x, mig.or_(y, mig.and_(u, v)))
    mig.add_po(g, "g")
    mig.name = "fig1b_aoig"
    return mig


def fig2a_mig():
    """Fig. 2(a): h = M(x, M(x, z', w), M(x, y, z)) — optimal size is 0."""
    mig = Mig()
    x, y, z, w = (mig.add_pi(n) for n in "xyzw")
    h = mig.maj(x, mig.maj(x, negate(z), w), mig.maj(x, y, z))
    mig.add_po(h, "h")
    mig.name = "fig2a"
    return mig


class TestSizeOptimization:
    def test_fig2a_reduces_to_zero_nodes(self):
        mig = fig2a_mig()
        reference = mig.copy()
        stats = optimize_size(mig, effort=3)
        assert_equivalent(mig, reference)
        # The paper's walkthrough reaches h = x, i.e. zero majority nodes.
        assert mig.num_gates == 0
        assert stats.final_size == 0
        assert stats.initial_size == 3

    def test_size_never_increases(self):
        for seed in range(1, 6):
            mig = random_aoig_mig(8, 50, num_pos=5, seed=seed)
            before = mig.num_gates
            optimize_size(mig, effort=2)
            assert mig.num_gates <= before

    def test_equivalence_preserved_on_random_networks(self):
        for seed in (3, 7, 11):
            mig = random_mig(9, 70, num_pos=6, seed=seed)
            reference = mig.copy()
            optimize_size(mig, effort=2)
            assert_equivalent(mig, reference)

    def test_eliminate_removes_shared_pair_pattern(self):
        mig = Mig()
        p = [mig.add_pi(f"x{i}") for i in range(5)]
        c1 = mig.maj(p[0], p[1], p[2])
        c2 = mig.maj(p[0], p[1], p[3])
        top = mig.maj(c1, c2, p[4])
        mig.add_po(top, "y")
        reference = mig.copy()
        removed = eliminate(mig)
        assert removed >= 1
        assert mig.num_gates == 2
        assert_equivalent(mig, reference)

    def test_stats_fields_consistent(self):
        mig = random_aoig_mig(7, 40, num_pos=4, seed=9)
        stats = optimize_size(mig, effort=3)
        assert stats.final_size == mig.num_gates
        assert stats.final_depth == mig.depth()
        assert stats.cycles >= 1
        assert stats.runtime_s >= 0.0
        assert stats.size_reduction_percent >= 0.0

    def test_effort_zero_still_runs_once(self):
        mig = random_aoig_mig(6, 20, num_pos=3, seed=1)
        reference = mig.copy()
        stats = optimize_size(mig, effort=0)
        assert stats.cycles == 1
        assert_equivalent(mig, reference)


class TestDepthOptimization:
    def test_fig1b_depth_reduced_below_aoig_optimum(self):
        mig = fig1b_aoig_mig()
        reference = mig.copy()
        assert mig.depth() == 3  # optimal AOIG depth
        optimize_depth(mig, effort=3)
        assert_equivalent(mig, reference)
        assert mig.depth() <= 2  # the paper reaches depth 2 (Fig. 2(c))

    def test_xor3_depth_not_worse_than_aoig(self):
        mig = xor3_aoig_mig()
        reference = mig.copy()
        depth_before = mig.depth()
        optimize_depth(mig, effort=4)
        assert_equivalent(mig, reference)
        assert mig.depth() <= depth_before

    def test_depth_never_increases_on_random_networks(self):
        for seed in (2, 5, 8):
            mig = random_aoig_mig(10, 80, num_pos=6, seed=seed)
            depth_before = mig.depth()
            optimize_depth(mig, effort=2)
            assert mig.depth() <= depth_before

    def test_equivalence_preserved(self):
        for seed in (4, 6):
            mig = random_mig(8, 60, num_pos=5, seed=seed)
            reference = mig.copy()
            optimize_depth(mig, effort=2)
            assert_equivalent(mig, reference)

    def test_push_up_is_idempotent_at_fixpoint(self):
        mig = random_aoig_mig(8, 40, num_pos=4, seed=12)
        push_up(mig, max_rounds=8)
        depth_after_first = mig.depth()
        rewrites = push_up(mig, max_rounds=2)
        # Once no direct push-up helps, the depth must stay put.
        assert mig.depth() == depth_after_first or rewrites > 0

    def test_stats_record_progression(self):
        mig = random_aoig_mig(9, 70, num_pos=5, seed=21)
        stats = optimize_depth(mig, effort=3)
        assert stats.final_depth == mig.depth()
        assert stats.final_depth <= stats.initial_depth
        assert len(stats.depth_per_cycle) == stats.cycles


class TestActivityOptimization:
    def test_activity_not_increased(self):
        for seed in (1, 9):
            mig = random_aoig_mig(8, 60, num_pos=5, seed=seed)
            before = total_switching_activity(mig)
            optimize_activity(mig, effort=2)
            after = total_switching_activity(mig)
            assert after <= before + 1e-9

    def test_equivalence_preserved(self):
        mig = random_aoig_mig(8, 50, num_pos=5, seed=17)
        reference = mig.copy()
        optimize_activity(mig, effort=2)
        assert_equivalent(mig, reference)

    def test_biased_inputs_respected(self):
        mig = random_aoig_mig(8, 40, num_pos=4, seed=23)
        probabilities = {name: 0.1 for name in mig.pi_names()}
        stats = optimize_activity(mig, effort=1, pi_probabilities=probabilities)
        assert stats.final_activity <= stats.initial_activity + 1e-9

    @pytest.mark.parametrize("name", ["count", "mm30a"])
    def test_post_round_network_never_gets_worse(self, name):
        """A rejected Ψ.R trial must not stay in the network: count went
        60.90 / 180 / 9 -> 61.05 / 181 / 10 with no rewrite reported, and
        mm30a 498.2 / 1,250 -> 512.5 / 1,291 (activity / size / depth)."""
        mig = build_benchmark(name, Mig)
        mighty_optimize(mig, rounds=1, depth_effort=1)
        reference = mig.copy()
        activity, size, depth = total_switching_activity(mig), mig.num_gates, mig.depth()
        optimize_activity(mig, effort=1)
        assert total_switching_activity(mig) <= activity + 1e-9
        assert mig.num_gates <= size
        assert mig.depth() <= depth
        mig.check_integrity()
        assert_equivalent(mig, reference)

    @pytest.mark.parametrize("gate_mix", ["aoig", "mixed"])
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @example(seed=1)  # aoig: Algorithm 1 raised activity and depth
    @example(seed=5)  # aoig: the result was one level deeper
    def test_never_raises_activity_depth_or_size(self, network_forge, gate_mix, seed):
        mig = network_forge(
            kind="mig", gate_mix=gate_mix, num_pis=10, num_gates=120, num_pos=4, seed=seed
        )
        reference = mig.copy()
        activity, size, depth = total_switching_activity(mig), mig.num_gates, mig.depth()
        optimize_activity(mig, effort=1)
        assert total_switching_activity(mig) <= activity + 1e-9
        assert mig.depth() <= depth
        assert mig.num_gates <= size
        assert_equivalent(mig, reference)

    def test_stats_fields(self):
        mig = random_aoig_mig(7, 30, num_pos=3, seed=2)
        stats = optimize_activity(mig, effort=1)
        assert stats.final_size == mig.num_gates
        assert stats.relevance_rewrites >= 0
        assert stats.size_opt_stats.final_size <= stats.size_opt_stats.initial_size


class TestOptimizerProperties:
    """Property-based: optimizers preserve function on arbitrary random MIGs."""

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_gates=st.integers(min_value=5, max_value=40),
    )
    def test_size_opt_preserves_function(self, seed, num_gates):
        mig = random_mig(6, num_gates, num_pos=3, seed=seed)
        reference = mig.copy()
        optimize_size(mig, effort=1)
        assert_equivalent(mig, reference)

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_gates=st.integers(min_value=5, max_value=40),
    )
    def test_depth_opt_preserves_function(self, seed, num_gates):
        mig = random_aoig_mig(6, num_gates, num_pos=3, seed=seed)
        reference = mig.copy()
        optimize_depth(mig, effort=1)
        assert_equivalent(mig, reference)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_depth_opt_without_reshape_rules_still_sound(self, seed):
        mig = random_aoig_mig(6, 30, num_pos=3, seed=seed)
        reference = mig.copy()
        optimize_depth(mig, effort=1, reshape_rules=("Ω.A", "Ω.A-reshape"))
        assert_equivalent(mig, reference)


# The reshape ablation's rule subsets, and the outputs the same subsets
# gave when they were chosen through four on/off flags (Ω.A and
# Ω.A-reshape shared one flag).  Each entry: (size, depth, fingerprint).
ABLATION_SUBSETS = {
    "full": RESHAPE_RULES,
    "no_relevance": ("Ω.A", "Ω.A-reshape", "Ψ.C", "Ψ.S"),
    "no_substitution": ("Ω.A", "Ω.A-reshape", "Ψ.C", "Ψ.R"),
    "no_complementary": ("Ω.A", "Ω.A-reshape", "Ψ.R", "Ψ.S"),
    "associativity_only": ("Ω.A", "Ω.A-reshape"),
}
CLA_DEPTH_GOLDEN = {
    "full": (784, 39, "a516c1aaade30038ecb7a9e9c23632927a9993841fa31f707dfea4a4b1b5ffb9"),
    "no_relevance": (
        1756, 32, "b224682722cb2282e03e104d4c660290263d504f4f8ae74f0e2026e7eb83324c"
    ),
    "no_substitution": (
        784, 39, "a516c1aaade30038ecb7a9e9c23632927a9993841fa31f707dfea4a4b1b5ffb9"
    ),
    "no_complementary": (
        784, 39, "a516c1aaade30038ecb7a9e9c23632927a9993841fa31f707dfea4a4b1b5ffb9"
    ),
    "associativity_only": (
        1335, 33, "6e0e71eb3a863a047d05aa966ca77f48fbddcd372023fccc87ea1aa52ad8af58"
    ),
}
# The algebraic flow (boolean_rewrite=False), the one whose depth phase runs
# the reshape rules (Algorithm 2).
MY_ADDER_MIGHTY_GOLDEN = {
    "full": (547, 18, "1449b9b9eccb870f75383de08934afbcd646abb4f5be8225e6af88d407d4b063"),
    "no_relevance": (
        444, 18, "4d14a0a3cd467098aba7cf78ed51b15d9e74fdbd2d5bb8696b69a517aa72ba01"
    ),
    "no_substitution": (
        526, 18, "2de5491244ca8974765afec4abe11c464999a1db1a4c732948655128f8e4e931"
    ),
    "no_complementary": (
        752, 20, "ea5e97d514b97bca2705139efa33270e462e2cdea56d9fcbc50a3dc292a3d768"
    ),
    "associativity_only": (
        377, 18, "e26080fd89bf9746caca1e49d320e1f15d3f3392a562be8aa61a16e71e313a82"
    ),
}


@pytest.mark.parametrize("subset", sorted(ABLATION_SUBSETS))
def test_reshape_rule_subsets_reproduce_flag_goldens(subset):
    mig = build_benchmark("cla")
    optimize_depth(mig, effort=1, reshape_rules=ABLATION_SUBSETS[subset])
    assert (mig.num_gates, mig.depth(), structural_fingerprint(mig)) == (
        CLA_DEPTH_GOLDEN[subset]
    )
    mig = build_benchmark("my_adder")
    mighty_optimize(
        mig,
        rounds=1,
        depth_effort=1,
        reshape_rules=ABLATION_SUBSETS[subset],
        boolean_rewrite=False,
    )
    assert (mig.num_gates, mig.depth(), structural_fingerprint(mig)) == (
        MY_ADDER_MIGHTY_GOLDEN[subset]
    )


def test_unknown_rule_name_rejected():
    with pytest.raises(ValueError, match="unknown rules"):
        optimize_depth(random_mig(4, 6, num_pos=1, seed=1), reshape_rules=("Ω.Z",))
