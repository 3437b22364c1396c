"""Tests for activity / probability analysis and the metrics helpers."""

import pytest

from repro.analysis import (
    NetworkMetrics,
    estimate_activity_by_simulation,
    geometric_improvement,
    measure_network,
    node_switching_activities,
    signal_probabilities,
    total_switching_activity,
)
from repro.aig import Aig
from repro.bench_circuits import build_benchmark
from repro.core import Mig, random_aoig_mig
from repro.core.signal import negate, node_of
from repro.network import mig_to_aig


class TestProbabilities:
    def test_and_or_probabilities(self):
        mig = Mig()
        a, b = mig.add_pi("a"), mig.add_pi("b")
        f_and = mig.and_(a, b)
        f_or = mig.or_(a, b)
        mig.add_po(f_and, "and")
        mig.add_po(f_or, "or")
        probs = signal_probabilities(mig)
        assert probs[node_of(f_and)] == pytest.approx(0.25)
        assert probs[node_of(f_or)] == pytest.approx(0.75)

    def test_majority_probability(self):
        mig = Mig()
        a, b, c = (mig.add_pi(n) for n in "abc")
        m = mig.maj(a, b, c)
        mig.add_po(m, "m")
        probs = signal_probabilities(mig)
        assert probs[node_of(m)] == pytest.approx(0.5)

    def test_biased_inputs(self):
        mig = Mig()
        a, b = mig.add_pi("a"), mig.add_pi("b")
        f = mig.and_(a, b)
        mig.add_po(f, "f")
        probs = signal_probabilities(mig, {"a": 0.1, "b": 0.1})
        assert probs[node_of(f)] == pytest.approx(0.01)

    def test_invalid_probability(self):
        mig = Mig()
        a = mig.add_pi("a")
        mig.add_po(a, "f")
        with pytest.raises(ValueError):
            signal_probabilities(mig, {"a": -0.2})

    def test_unknown_input_name_rejected(self):
        """Regression: a profile key naming no input (a typo such as
        ``"x1 "``) was ignored, leaving that input at 0.5."""
        mig = Mig()
        a, b = mig.add_pi("a"), mig.add_pi("b")
        mig.add_po(mig.and_(a, b), "f")
        with pytest.raises(ValueError, match="no input"):
            signal_probabilities(mig, {"a": 0.1, "bb": 0.9})
        with pytest.raises(ValueError, match="no input"):
            estimate_activity_by_simulation(mig, pi_probabilities={"c": 0.5})

    def test_simulation_rejects_out_of_range_probability(self):
        mig = Mig()
        a = mig.add_pi("a")
        mig.add_po(a, "f")
        with pytest.raises(ValueError, match="out of range"):
            estimate_activity_by_simulation(mig, pi_probabilities={"a": 1.5})


class TestActivity:
    def test_total_activity_matches_per_node_sum(self):
        mig = random_aoig_mig(7, 30, num_pos=4, seed=5)
        per_node = node_switching_activities(mig)
        assert total_switching_activity(mig) == pytest.approx(sum(per_node.values()))

    def test_analytic_close_to_simulation(self):
        mig = random_aoig_mig(8, 40, num_pos=5, seed=8)
        analytic = total_switching_activity(mig)
        simulated = estimate_activity_by_simulation(mig, num_vectors=4096, seed=3)
        # Reconvergence breaks exact agreement, but both models must agree on
        # the order of magnitude (within 25% on these random networks).
        assert simulated == pytest.approx(analytic, rel=0.25)

    def test_constant_inputs_kill_activity(self):
        mig = Mig()
        a, b = mig.add_pi("a"), mig.add_pi("b")
        mig.add_po(mig.and_(a, b), "f")
        assert total_switching_activity(mig, {"a": 1.0, "b": 0.0}) == pytest.approx(0.0)


class TestAigActivity:
    def test_and_gate_probability_is_the_product(self):
        aig = Aig()
        a, b = aig.add_pi("a"), aig.add_pi("b")
        f = aig.and_(a, negate(b))
        aig.add_po(f, "f")
        probs = signal_probabilities(aig, {"a": 0.2, "b": 0.4})
        assert probs[node_of(f)] == 0.2 * (1.0 - 0.4)

    def test_node_activities_cover_every_and_gate(self):
        aig = mig_to_aig(random_aoig_mig(7, 30, num_pos=4, seed=5))
        per_node = node_switching_activities(aig)
        assert set(per_node) == set(aig.topological_order())
        assert total_switching_activity(aig) == sum(per_node.values())

    def test_simulation_estimate_on_an_aig(self):
        aig = mig_to_aig(random_aoig_mig(8, 40, num_pos=5, seed=8))
        simulated = estimate_activity_by_simulation(aig, num_vectors=4096, seed=3)
        assert simulated == pytest.approx(total_switching_activity(aig), rel=0.25)


class TestMetrics:
    def test_measure_mig_and_aig(self):
        mig = random_aoig_mig(7, 30, num_pos=4, seed=2)
        aig = mig_to_aig(mig)
        m = measure_network(mig, runtime_s=1.5)
        a = measure_network(aig)
        assert m.size == mig.num_gates
        assert m.depth == mig.depth()
        assert m.runtime_s == 1.5
        assert a.size == aig.num_gates
        assert m.figure_of_merit == pytest.approx(m.size * m.depth * m.activity)
        assert len(m.as_row()) == 6

    def test_mig_and_aig_activity_pinned(self):
        """One propagation serves both network types: alu4 as built keeps
        the activity values of the separate MIG and AIG models it replaced."""
        assert measure_network(build_benchmark("alu4", Mig)).activity == 30.435881099247055
        assert measure_network(build_benchmark("alu4", Aig)).activity == 33.13186252033791

    def test_geometric_improvement(self):
        assert geometric_improvement(100.0, 80.0) == pytest.approx(20.0)
        assert geometric_improvement(100.0, 120.0) == pytest.approx(-20.0)
        assert geometric_improvement(0.0, 10.0) == 0.0
