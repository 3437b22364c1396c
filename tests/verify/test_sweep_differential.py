"""Differential tests: all complete CEC backends must agree (verify/sweep.py).

On narrow (≤16-input) fuzzed networks the ``exhaustive`` backend is ground
truth, so ``sat-sweep`` and ``bdd`` are checked against it both ways:

* equivalent pairs (a network vs its Boolean-rewritten self) must be
  *proved* by every backend;
* seeded single-gate mutants that ground truth refutes must be refuted by
  every backend, each with a counterexample that replays to a real PO
  mismatch through ``simulate_patterns``.
"""

import pytest

from repro.aig.aig import Aig
from repro.aig.rewrite import rewrite as aig_rewrite
from repro.bench_circuits import build_benchmark
from repro.core import Mig, rewrite_mig
from repro.verify import check_equivalence
from repro.verify.sweep import sat_sweep

COMPLETE_BACKENDS = ("exhaustive", "sat-sweep", "bdd")


def _replays(first, second, result):
    """The advertised counterexample must reproduce a PO mismatch."""
    assert result.counterexample is not None, result
    assert result.failing_output is not None, result
    patterns = [1 if bit else 0 for bit in result.counterexample]
    out_first = first.simulate_patterns(patterns, 1)
    out_second = second.simulate_patterns(patterns, 1)
    index = result.failing_output
    assert (out_first[index] ^ out_second[index]) & 1, (
        "counterexample does not replay",
        result,
    )


def _equivalent_pair(network_forge, kind, seed):
    net = network_forge(
        kind=kind, gate_mix="mixed", num_pis=8, num_gates=45, num_pos=4, seed=seed
    )
    optimized = net.copy()
    if kind == "mig":
        rewrite_mig(optimized)
    else:
        optimized = aig_rewrite(optimized)
    return net, optimized


class TestBackendsAgreeOnEquivalentPairs:
    @pytest.mark.parametrize("kind", ["mig", "aig"])
    @pytest.mark.parametrize("seed", [2, 11, 23, 31])
    def test_all_backends_prove(self, network_forge, kind, seed):
        net, optimized = _equivalent_pair(network_forge, kind, seed)
        for backend in COMPLETE_BACKENDS:
            result = check_equivalence(net, optimized, method=backend)
            assert result.equivalent, (backend, kind, seed)
            assert result.method == backend


class TestBackendsRefuteMutants:
    @pytest.mark.parametrize("kind", ["mig", "aig"])
    @pytest.mark.parametrize("seed", [1, 5, 9, 14, 27])
    def test_every_backend_refutes_with_replayable_counterexample(
        self, network_forge, mutant_forge, kind, seed
    ):
        net = network_forge(
            kind=kind, gate_mix="mixed", num_pis=7, num_gates=35, num_pos=3, seed=seed
        )
        # Draw mutation seeds until ground truth (exhaustive simulation)
        # confirms a real functional change — a mutation can be masked by
        # downstream don't-cares.
        mutant = None
        for mutation_seed in range(seed * 100, seed * 100 + 50):
            candidate, _ = mutant_forge(net, seed=mutation_seed)
            if not check_equivalence(net, candidate, method="exhaustive").equivalent:
                mutant = candidate
                break
        assert mutant is not None, "no effective mutant in 50 seeds"

        for backend in COMPLETE_BACKENDS:
            result = check_equivalence(net, mutant, method=backend)
            assert not result.equivalent, (backend, kind, seed)
            assert result.method == backend
            _replays(net, mutant, result)

    def test_auto_dispatch_agrees_with_ground_truth(
        self, network_forge, mutant_forge
    ):
        net = network_forge(kind="mig", gate_mix="mixed", num_pis=7, num_gates=30, seed=3)
        mutant, _ = mutant_forge(net, seed=8)
        truth = check_equivalence(net, mutant, method="exhaustive").equivalent
        auto = check_equivalence(net, mutant)
        assert auto.equivalent == truth
        if not auto.equivalent:
            _replays(net, mutant, auto)


class TestSweepOnWideNetworks:
    """>16 inputs: exhaustive is out; the sweep must prove and refute."""

    @pytest.mark.parametrize("kind", ["mig", "aig"])
    def test_sweep_proves_wide_rewrite_pair(self, network_forge, kind):
        net = network_forge(
            kind=kind, gate_mix="mixed", num_pis=20, num_gates=90, num_pos=5, seed=6
        )
        optimized = net.copy()
        if kind == "mig":
            rewrite_mig(optimized)
        else:
            optimized = aig_rewrite(optimized)
        outcome = sat_sweep(net, optimized)
        assert outcome.proved, outcome.stats

    def test_sweep_refutes_wide_mutant(self, network_forge, mutant_forge):
        net = network_forge(
            kind="mig", gate_mix="mixed", num_pis=20, num_gates=90, num_pos=5, seed=6
        )
        for mutation_seed in range(40):
            mutant, _ = mutant_forge(net, seed=mutation_seed)
            result = check_equivalence(net, mutant)
            if result.equivalent:
                continue  # masked mutation: fine, draw another
            _replays(net, mutant, result)
            return
        pytest.fail("no refutable mutant in 40 seeds")

    def test_sweep_result_reported_through_dispatch(self, network_forge):
        net = network_forge(kind="mig", gate_mix="aoig", num_pis=18, num_gates=60, seed=12)
        result = check_equivalence(net, net.copy())
        assert result.equivalent
        assert result.method == "sat-sweep"

    def test_sweep_result_carries_solver_statistics(self, network_forge):
        net = network_forge(kind="mig", gate_mix="mixed", num_pis=20, num_gates=90, seed=3)
        optimized = net.copy()
        rewrite_mig(optimized)
        result = check_equivalence(net, optimized, method="sat-sweep")
        assert result.certified and result.stats["sat_calls"] > 0
        for key in ("conflicts", "decisions", "propagations"):
            assert result.stats[key] >= 0


class TestConeScopedQueries:
    """Every sweep query decides only the fanin cone of its two literals."""

    def test_s38417_mig_vs_aig_proof_stays_in_its_cones(self):
        # Deciding every encoded variable per query took 199,496
        # decisions here; the pairs' cones need about 2,000.
        outcome = sat_sweep(build_benchmark("s38417", Mig), build_benchmark("s38417", Aig))
        assert outcome.proved, outcome.stats
        assert outcome.stats["decisions"] < 20_000, outcome.stats
