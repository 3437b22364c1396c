"""Simulation before encoding in the SAT sweeper (verify/sweep.py).

``sat_sweep`` first simulates both networks on its initial random
patterns and refutes the first primary-output pair that differs there,
before a single gate is encoded.  These tests pin that step (no gate
encoded, no SAT call, a counterexample that replays, the same stats keys
as a full sweep) and keep the SAT refutation path covered with pairs the
initial patterns cannot separate.
"""

import random
from unittest import mock

import pytest

from repro.core import mutate_network
from repro.verify import check_equivalence
from repro.verify.sat import SAT
from repro.verify.sweep import _Sweeper, sat_sweep

#: ``sat_sweep``'s defaults: the seed and width of its initial patterns
#: and the budget of its final per-output queries.
_SEED = 7
_INITIAL_BITS = 128
_OUTPUT_BUDGET = 200_000


def _replays(first, second, outcome):
    patterns = [1 if bit else 0 for bit in outcome.counterexample]
    index = outcome.failing_output
    return (
        first.simulate_patterns(patterns, 1)[index]
        ^ second.simulate_patterns(patterns, 1)[index]
    ) & 1


def _initial_patterns(num_pis):
    rng = random.Random(_SEED)
    return [rng.getrandbits(_INITIAL_BITS) for _ in range(num_pis)]


def _first_difference(first, second):
    """``(output, bit)`` of the first PO pair differing on the initial
    patterns, or ``None``."""
    patterns = _initial_patterns(first.num_pis)
    outputs = zip(
        first.simulate_patterns(patterns, _INITIAL_BITS),
        second.simulate_patterns(patterns, _INITIAL_BITS),
    )
    for index, (a, b) in enumerate(outputs):
        if a != b:
            diff = a ^ b
            return index, (diff & -diff).bit_length() - 1
    return None


def _sweep_recording_decisions(first, second, **options):
    """``sat_sweep`` plus every ``decide_pair`` call as ``(budget, verdict)``."""
    decisions = []
    decide = _Sweeper.decide_pair

    def recording(self, a, b, budget):
        verdict = decide(self, a, b, budget)
        decisions.append((budget, verdict))
        return verdict

    with mock.patch.object(_Sweeper, "decide_pair", recording):
        outcome = sat_sweep(first, second, **options)
    return outcome, decisions


def test_initial_pattern_mismatch_is_refuted_before_encoding(network_forge, rare_mutant_forge):
    base = network_forge(kind="mig", gate_mix="mixed", num_pis=20,
                         num_gates=300, num_pos=8, seed=3)
    mutant, _ = mutate_network(base, seed=5)
    difference = _first_difference(base, mutant)
    assert difference is not None
    index, bit = difference

    outcome = sat_sweep(base, mutant)
    assert outcome.status == "inequivalent"
    assert outcome.stats["sat_calls"] == 0, outcome.stats
    assert outcome.stats["loaded_gates"] == 0, outcome.stats
    assert outcome.stats["gates"] == 0, outcome.stats
    assert outcome.stats["conflicts"] == outcome.stats["decisions"] == 0
    # Only the constant's unit clause, propagated when the sweeper is built.
    fresh = _Sweeper(base.num_pis, _SEED, _INITIAL_BITS, merge_conflict_budget=2_000,
                     max_refinements=512)
    assert outcome.stats["propagations"] == fresh.solver.num_propagations
    assert outcome.stats["patterns"] == _INITIAL_BITS
    # The first differing output, read at its lowest differing bit.
    assert outcome.failing_output == index
    patterns = _initial_patterns(base.num_pis)
    assert outcome.counterexample == [bool(p >> bit & 1) for p in patterns]
    assert _replays(base, mutant, outcome)

    # Every stats key a full sweep reports, refuted or proved.
    refuted_by_sat = sat_sweep(base, rare_mutant_forge(base))
    assert refuted_by_sat.stats["sat_calls"] > 0
    proved = sat_sweep(base, base.copy())
    assert proved.proved
    assert set(outcome.stats) == set(refuted_by_sat.stats) == set(proved.stats)


@pytest.mark.parametrize("kind", ["mig", "aig"])
@pytest.mark.parametrize("seed", [1, 2])
def test_rare_difference_is_refuted_through_sat(network_forge, rare_mutant_forge, kind, seed):
    base = network_forge(kind=kind, gate_mix="mixed", num_pis=20,
                         num_gates=300, num_pos=8, seed=seed)
    mutant = rare_mutant_forge(base, po=seed)
    assert _first_difference(base, mutant) is None

    outcome = sat_sweep(base, mutant)
    assert outcome.status == "inequivalent", outcome.stats
    assert outcome.failing_output == seed
    assert outcome.stats["sat_calls"] > 0, outcome.stats
    assert _replays(base, mutant, outcome)
    # The auto dispatch's 4,096 initial patterns miss it too.
    result = check_equivalence(base, mutant)
    assert not result.equivalent
    assert result.method == "sat-sweep"
    assert result.stats["sat_calls"] > 0


@pytest.mark.parametrize("kind", ["mig", "aig"])
def test_final_output_query_yields_the_counterexample(network_forge, rare_mutant_forge, kind):
    # With no refinements the signatures keep only the initial patterns,
    # so the difference survives encoding and the output's own query,
    # not a learned pattern, has to find it.
    base = network_forge(kind=kind, gate_mix="mixed", num_pis=20,
                         num_gates=300, num_pos=8, seed=3)
    mutant = rare_mutant_forge(base)
    outcome, decisions = _sweep_recording_decisions(base, mutant, max_refinements=0)
    assert outcome.status == "inequivalent", outcome.stats
    assert outcome.failing_output == 0
    assert outcome.stats["refinements"] == 0, outcome.stats
    assert decisions[-1] == (_OUTPUT_BUDGET, SAT)
    assert _replays(base, mutant, outcome)
