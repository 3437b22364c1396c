"""The wide half of ``check_equivalence``'s auto dispatch is one stage.

Past the exhaustive limit the auto path runs ``sat_sweep`` with
``initial_patterns=num_random_vectors``: the sweep draws its initial
patterns from ``random.Random(seed)`` exactly as the random backend
does, so its simulation before encoding *is* the random check, and its
candidate signatures start that wide.  These tests pin the parity of
the two verdicts, the single simulation per network, and the SAT calls
the wide signatures save.
"""

from unittest import mock

import pytest

from repro.aig import Aig
from repro.bench_circuits import build_benchmark
from repro.core import Mig, mutate_network
from repro.network.base import LogicNetwork
from repro.verify import check_equivalence
from repro.verify import sweep


@pytest.fixture(scope="module")
def clma():
    return build_benchmark("clma", Mig)


@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize("num_vectors", [64, 300, 4096])
def test_auto_refutation_matches_random_backend(clma, seed, num_vectors):
    """Same first differing output and counterexample as ``method="random"``
    with the same seed and vector count; only the label differs."""
    for mutant_seed in range(6):
        mutant, _ = mutate_network(clma, seed=mutant_seed)
        auto = check_equivalence(clma, mutant, num_random_vectors=num_vectors, seed=seed)
        sampled = check_equivalence(
            clma, mutant, num_random_vectors=num_vectors, seed=seed, method="random"
        )
        assert not sampled.equivalent
        assert not auto.equivalent
        assert auto.method == "sat-sweep"
        assert auto.failing_output == sampled.failing_output
        assert auto.counterexample == sampled.counterexample
        assert auto.stats["sat_calls"] == 0
        assert auto.stats["patterns"] == num_vectors


def _count_simulations(first, second, **options):
    """Run the auto dispatch; return per-network ``simulate_patterns`` call
    counts at the first ``encode_network`` call and at the end."""
    calls = {id(first): 0, id(second): 0}
    at_encoding = []
    simulate = LogicNetwork.simulate_patterns
    encode = sweep.encode_network

    def counting_simulate(self, patterns, num_bits):
        calls[id(self)] += 1
        return simulate(self, patterns, num_bits)

    def recording_encode(*args, **kwargs):
        if not at_encoding:
            at_encoding.append(dict(calls))
        return encode(*args, **kwargs)

    with mock.patch.object(LogicNetwork, "simulate_patterns", counting_simulate), \
            mock.patch.object(sweep, "encode_network", recording_encode):
        result = check_equivalence(first, second, **options)
    return result, at_encoding[0], calls


def test_auto_path_simulates_each_network_once():
    first = build_benchmark("C1355", Mig)
    second = build_benchmark("C1355", Aig)
    result, at_encoding, total = _count_simulations(first, second)
    assert result.equivalent and result.certified and result.method == "sat-sweep"
    assert at_encoding == {id(first): 1, id(second): 1}
    assert total == at_encoding
    assert result.stats["patterns"] - result.stats["refinements"] == 4096


def test_sat_options_initial_patterns_wins():
    """An explicit ``initial_patterns`` in ``sat_options`` sets the width."""
    first = build_benchmark("C1355", Mig)
    second = build_benchmark("C1355", Aig)
    result = check_equivalence(first, second, sat_options={"initial_patterns": 256})
    assert result.equivalent and result.certified
    assert result.stats["patterns"] - result.stats["refinements"] == 256


def test_c1355_proof_takes_few_sat_calls():
    """4,096-bit signatures leave C1355's MIG-vs-AIG proof almost no false
    candidates to refute (296 SAT calls from 128-bit signatures)."""
    result = check_equivalence(build_benchmark("C1355", Mig), build_benchmark("C1355", Aig))
    assert result.equivalent and result.certified and result.method == "sat-sweep"
    assert result.stats["sat_calls"] <= 50
