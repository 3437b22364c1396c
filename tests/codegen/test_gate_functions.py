"""The per-function gate evaluators and the network simulation kernel.

``gate_function(tt, k)`` is generated once per truth table and arity;
``bind_gate(tt, edges)`` folds the edge complements into the table and
returns the evaluator of the result.  They evaluate every simulated gate:
the sweeper's signatures, ``GateGraph.simulate``, ``GraphSimKernel``,
``eval_gate`` and the ``SimKernel`` behind ``simulate_patterns``.  The
evaluators are checked here against a minterm-by-minterm reference, and
the kernel against ``simulate_patterns_interpreted`` (one static loop per
network kind).
"""

import gc
import random

import pytest

from repro.codegen.simgen import bind_gate, gate_function
from repro.verify.cnf import GateGraph, encode_network, eval_gate


def _reference_eval(values, tt, lits, mask):
    """Minterm-by-minterm evaluation of ``tt`` over (complemented) lits."""
    k = len(lits)
    out = 0
    for m in range(1 << k):
        if not (tt >> m) & 1:
            continue
        term = mask
        for i in range(k):
            v = values[lits[i] >> 1] ^ (mask if lits[i] & 1 else 0)
            term &= v if (m >> i) & 1 else ~v & mask
        out |= term
    return out


def _random_words(rng, count, num_bits):
    # Variable 0 is the pinned constant, as in every gate graph.
    return [0] + [rng.getrandbits(num_bits) for _ in range(count)]


def _check_table(rng, tt, k, num_bits=96):
    mask = (1 << num_bits) - 1
    values = _random_words(rng, 8, num_bits)
    variables = rng.sample(range(1, 9), k)
    lits = tuple(var << 1 for var in variables)
    assert gate_function(tt, k)(values, lits, mask) == _reference_eval(
        values, tt, lits, mask
    ), (hex(tt), k)
    # bind_gate (and eval_gate through it) folds complemented inputs into
    # the table first.
    flipped = tuple(lit | rng.randrange(2) for lit in lits)
    expected = _reference_eval(values, tt, flipped, mask)
    assert bind_gate(tt, flipped)(values, flipped, mask) == expected, (
        hex(tt), k, flipped
    )
    assert eval_gate(values, tt, flipped, mask) == expected, (hex(tt), k, flipped)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_every_table_of_up_to_three_inputs(k):
    rng = random.Random(k)
    for tt in range(1 << (1 << k)):
        _check_table(rng, tt, k)


def test_sampled_four_input_tables():
    rng = random.Random(4)
    for tt in [0, 0xFFFF, 0x6996, 0x8000, 0xFFFE] + [rng.getrandbits(16) for _ in range(400)]:
        _check_table(rng, tt, 4)


def test_evaluators_are_shared_per_function():
    assert gate_function(0xE8, 3) is gate_function(0xE8, 3)
    assert gate_function(0x6, 2) is not gate_function(0x6, 3)
    # Bound per complement mask, not per edge: the variables do not matter.
    assert bind_gate(0xE8, (2, 5, 6)) is bind_gate(0xE8, (8, 11, 12))
    assert bind_gate(0xE8, (2, 4, 6)) is gate_function(0xE8, 3)
    # MAJ(!a, b, c) is not MAJ(a, b, c).
    assert bind_gate(0xE8, (3, 4, 6)) is not gate_function(0xE8, 3)


def test_gate_graph_simulate_matches_reference(network_forge):
    rng = random.Random(11)
    graph = GateGraph(8)
    for seed, kind in ((1, "mig"), (2, "aig")):
        encode_network(graph, network_forge(kind=kind, gate_mix="mixed",
                                            num_pis=8, num_gates=60, seed=seed))
    patterns = [rng.getrandbits(128) for _ in range(8)]
    mask = (1 << 128) - 1
    expected = [0] + patterns + [0] * (graph.num_vars - 9)
    for var, tt, lits in graph.gates:
        expected[var] = _reference_eval(expected, tt, lits, mask)
    assert graph.simulate(patterns, 128) == expected


@pytest.mark.parametrize("kind", ["mig", "aig"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_interpreted_program_matches_kernel(network_forge, kind, seed):
    net = network_forge(kind=kind, gate_mix="mixed", num_pis=10, num_gates=120,
                        num_pos=6, seed=seed)
    rng = random.Random(seed)
    for num_bits in (1, 64, 200):
        patterns = [rng.getrandbits(num_bits) for _ in range(net.num_pis)]
        assert net.simulate_patterns_interpreted(patterns, num_bits) == (
            net.sim_kernel().simulate(patterns, num_bits)
        )


@pytest.mark.parametrize("kind", ["mig", "aig"])
def test_cached_program_holds_no_tracked_objects(network_forge, kind):
    """The cached kernel adds no per-gate object for the collector to track:
    its program is integer tuples, its evaluators are shared functions."""
    net = network_forge(kind=kind, num_pis=8, num_gates=80, seed=5)
    net.simulate_patterns([1] * net.num_pis, 1)
    gc.collect()
    kernel = net.__dict__["_codegen_kernel"]
    gates = kernel.program.gates
    assert gates and all(isinstance(entry, tuple) for entry in gates)
    assert not any(gc.is_tracked(entry) for entry in gates)
    arity = 3 if kind == "mig" else 2
    assert len(kernel._functions) == len(gates)
    assert len({id(fn) for fn in kernel._functions}) <= 1 << arity
