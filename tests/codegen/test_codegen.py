"""Differential property suite for the per-network code generators.

The contract under test (see the :mod:`repro.codegen` package docstring):
for *any* network state — including after arbitrary in-place mutation
sequences, ``assign_from`` resets and pickle round-trips — the generated
simulation kernel is bit-identical to the interpreted per-gate oracle,
and the IR-driven CNF encoder (``encode_network``) is gate-for-gate
identical to a direct per-gate ``gate_truth_table`` encode of the same
network.  The mutation sequences mirror
``tests/network/test_cuts_incremental.py``; the staleness tests
additionally pin regeneration against every mutation notification class
the kernel emits (retarget, node death, reset).
"""

import pickle
import random

import pytest

from repro.codegen import GraphSimKernel, network_ir
from repro.core import mutate_network
from repro.core.signal import make_signal, negate
from repro.mapping import default_library, map_mig
from repro.verify.cnf import FALSE_LIT, GateGraph, encode_network, eval_gate


def _random_patterns(rng, num_pis, num_bits):
    return [rng.getrandbits(num_bits) for _ in range(num_pis)]


def _oracle_simulation(net, pi_patterns, num_bits):
    """Uncompiled reference: drive ``_eval_gate`` over the topology."""
    mask = (1 << num_bits) - 1
    values = [0] * len(net._fanins)
    for node, pattern in zip(net._pis, pi_patterns):
        values[node] = pattern & mask
    for node in net._topology():
        values[node] = net._eval_gate(values, net._fanins[node], mask)
    return [net._edge_value(values, po, mask) for po in net._pos]


def _oracle_encode(graph, net):
    """Per-gate ``gate_truth_table`` Tseitin encode (the pre-IR walk)."""
    node_lit = {0: FALSE_LIT}
    for index, node in enumerate(net.pi_nodes()):
        node_lit[node] = graph.pi_lit(index)
    for node in net.topological_order():
        in_lits = tuple(node_lit[f >> 1] ^ (f & 1) for f in net.fanins(node))
        node_lit[node] = graph.add_gate(net.gate_truth_table(node), in_lits)
    return [node_lit[po >> 1] ^ (po & 1) for po in net.po_signals()]


def _assert_generated_matches(net, rng, num_bits=192):
    """Kernel == oracle simulation; ``encode_network`` == oracle encode."""
    patterns = _random_patterns(rng, net.num_pis, num_bits)
    expected = _oracle_simulation(net, patterns, num_bits)
    kernel = net.compiled_kernel()
    assert kernel.simulate(patterns, num_bits) == expected
    # The public entry point (whatever tier it picked) must agree too.
    assert net.simulate_patterns(patterns, num_bits) == expected
    assert net.simulate_patterns_interpreted(patterns, num_bits) == expected

    oracle_graph = GateGraph(net.num_pis)
    oracle_pos = _oracle_encode(oracle_graph, net)
    graph = GateGraph(net.num_pis)
    pos = encode_network(graph, net)
    assert graph.gates == oracle_graph.gates
    assert pos == oracle_pos
    assert graph.num_vars == oracle_graph.num_vars


class TestDifferentialAgainstOracle:
    @pytest.mark.parametrize("kind", ["mig", "aig"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_mutation_sequences(self, network_forge, kind, seed):
        rng = random.Random(seed)
        net = network_forge(
            kind=kind, gate_mix="mixed", num_pis=7, num_gates=60, num_pos=5,
            seed=seed,
        )
        _assert_generated_matches(net, rng)
        for step in range(12):
            mutate_network(net, seed=1000 * seed + step, in_place=True)
            _assert_generated_matches(net, rng)

    @pytest.mark.parametrize("kind", ["mig", "aig"])
    def test_assign_from(self, network_forge, kind):
        rng = random.Random(7)
        net = network_forge(kind=kind, num_pis=6, num_gates=40, num_pos=3, seed=5)
        other = network_forge(kind=kind, num_pis=6, num_gates=35, num_pos=3, seed=6)
        _assert_generated_matches(net, rng)
        net.assign_from(other)
        _assert_generated_matches(net, rng)
        assert net.truth_tables() == other.truth_tables()

    @pytest.mark.parametrize("kind", ["mig", "aig"])
    def test_pickle_round_trip(self, network_forge, kind):
        rng = random.Random(11)
        net = network_forge(
            kind=kind, gate_mix="mixed", num_pis=7, num_gates=50, num_pos=4, seed=9
        )
        patterns = _random_patterns(rng, net.num_pis, 128)
        expected = net.simulate_patterns(patterns, 128)
        net.compiled_kernel()
        clone = pickle.loads(pickle.dumps(net))
        # Generated artifacts never cross the pickle boundary.
        for key in ("_codegen_kernel", "_codegen_ir", "_sim_seen_serial"):
            assert key not in clone.__dict__, key
        assert clone.simulate_patterns(patterns, 128) == expected
        _assert_generated_matches(clone, rng)

    def test_uniform_gate_tt_matches_gate_truth_table(self, network_forge):
        # The per-class constant must be exactly what the projection-driven
        # per-node derivation reports, or the IR fast path silently lies.
        for kind, seed in (("mig", 3), ("aig", 4)):
            net = network_forge(kind=kind, gate_mix="maj" if kind == "mig" else "aoig",
                                num_pis=6, num_gates=30, seed=seed)
            assert net.UNIFORM_GATE_TT is not None
            for node in net.topological_order():
                if len(net.fanins(node)) == (3 if kind == "mig" else 2):
                    assert net.gate_truth_table(node) == net.UNIFORM_GATE_TT


class TestAdaptiveTiering:
    def test_second_call_promotes_to_generated_kernel(self, network_forge):
        net = network_forge(kind="mig", num_pis=6, num_gates=40, seed=4)
        patterns = _random_patterns(random.Random(1), net.num_pis, 64)
        first = net.simulate_patterns(patterns, 64)
        assert "_codegen_kernel" not in net.__dict__  # tier 1: closure program
        second = net.simulate_patterns(patterns, 64)
        assert first == second
        kernel = net.__dict__.get("_codegen_kernel")
        assert kernel is not None  # tier 2: generated kernel
        net.simulate_patterns(patterns, 64)
        assert net.__dict__["_codegen_kernel"] is kernel  # reused, not rebuilt

    def test_mutation_demotes_then_repromotes(self, network_forge):
        net = network_forge(kind="aig", gate_mix="mixed", num_pis=6,
                            num_gates=40, seed=8)
        patterns = _random_patterns(random.Random(2), net.num_pis, 64)
        net.simulate_patterns(patterns, 64)
        net.simulate_patterns(patterns, 64)
        stale = net.__dict__["_codegen_kernel"]
        mutate_network(net, seed=13, in_place=True)
        expected = _oracle_simulation(net, patterns, 64)
        assert net.simulate_patterns(patterns, 64) == expected
        # First post-mutation call must not have run the stale kernel.
        assert net.__dict__.get("_codegen_kernel_serial") != net._mutation_serial \
            or net.__dict__["_codegen_kernel"] is not stale
        assert net.simulate_patterns(patterns, 64) == expected
        assert net.__dict__["_codegen_kernel"] is not stale


class TestStalenessPerEventClass:
    """Regeneration across every mutation-notification event class.

    The generators key on ``_mutation_serial`` rather than subscribing to
    the listener protocol, so the property to pin is: each event class's
    underlying mutation moves the serial, and the regenerated artifacts
    match the oracle on the new structure.
    """

    def _charge(self, net, rng):
        return (net.compiled_kernel(), network_ir(net))

    def _assert_regenerated(self, net, rng, old):
        _assert_generated_matches(net, rng)
        assert net.__dict__["_codegen_kernel"] is not old[0]
        assert net.__dict__["_codegen_ir"] is not old[1]

    def test_retarget_event(self, network_forge):
        rng = random.Random(31)
        net = network_forge(kind="mig", gate_mix="mixed", num_pis=7,
                            num_gates=60, num_pos=4, seed=31)
        old = self._charge(net, rng)
        serial = net._mutation_serial
        # A substitution retargets every fanout of the old node in place
        # (the ``network_retargeted`` event class).
        gates = list(net.topological_order())
        target = gates[len(gates) // 2]
        assert net.substitute(target, make_signal(net.pi_nodes()[0]))
        assert net._mutation_serial != serial
        self._assert_regenerated(net, rng, old)

    def test_node_death_event(self, network_forge):
        rng = random.Random(32)
        net = network_forge(kind="mig", gate_mix="mixed", num_pis=7,
                            num_gates=60, num_pos=2, seed=32)
        old = self._charge(net, rng)
        serial = net._mutation_serial
        # Redirecting a PO into the interior and cleaning up kills the
        # now-unreferenced cone (the ``network_node_died`` event class).
        gates = list(net.topological_order())
        net.set_po(0, make_signal(gates[len(gates) // 3]))
        net.cleanup()
        assert net._mutation_serial != serial
        self._assert_regenerated(net, rng, old)

    def test_reset_event(self, network_forge):
        rng = random.Random(33)
        net = network_forge(kind="mig", num_pis=6, num_gates=40, num_pos=3, seed=33)
        other = network_forge(kind="mig", num_pis=6, num_gates=30, num_pos=3, seed=34)
        old = self._charge(net, rng)
        serial = net._mutation_serial
        net.assign_from(other)  # the ``network_reset`` event class
        assert net._mutation_serial != serial
        self._assert_regenerated(net, rng, old)

    def test_po_edit_event(self, network_forge):
        rng = random.Random(34)
        net = network_forge(kind="aig", gate_mix="mixed", num_pis=6,
                            num_gates=40, num_pos=3, seed=35)
        old = self._charge(net, rng)
        serial = net._mutation_serial
        net.set_po(0, negate(net.po_signals()[0]))
        assert net._mutation_serial != serial
        self._assert_regenerated(net, rng, old)


class TestMappedNetlist:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_generated_matches_interpreted(self, seed):
        from repro.core import random_mig

        rng = random.Random(seed)
        mig = random_mig(7, 40, num_pos=5, seed=seed)
        netlist = map_mig(mig, default_library())
        patterns = _random_patterns(rng, netlist.num_pis, 192)
        expected = netlist.simulate_patterns_interpreted(patterns, 192)
        assert netlist.simulate_patterns(patterns, 192) == expected
        # Growing the netlist invalidates the shape-keyed kernel.
        kernel = netlist.__dict__["_codegen_kernel"]
        out = netlist.instances[-1].output
        netlist.add_cell("INV", "cg_extra", [out])
        netlist.add_po("cg_extra", "cg_extra")
        expected = netlist.simulate_patterns_interpreted(patterns, 192)
        assert netlist.simulate_patterns(patterns, 192) == expected
        assert netlist.__dict__["_codegen_kernel"] is not kernel

    def test_pickle_strips_kernel(self):
        from repro.core import random_mig

        netlist = map_mig(random_mig(6, 30, num_pos=3, seed=9), default_library())
        patterns = _random_patterns(random.Random(3), netlist.num_pis, 64)
        expected = netlist.simulate_patterns(patterns, 64)
        clone = pickle.loads(pickle.dumps(netlist))
        assert "_codegen_kernel" not in clone.__dict__
        assert "_codegen_ir" not in clone.__dict__
        assert clone.simulate_patterns(patterns, 64) == expected


class TestNetworkIrCache:
    @pytest.mark.parametrize("kind", ["mig", "aig"])
    def test_hits_and_invalidates(self, network_forge, kind):
        """``network_ir`` is reused while the network is unchanged and
        rebuilt after a mutation; the CNF encoded from the rebuilt IR
        matches the per-gate oracle encode."""
        net = network_forge(kind=kind, gate_mix="mixed", num_pis=6,
                            num_gates=40, seed=19)
        program = network_ir(net)
        assert network_ir(net) is program
        mutate_network(net, seed=20, in_place=True)
        fresh = network_ir(net)
        assert fresh is not program
        assert network_ir(net) is fresh
        oracle = GateGraph(net.num_pis)
        oracle_pos = _oracle_encode(oracle, net)
        graph = GateGraph(net.num_pis)
        assert encode_network(graph, net) == oracle_pos
        assert graph.gates == oracle.gates


class TestGraphSimKernel:
    def test_matches_eval_gate_while_graph_grows(self, network_forge):
        rng = random.Random(23)
        graph = GateGraph(6)
        kernel = GraphSimKernel(graph)
        mask = (1 << 64) - 1
        pi_patterns = [rng.getrandbits(64) for _ in range(6)]
        for round_index in range(4):
            net = network_forge(kind="mig" if round_index % 2 else "aig",
                                gate_mix="mixed", num_pis=6, num_gates=30,
                                seed=40 + round_index)
            encode_network(graph, net)
            values = [0] * graph.num_vars
            oracle = [0] * graph.num_vars
            for i in range(6):
                values[1 + i] = oracle[1 + i] = pi_patterns[i] & mask
            kernel.eval_into(values, mask)
            for var, tt, lits in graph.gates:
                oracle[var] = eval_gate(oracle, tt, lits, mask)
            assert values == oracle, f"divergence after growth round {round_index}"


def _interpreted_exhaustive(first, second):
    """Reference exhaustive sweep: a block loop over the closure program.

    Returns ``(equivalent, counterexample, failing_output)``.
    """
    from repro.verify.equivalence import _input_patterns_block

    num_pis = first.num_pis
    block_bits = 1 << 16
    for start in range(0, 1 << num_pis, block_bits):
        patterns = _input_patterns_block(num_pis, start, block_bits)
        out_first = first.simulate_patterns_interpreted(patterns, block_bits)
        out_second = second.simulate_patterns_interpreted(patterns, block_bits)
        for index, (a, b) in enumerate(zip(out_first, out_second)):
            if a != b:
                diff = a ^ b
                minterm = start + (diff & -diff).bit_length() - 1
                return False, [bool((minterm >> k) & 1) for k in range(num_pis)], index
    return True, None, None


class TestEquivalenceIntegration:
    """``_check_exhaustive`` rides ``simulate_patterns``' promotion."""

    def test_wide_sweep_compiles_and_matches_interpreted(self, network_forge):
        from repro.verify.equivalence import check_equivalence

        net = network_forge(kind="mig", gate_mix="mixed", num_pis=18,
                            num_gates=80, num_pos=4, seed=77)
        mutant = net.copy()
        # Differs from ``net`` only where the two top PIs are both 1, i.e.
        # in the last of the four 2^16-minterm blocks, which the sweep
        # reaches on the promoted kernels.
        pis = [make_signal(node) for node in mutant.pi_nodes()]
        rare = mutant.and_(pis[16], pis[17])
        mutant.set_po(0, mutant.or_(mutant.po_signals()[0], rare))
        for second, equivalent in ((net.copy(), True), (mutant, False)):
            first = net.copy()
            expected = _interpreted_exhaustive(first, second)
            assert expected[0] == equivalent
            result = check_equivalence(first, second, method="exhaustive")
            for target in (first, second):
                assert "_codegen_kernel" in target.__dict__, (
                    "a multi-block sweep did not promote to the compiled kernel"
                )
            assert (
                result.equivalent, result.counterexample, result.failing_output
            ) == expected

    def test_narrow_one_shot_does_not_compile(self, network_forge):
        from repro.verify.equivalence import check_equivalence

        net = network_forge(kind="mig", gate_mix="mixed", num_pis=8,
                            num_gates=40, seed=79)
        twin = net.copy()
        result = check_equivalence(net, twin, method="exhaustive")
        assert result.equivalent
        # A one-shot narrow sweep must not pay the per-network compile.
        assert "_codegen_kernel" not in net.__dict__
        assert "_codegen_kernel" not in twin.__dict__
