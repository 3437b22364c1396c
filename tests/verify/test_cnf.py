"""Tests for the Tseitin CNF encoder (verify/cnf.py)."""

import pytest

from repro.mapping import map_mig
from repro.verify.cnf import (
    FALSE_LIT,
    TRUE_LIT,
    GateGraph,
    encode_network,
)
from repro.verify.sat import SAT, SatSolver


def _models_match_simulation(network, num_pis):
    """Every SAT model under fully-constrained PIs equals the simulator."""
    graph = GateGraph(num_pis)
    po_lits = encode_network(graph, network)
    solver = SatSolver()
    graph.load_into(solver)
    for minterm in range(1 << num_pis):
        bits = [(minterm >> i) & 1 for i in range(num_pis)]
        assumptions = [graph.pi_lit(i) ^ (1 - bits[i]) for i in range(num_pis)]
        assert solver.solve(assumptions) == SAT
        expected = [
            bool(v & 1) for v in network.simulate_patterns(bits, 1)
        ]
        got = [
            bool(lit & 1) if (lit >> 1) == 0 else solver.model_value(lit)
            for lit in po_lits
        ]
        assert got == expected, (minterm, got, expected)


class TestEncoding:
    @pytest.mark.parametrize("kind,gate_mix", [
        ("mig", "aoig"), ("mig", "mixed"), ("mig", "maj"), ("aig", "mixed"),
    ])
    def test_cnf_models_equal_simulation(self, network_forge, kind, gate_mix):
        net = network_forge(kind=kind, gate_mix=gate_mix, num_pis=5, num_gates=25, seed=3)
        _models_match_simulation(net, 5)

    def test_mapped_netlist_encoding(self, network_forge):
        mig = network_forge(kind="mig", gate_mix="mixed", num_pis=5, num_gates=20, seed=9)
        netlist = map_mig(mig)
        _models_match_simulation(netlist, 5)

    def test_gate_graph_simulation_matches_network(self, network_forge):
        net = network_forge(kind="mig", gate_mix="mixed", num_pis=6, num_gates=30, seed=4)
        graph = GateGraph(6)
        po_lits = encode_network(graph, net)
        patterns = [net.truth_tables(), None]  # network ground truth
        pi_patterns = []
        num_bits = 1 << 6
        for i in range(6):
            block = (1 << (1 << i)) - 1
            pattern = 0
            for start in range(1 << i, num_bits, 1 << (i + 1)):
                pattern |= block << start
            pi_patterns.append(pattern)
        values = graph.simulate(pi_patterns, num_bits)
        mask = (1 << num_bits) - 1
        got = [graph.lit_value(values, lit, mask) for lit in po_lits]
        assert got == patterns[0]

    def test_structural_sharing_across_networks(self, network_forge):
        # Encoding the same network twice must not add a second gate set.
        net = network_forge(kind="mig", gate_mix="aoig", num_pis=6, num_gates=30, seed=5)
        graph = GateGraph(6)
        first = encode_network(graph, net)
        gates_after_first = len(graph.gates)
        second = encode_network(graph, net)
        assert len(graph.gates) == gates_after_first
        assert first == second

    def test_constant_folding(self):
        graph = GateGraph(2)
        a = graph.pi_lit(0)
        # AND(a, 0) = 0, AND(a, 1) = a, XOR(a, a) = 0, XOR(a, a') = 1.
        assert graph.add_gate(0x8, (a, FALSE_LIT)) == FALSE_LIT
        assert graph.add_gate(0x8, (a, TRUE_LIT)) == a
        assert graph.add_gate(0x6, (a, a)) == FALSE_LIT
        assert graph.add_gate(0x6, (a, a ^ 1)) == TRUE_LIT
        assert not graph.gates

    def test_output_phase_sharing(self):
        # AND and NAND of the same inputs share one variable.
        graph = GateGraph(2)
        a, b = graph.pi_lit(0), graph.pi_lit(1)
        and_lit = graph.add_gate(0x8, (a, b))
        nand_lit = graph.add_gate(0x7, (a, b))
        assert nand_lit == and_lit ^ 1
        assert len(graph.gates) == 1

    def test_three_input_tt_colliding_with_xor2_value(self):
        # Regression: eval_gate's 2-input fast paths used to dispatch on
        # the truth-table value alone, so a genuine 3-input function whose
        # normalized tt equals 0x6 (or 0x8) was evaluated as a 2-input
        # gate, silently ignoring its third input.
        graph = GateGraph(3)
        lits = [graph.pi_lit(i) for i in range(3)]
        in_lits = [lits[0] ^ 1, lits[2], lits[1]]
        out = graph.add_gate(0x21, in_lits)
        solver = SatSolver()
        graph.load_into(solver)
        for minterm in range(8):
            bits = [(minterm >> i) & 1 for i in range(3)]
            values = graph.simulate(bits, 1)
            ins = [bits[0] ^ 1, bits[2], bits[1]]
            expected = (0x21 >> (ins[0] | (ins[1] << 1) | (ins[2] << 2))) & 1
            assert graph.lit_value(values, out, 1) == expected, minterm
            # CNF semantics must agree with the simulator.
            assumptions = [graph.pi_lit(i) ^ (1 - bits[i]) for i in range(3)]
            assert solver.solve(assumptions) == SAT
            assert solver.model_value(out) == bool(expected), minterm

    def test_pi_count_mismatch_rejected(self, network_forge):
        net = network_forge(num_pis=5, num_gates=10, seed=1)
        with pytest.raises(ValueError):
            encode_network(GateGraph(4), net)
