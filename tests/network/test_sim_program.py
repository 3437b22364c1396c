"""The serial-cached kernel behind ``simulate_patterns``.

``simulate_patterns`` runs a :class:`repro.codegen.SimKernel` built from
the network's flattened program: each PO-reachable gate is bound once to
the shared evaluator of its function, and the kernel is reused while the
network's mutation serial is unchanged.  These tests pin the kernel
against the uncached reference path (``simulate_patterns_interpreted``,
itself checked against a per-gate ``_eval_gate`` walk in
``tests/codegen/test_codegen.py``), across in-place mutations,
``assign_from`` resets and pickling.
"""

import pickle
import random

from repro.core import mutate_network


def _random_patterns(rng, num_pis, num_bits):
    return [rng.getrandbits(num_bits) for _ in range(num_pis)]


class TestSimulationKernel:
    def test_matches_reference_on_both_kinds(self, network_forge):
        rng = random.Random(3)
        for kind in ("mig", "aig"):
            net = network_forge(kind=kind, gate_mix="mixed", num_pis=8,
                                num_gates=60, num_pos=5, seed=17)
            for num_bits in (1, 64, 300):
                patterns = _random_patterns(rng, net.num_pis, num_bits)
                assert net.simulate_patterns(patterns, num_bits) == (
                    net.simulate_patterns_interpreted(patterns, num_bits)
                )

    def test_kernel_is_reused_until_mutation(self, network_forge):
        net = network_forge(kind="mig", num_pis=6, num_gates=40, seed=4)
        patterns = _random_patterns(random.Random(1), net.num_pis, 32)
        net.simulate_patterns(patterns, 32)
        kernel = net.__dict__["_codegen_kernel"]
        net.simulate_patterns(patterns, 32)
        assert net.sim_kernel() is kernel  # unchanged network: same kernel
        mutate_network(net, seed=2, in_place=True)
        assert net.sim_kernel() is not kernel

    def test_rebuilds_after_in_place_mutation(self, network_forge):
        rng = random.Random(9)
        net = network_forge(kind="mig", gate_mix="mixed", num_pis=7,
                            num_gates=50, num_pos=4, seed=23)
        patterns = _random_patterns(rng, net.num_pis, 64)
        net.simulate_patterns(patterns, 64)  # charge the kernel
        for step in range(6):
            mutate_network(net, seed=step, in_place=True)
            assert net.simulate_patterns(patterns, 64) == (
                net.simulate_patterns_interpreted(patterns, 64)
            ), f"stale kernel after mutation {step}"

    def test_rebuilds_after_assign_from(self, network_forge):
        net = network_forge(kind="mig", num_pis=6, num_gates=40, seed=5)
        other = network_forge(kind="mig", num_pis=6, num_gates=35, seed=6)
        patterns = _random_patterns(random.Random(2), 6, 32)
        net.simulate_patterns(patterns, 32)
        net.assign_from(other)
        assert net.simulate_patterns(patterns, 32) == other.simulate_patterns(
            patterns, 32
        )

    def test_pickle_drops_kernel_and_resimulates(self, network_forge):
        net = network_forge(kind="aig", gate_mix="mixed", num_pis=7,
                            num_gates=45, seed=8)
        patterns = _random_patterns(random.Random(4), net.num_pis, 64)
        expected = net.simulate_patterns(patterns, 64)
        clone = pickle.loads(pickle.dumps(net))
        assert "_codegen_kernel" not in clone.__dict__
        assert clone._mutation_listeners == []
        assert clone.simulate_patterns(patterns, 64) == expected

    def test_truth_tables_unchanged(self, network_forge):
        net = network_forge(kind="mig", gate_mix="mixed", num_pis=5,
                            num_gates=30, num_pos=3, seed=12)
        tables = net.truth_tables()
        clone = net.copy()
        assert clone.truth_tables() == tables
