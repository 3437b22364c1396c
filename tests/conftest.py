"""Shared fuzz infrastructure for the whole test-suite.

Every property/fuzz test draws its networks from one seeded generator —
:func:`repro.core.generation.random_network` — instead of hand-rolling
ad-hoc construction loops per test file.  The fixtures are session-scoped
factories (plain functions, no state), which also makes them safe to
combine with ``hypothesis.given``.

``network_forge``
    ``forge(kind="mig"|"aig", gate_mix="aoig"|"maj"|"mixed", num_pis=...,
    num_gates=..., num_pos=..., seed=..., depth_bias=...)`` — a fresh
    seeded random network.

``mutant_forge``
    ``mutate(network, seed)`` — a copy of ``network`` with one seeded
    single-gate fault injected (complemented PO, complemented fanin edge,
    or rewired fanin); returns ``(mutant, description)``.

``rare_mutant_forge``
    ``rare(network, po=0, width=16)`` — a copy of ``network`` whose PO
    ``po`` is XORed with the AND of its first ``width`` primary inputs:
    the pair differs on one minterm in ``2**width``, so random patterns
    almost never separate it and a refutation has to come from SAT.
"""

import pytest

from repro.aig.aig import Aig
from repro.core import Mig, mutate_network, random_network, rare_difference_mutant

_NETWORK_CLASSES = {"mig": Mig, "aig": Aig}


def forge_network(
    kind: str = "mig",
    gate_mix: str = "aoig",
    num_pis: int = 6,
    num_gates: int = 30,
    num_pos: int = 3,
    seed: int = 1,
    depth_bias: float = 0.0,
    complemented_edge_probability: float = 0.3,
):
    """Build one seeded random network (module-level for direct import)."""
    try:
        network_cls = _NETWORK_CLASSES[kind]
    except KeyError as exc:
        raise ValueError(f"unknown network kind {kind!r}") from exc
    return random_network(
        network_cls,
        num_pis=num_pis,
        num_gates=num_gates,
        num_pos=num_pos,
        seed=seed,
        gate_mix=gate_mix,
        depth_bias=depth_bias,
        complemented_edge_probability=complemented_edge_probability,
    )


@pytest.fixture(scope="session")
def network_forge():
    """Factory fixture: seeded random MIG/AIG networks for fuzz tests."""
    return forge_network


@pytest.fixture(scope="session")
def mutant_forge():
    """Factory fixture: seeded single-gate mutants for refutation tests."""
    return mutate_network


@pytest.fixture(scope="session")
def rare_mutant_forge():
    """Factory fixture: mutants that differ from their base on one minterm
    in ``2**width`` (for refutations random patterns cannot find)."""
    return rare_difference_mutant
