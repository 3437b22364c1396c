"""Scalable benchmark generator: parametric families up to 10^6 nodes.

The Table I suite (:mod:`repro.bench_circuits.suite`) tops out in the
tens of thousands of gates — the right scale for whole-flow experiments,
two orders of magnitude short of the ROADMAP's million-gate headline.
This module grows three parametric families to the 10^5–10^6 node
range, built from the same builder-agnostic components (so every family
instantiates as a MIG or an AIG) and **seeded deterministic**: the same
name always produces the same structure, so a scaling measurement (size,
depth, wall time of the whole-network passes at each preset) is
comparable across code versions.

* ``multiplier`` — a ``width x width`` unsigned array multiplier; gate
  count grows quadratically (~7.7k gates at width 32), dominated by
  deep, long and narrow carry chains.
* ``adder_tree`` — a balanced reduction tree summing ``operands``
  ``width``-bit inputs; linear in ``operands``, log-depth, with wide
  middle levels.
* ``random_logic`` — PLA-style random blocks over narrow overlapping
  input cones; linear in ``blocks`` and shallow — the scaling workhorse
  up to 10^6 gates.

Named presets live in :data:`SCALABLE_BENCHMARKS` and resolve through
:func:`repro.bench_circuits.build_benchmark` alongside the Table I
names (Table I wins on a name clash; there is none today).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Type

from ..core.mig import Mig
from .components import array_multiplier, random_sop, ripple_adder

__all__ = [
    "ScalableSpec",
    "SCALABLE_BENCHMARKS",
    "scalable_names",
    "build_scalable",
    "gen_multiplier",
    "gen_adder_tree",
    "gen_random_logic",
]


def gen_multiplier(net, width: int) -> None:
    """``width x width`` unsigned array multiplier (2*width outputs)."""
    a = [net.add_pi(f"a{i}") for i in range(width)]
    b = [net.add_pi(f"b{i}") for i in range(width)]
    for index, signal in enumerate(array_multiplier(net, a, b)):
        net.add_po(signal, f"p{index}")


def gen_adder_tree(net, width: int, operands: int) -> None:
    """Balanced reduction tree summing ``operands`` ``width``-bit inputs."""
    if operands < 2:
        raise ValueError(f"adder_tree needs >= 2 operands, got {operands}")
    zero = net.constant(False)
    current: List[List[int]] = [
        [net.add_pi(f"x{j}_{i}") for i in range(width)] for j in range(operands)
    ]
    while len(current) > 1:
        reduced: List[List[int]] = []
        for i in range(0, len(current) - 1, 2):
            sums, carry = ripple_adder(net, current[i], current[i + 1], zero)
            reduced.append(sums + [carry])
        if len(current) % 2:
            reduced.append(current[-1])
        # Equalize operand widths (a carry-out widens each level) so the
        # next level's ripple adders see matching buses.
        top = max(len(bus) for bus in reduced)
        current = [bus + [zero] * (top - len(bus)) for bus in reduced]
    for index, signal in enumerate(current[0]):
        net.add_po(signal, f"s{index}")


def gen_random_logic(
    net,
    blocks: int,
    num_pis: int = 256,
    block_inputs: int = 16,
    outputs_per_block: int = 2,
    num_terms: int = 12,
    literals_per_term: int = 5,
    seed: int = 7,
) -> None:
    """PLA-style random blocks over narrow, overlapping input cones."""
    pis = [net.add_pi(f"x{i}") for i in range(num_pis)]
    rng = random.Random(seed)
    stride = max(1, num_pis - block_inputs)
    outputs: List[int] = []
    for block in range(blocks):
        start = (block * 13) % stride
        cone = pis[start : start + block_inputs]
        outputs.extend(
            random_sop(
                net,
                cone,
                num_outputs=outputs_per_block,
                num_terms=num_terms,
                literals_per_term=literals_per_term,
                seed=rng.randint(0, 10**6),
            )
        )
    for index, signal in enumerate(outputs):
        net.add_po(signal, f"y{index}")
    # random_sop leaves ~40% of its product terms unreferenced; sweep them
    # so the preset's gate count states the *live* network size the perf
    # lanes actually optimize.
    net.cleanup()


@dataclass(frozen=True)
class ScalableSpec:
    """Descriptor of one named scalable benchmark preset.

    ``approx_gates`` is the measured MIG gate count (suite regression
    tests hold each preset within ±20% of it, so a component change that
    silently shifts the scale of the perf lanes fails loudly).
    """

    name: str
    family: str
    approx_gates: int
    description: str
    builder: Callable
    params: Dict[str, int] = field(default_factory=dict)


def _spec(name, family, approx, description, builder, **params) -> ScalableSpec:
    return ScalableSpec(name, family, approx, description, builder, params)


SCALABLE_BENCHMARKS: Dict[str, ScalableSpec] = {
    spec.name: spec
    for spec in [
        _spec(
            "mult_48", "multiplier", 17_904,
            "48x48 array multiplier (smoke scale)", gen_multiplier, width=48,
        ),
        _spec(
            "mult_128", "multiplier", 129_664,
            "128x128 array multiplier (10^5 lane)", gen_multiplier, width=128,
        ),
        _spec(
            "mult_360", "multiplier", 1_026_000,
            "360x360 array multiplier (10^6 lane)", gen_multiplier, width=360,
        ),
        _spec(
            "adder_tree_64", "adder_tree", 14_259,
            "64 x 32-bit reduction tree (smoke scale)",
            gen_adder_tree, width=32, operands=64,
        ),
        _spec(
            "adder_tree_512", "adder_tree", 115_934,
            "512 x 32-bit reduction tree (10^5 lane)",
            gen_adder_tree, width=32, operands=512,
        ),
        _spec(
            "adder_tree_4096", "adder_tree", 930_000,
            "4096 x 32-bit reduction tree (10^6 lane)",
            gen_adder_tree, width=32, operands=4096,
        ),
        _spec(
            "rand_400", "random_logic", 12_659,
            "400 random PLA blocks (smoke scale)", gen_random_logic, blocks=400,
        ),
        _spec(
            "rand_3500", "random_logic", 100_196,
            "3500 random PLA blocks (10^5 lane)", gen_random_logic, blocks=3500,
        ),
        _spec(
            "rand_42000", "random_logic", 1_034_207,
            "42000 random PLA blocks (10^6 lane)", gen_random_logic, blocks=42000,
        ),
    ]
}


def scalable_names() -> List[str]:
    """Preset names ordered smallest-first within each family."""
    return list(SCALABLE_BENCHMARKS)


def build_scalable(name: str, network_cls: Type = Mig):
    """Instantiate scalable preset ``name`` as a ``network_cls`` network."""
    try:
        spec = SCALABLE_BENCHMARKS[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown scalable benchmark {name!r}; "
            f"available: {', '.join(SCALABLE_BENCHMARKS)}"
        ) from exc
    net = network_cls()
    net.name = spec.name
    spec.builder(net, **spec.params)
    return net
