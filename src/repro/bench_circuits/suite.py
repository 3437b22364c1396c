"""The synthetic MCNC-like benchmark suite used by the experiment harness.

The paper evaluates on the largest circuits of the MCNC suite.  That suite
is not redistributable here, so each benchmark is replaced by a
deterministic generator with the *same name*, the *same primary input /
output counts* and a functionally representative structure
(error-correcting logic, array multiplier, adders, ALUs, counters, key
mixing, PLA-style random logic, wide control logic).  This preserves the
comparative shape of Table I: the flows all optimize exactly the same
functions, only the provenance of those functions differs from the paper.

Every generator takes the *network class* to instantiate (``Mig`` by
default, ``Aig`` for the baseline flow) so every flow starts from the same
Boolean functions built the same way.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Type

from ..core.mig import Mig
from .components import (
    alu_slice,
    array_multiplier,
    carry_lookahead_adder,
    equality_comparator,
    hamming_syndrome,
    min_max_unit,
    parity_tree,
    random_sop,
    ripple_adder,
    substitution_box,
)

__all__ = [
    "BenchmarkSpec",
    "BENCHMARKS",
    "benchmark_names",
    "build_benchmark",
    "build_compression_circuit",
]


@dataclass(frozen=True)
class BenchmarkSpec:
    """Descriptor of one synthetic benchmark."""

    name: str
    num_inputs: int
    num_outputs: int
    description: str
    builder: Callable


def _add_pis(net, count: int) -> List[int]:
    return [net.add_pi(f"x{i}") for i in range(count)]


def _add_pos(net, signals: Sequence[int], limit: int) -> None:
    for index, sig in enumerate(signals[:limit]):
        net.add_po(sig, f"y{index}")
    # Pad with parity of all emitted signals when a builder produces fewer
    # signals than the spec requires (keeps I/O counts exact).
    index = min(limit, len(signals))
    while index < limit:
        net.add_po(parity_tree(net, signals[: index + 1]), f"y{index}")
        index += 1


# --------------------------------------------------------------------- #
# Individual benchmark builders
# --------------------------------------------------------------------- #
def _build_c1355(net) -> None:
    """C1355: 32-bit single-error-correcting network (41 in / 32 out)."""
    pis = _add_pis(net, 41)
    data, check = pis[:32], pis[32:41]
    rng = random.Random(1355)
    taps = [rng.sample(range(32), 8) for _ in range(9)]
    syndrome = hamming_syndrome(net, data, taps)
    syndrome = [net.xor_(s, c) for s, c in zip(syndrome, check)]
    outputs = []
    for i in range(32):
        # Correct bit i when the syndrome matches its (randomised) signature.
        signature = [(i >> (b % 5)) & 1 for b in range(9)]
        match = None
        for s_bit, sig in zip(syndrome, signature):
            literal = s_bit if sig else net.not_(s_bit)
            match = literal if match is None else net.and_(match, literal)
        outputs.append(net.xor_(data[i], match))
    _add_pos(net, outputs, 32)


def _build_c1908(net) -> None:
    """C1908: 16-bit ECC/CRC-style network (33 in / 25 out)."""
    pis = _add_pis(net, 33)
    data, check = pis[:16], pis[16:33]
    rng = random.Random(1908)
    taps = [rng.sample(range(16), 6) for _ in range(17)]
    syndrome = hamming_syndrome(net, data, taps)
    syndrome = [net.xor_(s, c) for s, c in zip(syndrome, check)]
    corrected = [net.xor_(d, net.and_(syndrome[i % 17], syndrome[(i + 3) % 17])) for i, d in enumerate(data)]
    extras = [parity_tree(net, syndrome[i : i + 5]) for i in range(9)]
    _add_pos(net, corrected + extras, 25)


def _build_c6288(net) -> None:
    """C6288: 16×16 array multiplier (32 in / 32 out)."""
    pis = _add_pis(net, 32)
    product = array_multiplier(net, pis[:16], pis[16:32])
    _add_pos(net, product, 32)


def _build_bigkey(net) -> None:
    """bigkey: wide key-mixing logic (487 in / 421 out)."""
    pis = _add_pis(net, 487)
    key, text = pis[:64], pis[64:487]
    outputs: List[int] = []
    rng = random.Random(487)
    for block_start in range(0, 420, 4):
        block = [text[(block_start + i) % len(text)] for i in range(4)]
        key_slice = [key[(block_start // 4 + i) % 64] for i in range(4)]
        mixed = [net.xor_(t, k) for t, k in zip(block, key_slice)]
        outputs.extend(substitution_box(net, mixed, seed=rng.randint(0, 10**6)))
    outputs.append(parity_tree(net, key))
    _add_pos(net, outputs, 421)


def _build_my_adder(net) -> None:
    """my_adder: 16-bit ripple-carry adder with carry-in (33 in / 17 out)."""
    pis = _add_pis(net, 33)
    sums, carry = ripple_adder(net, pis[:16], pis[16:32], pis[32])
    _add_pos(net, sums + [carry], 17)


def _build_cla(net) -> None:
    """cla: 64-bit carry-lookahead adder (129 in / 65 out)."""
    pis = _add_pis(net, 129)
    sums, carry = carry_lookahead_adder(net, pis[:64], pis[64:128], pis[128], block=4)
    _add_pos(net, sums + [carry], 65)


def _build_dalu(net) -> None:
    """dalu: dedicated 16-bit ALU with status flags (75 in / 16 out)."""
    pis = _add_pis(net, 75)
    a, b, op = pis[:16], pis[16:32], pis[32:34]
    mask = pis[34:50]
    control = pis[50:75]
    alu_out = alu_slice(net, a, b, op)
    masked = [net.and_(o, m) for o, m in zip(alu_out, mask)]
    folded = [net.xor_(m, control[i % len(control)]) for i, m in enumerate(masked)]
    _add_pos(net, folded, 16)


def _build_b9(net) -> None:
    """b9: small random control logic (41 in / 21 out)."""
    pis = _add_pis(net, 41)
    outputs = random_sop(net, pis, num_outputs=21, num_terms=30, literals_per_term=4, seed=9)
    _add_pos(net, outputs, 21)


def _build_count(net) -> None:
    """count: 16-bit counter next-state logic with load/enable (35 in / 16 out)."""
    pis = _add_pis(net, 35)
    state, load_value = pis[:16], pis[16:32]
    load, enable, clear = pis[32], pis[33], pis[34]
    one = net.constant(True)
    incremented, _ = ripple_adder(net, state, [net.constant(False)] * 16, one)
    outputs = []
    for bit, inc, ld in zip(state, incremented, load_value):
        counted = net.mux_(enable, inc, bit)
        loaded = net.mux_(load, ld, counted)
        outputs.append(net.and_(net.not_(clear), loaded))
    _add_pos(net, outputs, 16)


def _build_alu4(net) -> None:
    """alu4: 4-bit ALU slice from the PLA family (14 in / 8 out)."""
    pis = _add_pis(net, 14)
    a, b, op = pis[:4], pis[4:8], pis[8:10]
    carries = pis[10:14]
    alu_out = alu_slice(net, a, b, op)
    flags = [
        equality_comparator(net, a, b),
        parity_tree(net, alu_out),
        net.and_(carries[0], net.or_(carries[1], carries[2])),
        net.xor_(carries[3], alu_out[-1]),
    ]
    _add_pos(net, alu_out + flags, 8)


def _build_clma(net) -> None:
    """clma: wide control/datapath logic (416 in / 115 out)."""
    pis = _add_pis(net, 416)
    outputs: List[int] = []
    rng = random.Random(416)
    # Several medium blocks over (overlapping) input slices keep the cones
    # narrow enough for every baseline flow while producing a large network.
    for block in range(23):
        start = (block * 17) % 380
        slice_inputs = pis[start : start + 24]
        outputs.extend(
            random_sop(net, slice_inputs, num_outputs=4, num_terms=18, literals_per_term=5, seed=rng.randint(0, 10**6))
        )
    sums, carry = ripple_adder(net, pis[380:396], pis[396:412], pis[412])
    outputs.extend(sums[:22])
    outputs.append(carry)
    _add_pos(net, outputs, 115)


def _build_mm30a(net) -> None:
    """mm30a: 30-stage min/max sorting network slice (124 in / 120 out)."""
    pis = _add_pis(net, 124)
    width = 4
    outputs: List[int] = []
    previous = pis[:width]
    for stage in range(30):
        start = width + stage * width
        current = pis[start : start + width]
        if len(current) < width:
            current = (current + pis[:width])[:width]
        minimum, maximum = min_max_unit(net, previous, current)
        outputs.extend(minimum)
        previous = maximum
    _add_pos(net, outputs, 120)


def _build_s38417(net) -> None:
    """s38417: combinational core of a large sequential design (1494/1571)."""
    pis = _add_pis(net, 1494)
    outputs: List[int] = []
    rng = random.Random(38417)
    # Wide collection of small next-state functions over narrow input cones.
    for index in range(1565):
        start = (index * 7) % 1470
        cone = pis[start : start + 8]
        a = net.xor_(cone[0], cone[1])
        b = net.and_(cone[2], net.not_(cone[3]))
        c = net.or_(cone[4], cone[5])
        d = net.mux_(cone[6], a, b)
        outputs.append(net.xor_(d, net.and_(c, cone[7])))
    outputs.append(parity_tree(net, pis[:32]))
    outputs.extend(random_sop(net, pis[100:120], num_outputs=5, num_terms=12, literals_per_term=4, seed=rng.randint(0, 10**6)))
    _add_pos(net, outputs, 1571)


def _build_misex3(net) -> None:
    """misex3: PLA-style random two-level logic (14 in / 14 out)."""
    pis = _add_pis(net, 14)
    outputs = random_sop(net, pis, num_outputs=14, num_terms=40, literals_per_term=6, seed=3)
    _add_pos(net, outputs, 14)


BENCHMARKS: Dict[str, BenchmarkSpec] = {
    spec.name: spec
    for spec in [
        BenchmarkSpec("C1355", 41, 32, "32-bit error-correcting network", _build_c1355),
        BenchmarkSpec("C1908", 33, 25, "16-bit ECC/CRC network", _build_c1908),
        BenchmarkSpec("C6288", 32, 32, "16x16 array multiplier", _build_c6288),
        BenchmarkSpec("bigkey", 487, 421, "wide key-mixing logic", _build_bigkey),
        BenchmarkSpec("my_adder", 33, 17, "16-bit ripple-carry adder", _build_my_adder),
        BenchmarkSpec("cla", 129, 65, "64-bit carry-lookahead adder", _build_cla),
        BenchmarkSpec("dalu", 75, 16, "dedicated ALU with flags", _build_dalu),
        BenchmarkSpec("b9", 41, 21, "small random control logic", _build_b9),
        BenchmarkSpec("count", 35, 16, "16-bit counter next-state logic", _build_count),
        BenchmarkSpec("alu4", 14, 8, "4-bit ALU slice", _build_alu4),
        BenchmarkSpec("clma", 416, 115, "wide control/datapath logic", _build_clma),
        BenchmarkSpec("mm30a", 124, 120, "min/max sorting network slice", _build_mm30a),
        BenchmarkSpec("s38417", 1494, 1571, "combinational core, many small cones", _build_s38417),
        BenchmarkSpec("misex3", 14, 14, "PLA-style random logic", _build_misex3),
    ]
}


def benchmark_names() -> List[str]:
    """Benchmark names in the order of Table I."""
    return list(BENCHMARKS.keys())


def build_benchmark(name: str, network_cls: Type = Mig):
    """Instantiate benchmark ``name`` as a ``network_cls`` network.

    Resolves Table I names first, then the scalable presets of
    :mod:`repro.bench_circuits.generator` (``benchmark_names()`` stays
    Table-I-only so corpus sweeps keep their scale).
    """
    try:
        spec = BENCHMARKS[name]
    except KeyError as exc:
        from .generator import SCALABLE_BENCHMARKS, build_scalable

        if name in SCALABLE_BENCHMARKS:
            return build_scalable(name, network_cls)
        raise KeyError(
            f"unknown benchmark {name!r}; available: "
            f"{', '.join(BENCHMARKS)}, {', '.join(SCALABLE_BENCHMARKS)}"
        ) from exc
    net = network_cls()
    net.name = spec.name
    spec.builder(net)
    if net.num_pis != spec.num_inputs or net.num_pos != spec.num_outputs:
        raise AssertionError(
            f"benchmark {name}: generated {net.num_pis}/{net.num_pos} I/O, "
            f"expected {spec.num_inputs}/{spec.num_outputs}"
        )
    return net


def build_compression_circuit(num_blocks: int = 512, network_cls: Type = Mig):
    """The "large logic compression circuit" of Section V-A.2 (scaled down).

    A dictionary-coder-like structure: per block, match detection against a
    small dictionary plus an XOR-folding stage.  ``num_blocks`` scales the
    size; the default produces tens of thousands of nodes, the spirit of the
    paper's 0.3M-node instance at a size tractable for a Python flow.
    """
    net = network_cls()
    net.name = f"compression_{num_blocks}"
    dictionary = [net.add_pi(f"d{i}") for i in range(32)]
    stream = [net.add_pi(f"s{i}") for i in range(256)]
    outputs: List[int] = []
    for block in range(num_blocks):
        offset = (block * 11) % 248
        window = stream[offset : offset + 8]
        dict_slice = dictionary[(block * 5) % 24 : (block * 5) % 24 + 8]
        match = equality_comparator(net, window, dict_slice)
        folded = parity_tree(net, [net.xor_(w, d) for w, d in zip(window, dict_slice)])
        outputs.append(net.mux_(match, folded, window[block % 8]))
    for index, sig in enumerate(outputs):
        net.add_po(sig, f"y{index}")
    return net
