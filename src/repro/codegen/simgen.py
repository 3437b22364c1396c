"""Word-parallel simulation through per-function gate evaluators.

:func:`gate_function` generates one Python function per gate truth table
and arity from :func:`gate_expression` — a single bitwise expression —
and shares it among every gate computing that function, so evaluating a
gate is one call with no per-gate dispatch on its kind.  The expression
for a majority gate is literally::

    (v1 & v2) | (v1 & v3) | (v2 & v3)

Truth tables of (the complement of) a parity function lower to an XOR
chain with a single folded ``^ mask``; everything else lowers to the OR
of the prime-implicant cover of its on-set (AND gates become one cube,
MAJ three), reusing the cover cache of :mod:`repro.verify.cnf`.

:func:`bind_gate` folds a gate's edge complements into its table and
returns the evaluator of the result, memoized per ``(tt, k, complement
mask)``.  :class:`SimKernel` binds every gate of one
:class:`~repro.codegen.ir.SimProgram` this way and runs the evaluators in
one loop; :class:`~repro.codegen.graphsim.GraphSimKernel` binds the gates
of a growing :class:`~repro.verify.cnf.GateGraph` through the same
function.  Values are Python big-int words, so any pattern width is one
call.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

from ..verify.cnf import _cached_cover, _tt_flip_input
from .ir import SimProgram, netlist_ir, network_ir

__all__ = [
    "SimKernel",
    "bind_gate",
    "compile_network_kernel",
    "compile_netlist_kernel",
    "gate_expression",
    "gate_function",
]


# --------------------------------------------------------------------- #
# Expression emission
# --------------------------------------------------------------------- #
def _parity_tt(k: int) -> int:
    tt = 0
    for m in range(1 << k):
        if bin(m).count("1") & 1:
            tt |= 1 << m
    return tt


def gate_expression(tt: int, k: int) -> str:
    """Python expression computing the ``k``-input function ``tt``.

    The operands are named ``v1 .. vk`` (input ``i`` is ``v{i + 1}``);
    the expression assumes they are pre-masked words and that ``mask`` is
    in scope.
    """
    full = (1 << (1 << k)) - 1
    tt &= full
    if tt == 0:
        return "0"
    if tt == full:
        return "mask"
    if k == 1:
        return "(v1 ^ mask)" if tt == 0b01 else "v1"
    parity = _parity_tt(k)
    if tt in (parity, parity ^ full):
        chain = " ^ ".join(f"v{i + 1}" for i in range(k))
        return chain + (" ^ mask" if tt != parity else "")
    terms = []
    for cube_mask, cube_value in _cached_cover(tt, k, 1):
        lits = [
            f"v{i + 1}" if (cube_value >> i) & 1 else f"(v{i + 1} ^ mask)"
            for i in range(k)
            if (cube_mask >> i) & 1
        ]
        terms.append(" & ".join(lits))
    # '&' binds tighter than '|', so cube terms need no extra parentheses.
    return " | ".join(f"({t})" if len(terms) > 1 and " & " in t else t for t in terms)


#: ``(tt, k) -> fn(values, lits, mask)``: see :func:`gate_function`.
_GATE_FUNCTIONS: Dict[Tuple[int, int], Callable] = {}


def gate_function(tt: int, k: int) -> Callable:
    """The generated evaluator of the ``k``-input function ``tt``.

    ``fn(values, lits, mask)`` returns the gate's word over the operand
    words ``values[lits[i] >> 1]``; the complement bits of ``lits`` are
    *ignored* (a :class:`~repro.verify.cnf.GateGraph` stores its gates
    with uncomplemented inputs — fold any complement into ``tt`` first,
    as :func:`bind_gate` does), and operands must be pre-masked words.
    Generated once per ``(tt, k)`` from :func:`gate_expression` and
    cached for the life of the process; the key space is bounded by the
    functions of at most four inputs that library gates compute.
    """
    key = (tt, k)
    fn = _GATE_FUNCTIONS.get(key)
    if fn is None:
        label = f"_gate_{tt:x}_{k}"
        expr = gate_expression(tt, k)
        lines = [f"def {label}(values, lits, mask):"]
        lines += [f"    v{i + 1} = values[lits[{i}] >> 1]" for i in range(k)]
        lines.append(f"    return {expr}")
        source = "\n".join(lines)
        namespace: dict = {}
        exec(compile(source, f"<codegen:{label}>", "exec"), namespace)
        fn = _GATE_FUNCTIONS[key] = namespace[label]
    return fn


#: ``(tt, k, complement mask) -> gate_function`` of the folded table.
_BOUND_GATES: Dict[Tuple[int, int, int], Callable] = {}


def bind_gate(tt: int, edges: Sequence[int]) -> Callable:
    """The evaluator of a gate computing ``tt`` over (complemented) ``edges``.

    Bit ``i`` of the complement mask is edge ``i``'s complement bit; the
    complemented inputs are folded into ``tt`` and the result's
    :func:`gate_function` is returned, so ``fn(values, edges, mask)``
    yields the gate's word over the raw slot values.
    """
    compl = 0
    bit = 1
    for e in edges:
        if e & 1:
            compl |= bit
        bit <<= 1
    k = len(edges)
    key = (tt, k, compl)
    fn = _BOUND_GATES.get(key)
    if fn is None:
        folded = tt
        for i in range(k):
            if (compl >> i) & 1:
                folded = _tt_flip_input(folded, k, i)
        fn = _BOUND_GATES[key] = gate_function(folded, k)
    return fn


# --------------------------------------------------------------------- #
# The kernel object
# --------------------------------------------------------------------- #
class SimKernel:
    """A word-parallel simulator for one frozen gate program.

    Holds one bound evaluator per gate, in a list parallel to
    ``program.gates``: the evaluators are shared function objects and
    the program holds only integer tuples, so the kernel adds no
    per-gate object for the garbage collector to track.  Evaluators are
    generated code, so the kernel is never pickled (owners strip it in
    ``__getstate__`` and rebuild it on first use).
    """

    def __init__(self, program: SimProgram) -> None:
        self.program = program
        self._functions: List[Callable] = [
            bind_gate(tt, edges) for _, tt, edges in program.gates
        ]

    def simulate(self, pi_patterns: Sequence[int], num_bits: int) -> List[int]:
        """Bit-parallel simulation; drop-in for ``simulate_patterns``."""
        program = self.program
        if len(pi_patterns) != len(program.pi_slots):
            raise ValueError(
                f"expected {len(program.pi_slots)} PI patterns, "
                f"got {len(pi_patterns)}"
            )
        mask = (1 << num_bits) - 1
        values = [0] * program.num_slots
        for slot, pattern in zip(program.pi_slots, pi_patterns):
            values[slot] = pattern & mask
        for (out, _, edges), evaluate in zip(program.gates, self._functions):
            values[out] = evaluate(values, edges, mask)
        return [
            values[e >> 1] ^ mask if e & 1 else values[e >> 1]
            for e in program.po_edges
        ]


def compile_network_kernel(network) -> SimKernel:
    """The simulation kernel of a logic network's current state."""
    return SimKernel(network_ir(network))


def compile_netlist_kernel(netlist) -> SimKernel:
    """The simulation kernel of a mapped netlist's current shape."""
    return SimKernel(netlist_ir(netlist))
