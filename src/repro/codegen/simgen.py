"""Source-level generation of word-parallel simulation kernels.

One :class:`~repro.codegen.ir.SimProgram` is lowered to straight-line
Python — one bitwise statement per gate over local variables, constants
folded and complement masks pre-applied at generation time — compiled
once and reused for every simulation call until the network mutates.
Compared with the per-gate loop of
:meth:`LogicNetwork.simulate_patterns_interpreted` this removes the whole
per-gate dispatch (fanin decode, complement branches) from the inner
loop; the emitted statement for a majority gate is literally::

    V[97] = v97 = (v41 & (v83 ^ mask)) | (v41 & v90) | ((v83 ^ mask) & v90)

Generation details:

* gates whose truth table is (the complement of) a parity function lower
  to an XOR chain with a single folded ``^ mask``; everything else lowers
  to the OR of the prime-implicant cover of its on-set (AND gates become
  one cube, MAJ three), reusing the cover cache of
  :mod:`repro.verify.cnf`;
* constant fanins are folded into the truth table before emission, so the
  constant slot never appears in an expression;
* programs larger than :data:`CHUNK_GATES` are split into several
  compiled functions sharing a dense value buffer ``V``; values produced
  and consumed inside one chunk stay in fast locals, only chunk-crossing
  and primary-output slots are spilled.  The buffer is owned by the
  kernel and reused across calls (every slot is written before it is
  read, so no per-call clearing is needed).

Gate graphs that grow while they are simulated (the SAT sweeper's) are
not compiled per network: :func:`gate_function` generates one function
per gate truth table and arity from the same :func:`gate_expression`,
shared by every gate computing that function, so evaluating a gate is
one call with no per-gate compile.

The generated code runs over Python big-int words
(:meth:`SimKernel.simulate`), so any pattern width is one call.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

from ..verify.cnf import _cached_cover, _tt_restrict
from .ir import SimProgram, netlist_ir, network_ir

__all__ = [
    "SimKernel",
    "compile_network_kernel",
    "compile_netlist_kernel",
    "gate_expression",
    "gate_function",
    "CHUNK_GATES",
]

#: Gates per compiled chunk function.  Bounds single-function compile time
#: (and bytecode size) on huge networks; one chunk is the common case.
CHUNK_GATES = 3000


# --------------------------------------------------------------------- #
# Expression emission
# --------------------------------------------------------------------- #
def _parity_tt(k: int) -> int:
    tt = 0
    for m in range(1 << k):
        if bin(m).count("1") & 1:
            tt |= 1 << m
    return tt


def _edge_expr(name: str, complemented: int) -> str:
    return f"({name} ^ mask)" if complemented else name


def gate_expression(tt: int, edges: Sequence[int], name_of) -> str:
    """Python expression computing ``tt`` over the edge values.

    ``edges`` use the ``(slot << 1) | compl`` encoding with slot 0 pinned
    to constant 0; ``name_of(slot)`` supplies the operand names.  The
    emitted expression assumes operands are pre-masked words and ``mask``
    is in scope.
    """
    ops = list(edges)
    i = 0
    while i < len(ops):  # fold constant fanins at generation time
        if ops[i] >> 1 == 0:
            tt = _tt_restrict(tt, len(ops), i, ops[i] & 1)
            del ops[i]
        else:
            i += 1
    k = len(ops)
    full = (1 << (1 << k)) - 1
    tt &= full
    if tt == 0:
        return "0"
    if tt == full:
        return "mask"
    if k == 1:
        return _edge_expr(name_of(ops[0] >> 1), (ops[0] & 1) ^ (tt == 0b01))
    parity = _parity_tt(k)
    if tt in (parity, parity ^ full):
        flip = 1 if tt != parity else 0
        for e in ops:
            flip ^= e & 1
        chain = " ^ ".join(name_of(e >> 1) for e in ops)
        return chain + (" ^ mask" if flip else "")
    terms = []
    for cube_mask, cube_value in _cached_cover(tt, k, 1):
        lits = [
            _edge_expr(name_of(ops[i] >> 1), (ops[i] & 1) ^ (((cube_value >> i) & 1) ^ 1))
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
    with uncomplemented inputs — fold any complement into ``tt`` first),
    and operands must be pre-masked words.  Generated once per
    ``(tt, k)`` from :func:`gate_expression` and cached for the life of
    the process; the key space is bounded by the functions of at most
    four inputs that library gates compute.
    """
    key = (tt, k)
    fn = _GATE_FUNCTIONS.get(key)
    if fn is None:
        label = f"_gate_{tt:x}_{k}"
        expr = gate_expression(tt, [(i + 1) << 1 for i in range(k)], lambda s: f"v{s}")
        lines = [f"def {label}(values, lits, mask):"]
        lines += [f"    v{i + 1} = values[lits[{i}] >> 1]" for i in range(k)]
        lines.append(f"    return {expr}")
        source = "\n".join(lines)
        namespace: dict = {}
        exec(compile(source, f"<codegen:{label}>", "exec"), namespace)
        fn = _GATE_FUNCTIONS[key] = namespace[label]
    return fn


# --------------------------------------------------------------------- #
# Chunk compilation
# --------------------------------------------------------------------- #
def compile_gate_slab(
    gates: Sequence[Tuple[int, int, Tuple[int, ...]]],
    label: str,
    spill: frozenset = frozenset(),
) -> Callable:
    """Compile one run of gates into ``fn(V, mask)``.

    Every referenced slot not produced inside the slab is loaded from
    ``V`` once at the top.  Outputs in ``spill`` are written back to ``V``
    at their definition via a chained assignment, so in-slab consumers
    still read the local.
    """
    lines = [f"def {label}(V, mask):"]
    local = set()
    loads = []
    body = []
    for out, tt, edges in gates:
        for e in edges:
            slot = e >> 1
            if slot and slot not in local:
                local.add(slot)
                loads.append(f"    v{slot} = V[{slot}]")
        expr = gate_expression(tt, edges, lambda s: f"v{s}")
        if out in spill:
            body.append(f"    V[{out}] = v{out} = {expr}")
        else:
            body.append(f"    v{out} = {expr}")
        local.add(out)
    body.append("    return None")
    source = "\n".join(lines + loads + body)
    namespace: dict = {}
    exec(compile(source, f"<codegen:{label}>", "exec"), namespace)
    fn = namespace[label]
    fn.__codegen_source__ = source
    return fn


def _compile_program_chunks(program: SimProgram, name: str) -> List[Callable]:
    gates = program.gates
    num_chunks = max(1, (len(gates) + CHUNK_GATES - 1) // CHUNK_GATES)
    starts = [i * CHUNK_GATES for i in range(num_chunks)]
    chunk_of = {}
    for index, start in enumerate(starts):
        for out, _, _ in gates[start : start + CHUNK_GATES]:
            chunk_of[out] = index
    # A slot is spilled when something outside its defining chunk reads it:
    # a gate of a later chunk or a primary output.
    spill = set()
    for index, start in enumerate(starts):
        for _, _, edges in gates[start : start + CHUNK_GATES]:
            for e in edges:
                slot = e >> 1
                if slot in chunk_of and chunk_of[slot] != index:
                    spill.add(slot)
    for e in program.po_edges:
        if (e >> 1) in chunk_of:
            spill.add(e >> 1)
    frozen_spill = frozenset(spill)
    return [
        compile_gate_slab(
            gates[start : start + CHUNK_GATES],
            f"_{_sanitize(name)}_c{index}",
            spill=frozen_spill,
        )
        for index, start in enumerate(starts)
    ]


def _sanitize(name: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in name) or "net"


# --------------------------------------------------------------------- #
# The kernel object
# --------------------------------------------------------------------- #
class SimKernel:
    """A compiled word-parallel simulator for one frozen network state.

    Holds compiled code objects; never pickled (the owning network strips
    it in ``__getstate__`` and regenerates after unpickling).  Not
    thread-safe: the value buffer is reused across calls.
    """

    def __init__(self, program: SimProgram, name: str = "net") -> None:
        self.program = program
        self.name = name
        self._chunks = _compile_program_chunks(program, name)
        self._values: List[object] = [0] * program.num_slots

    @property
    def num_gates(self) -> int:
        return len(self.program.gates)

    def source(self) -> str:
        """The generated source of all chunks (debugging/tests)."""
        return "\n\n".join(c.__codegen_source__ for c in self._chunks)

    def simulate(self, pi_patterns: Sequence[int], num_bits: int) -> List[int]:
        """Bit-parallel simulation; drop-in for ``simulate_patterns``."""
        program = self.program
        if len(pi_patterns) != len(program.pi_slots):
            raise ValueError(
                f"expected {len(program.pi_slots)} PI patterns, "
                f"got {len(pi_patterns)}"
            )
        mask = (1 << num_bits) - 1
        values = self._values
        for slot, pattern in zip(program.pi_slots, pi_patterns):
            values[slot] = pattern & mask
        for chunk in self._chunks:
            chunk(values, mask)
        out = []
        for e in program.po_edges:
            slot = e >> 1
            if slot == 0:
                out.append(mask if e & 1 else 0)
            else:
                v = values[slot]
                out.append(v ^ mask if e & 1 else v)
        return out


def compile_network_kernel(network) -> SimKernel:
    """Generate and compile the simulation kernel of a logic network."""
    return SimKernel(network_ir(network), getattr(network, "name", "net"))


def compile_netlist_kernel(netlist) -> SimKernel:
    """Generate and compile the simulation kernel of a mapped netlist."""
    return SimKernel(netlist_ir(netlist), getattr(netlist, "name", "netlist"))
