"""Tseitin CNF encoding of logic networks, and miter construction.

The SAT-based equivalence path (:mod:`repro.verify.sweep`) needs one
uniform view of *any* of the library's network types — MIGs, AIGs, and
mapped standard-cell netlists.  This module provides it as a
:class:`GateGraph`: a flattened, type-agnostic gate list over shared
primary-input variables into which several networks can be encoded side by
side.  Each gate is ``(output var, truth table, input literals)`` where the
truth table is the *pure* local function (majority, AND, a library cell's
function — obtained from :meth:`LogicNetwork.gate_truth_table` or from
``Cell.evaluate``) and edge complementations live in the literals.

On top of the raw Tseitin translation the graph applies, per gate:

* constant folding and removal of duplicate / complementary / don't-care
  inputs;
* input-phase and output-phase normalization plus input sorting, yielding
  a small canonical form, memoized per truth table and input pattern;
* structural hashing across *all* encoded networks — structure shared
  between the two sides of a miter becomes literally the same variable,
  which is what makes optimization-before/after miters cheap to prove.

The graph stores gates, not clauses.  :func:`gate_clauses` derives one
gate's clauses from two-level prime-implicant covers of its on- and
off-set (AND gates cost 3 clauses, XOR 4, MAJ 6 — not the naive ``2^k``
minterm clauses).  :meth:`GateGraph.load_into` loads the whole graph
into a solver; the SAT sweeper (:mod:`repro.verify.sweep`) instead loads
a gate's clauses only when the cone of one of its queries first reaches
the gate.

Literals use the ``(var << 1) | complement`` convention shared with
:mod:`repro.core.signal` and :mod:`repro.verify.sat`.  Variable 0 is the
constant-false variable (pinned by a unit clause), variables ``1 ..
num_pis`` are the shared primary inputs.

:func:`build_miter` composes two same-interface networks into a single
graph plus per-output XOR literals; asserting any XOR literal (or the
aggregated :attr:`MiterCnf.output`) asks the SAT solver for a
distinguishing input pattern.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .sat import SatSolver

__all__ = ["GateGraph", "MiterCnf", "encode_network", "build_miter", "eval_gate", "gate_clauses"]

#: Literals of the pinned constant variable 0.
FALSE_LIT = 0
TRUE_LIT = 1

_TT_XOR2 = 0x6
_TT_OR2 = 0xE


def _tt_restrict(tt: int, k: int, i: int, value: int) -> int:
    """Cofactor ``tt`` with input ``i`` fixed to ``value`` (drops input ``i``)."""
    out = 0
    pos = 0
    for m in range(1 << k):
        if ((m >> i) & 1) == value:
            out |= ((tt >> m) & 1) << pos
            pos += 1
    return out


def _tt_flip_input(tt: int, k: int, i: int) -> int:
    """Truth table with input ``i`` complemented."""
    out = 0
    for m in range(1 << k):
        out |= ((tt >> (m ^ (1 << i))) & 1) << m
    return out


def _tt_permute(tt: int, k: int, perm: Sequence[int]) -> int:
    """Reorder inputs: new input ``i`` is old input ``perm[i]``."""
    out = 0
    for m in range(1 << k):
        m_orig = 0
        for i in range(k):
            m_orig |= ((m >> i) & 1) << perm[i]
        out |= ((tt >> m_orig) & 1) << m
    return out


def _prime_cover(tt: int, k: int, target: int) -> List[Tuple[int, int]]:
    """Greedy prime-implicant cover of ``{m : tt[m] == target}``.

    Cubes are ``(mask, value)`` pairs: input ``i`` is constrained to bit
    ``i`` of ``value`` iff bit ``i`` of ``mask`` is set.  Exact enough for
    the tiny (k <= 4) local functions of logic gates and library cells.
    """
    minterms = [m for m in range(1 << k) if ((tt >> m) & 1) == target]
    if not minterms:
        return []
    cubes = {((1 << k) - 1, m) for m in minterms}
    primes: set = set()
    while cubes:
        merged = set()
        next_cubes = set()
        cube_list = sorted(cubes)
        for a in range(len(cube_list)):
            mask_a, val_a = cube_list[a]
            for b in range(a + 1, len(cube_list)):
                mask_b, val_b = cube_list[b]
                if mask_a != mask_b:
                    continue
                diff = val_a ^ val_b
                if diff and not (diff & (diff - 1)):
                    next_cubes.add((mask_a & ~diff, val_a & ~diff))
                    merged.add(cube_list[a])
                    merged.add(cube_list[b])
        primes |= cubes - merged
        cubes = next_cubes

    remaining = set(minterms)
    cover: List[Tuple[int, int]] = []
    candidates = sorted(primes)
    while remaining:
        best = max(
            candidates,
            key=lambda c: sum(1 for m in remaining if (m & c[0]) == c[1]),
        )
        cover.append(best)
        remaining -= {m for m in remaining if (m & best[0]) == best[1]}
    return cover


_COVER_CACHE: Dict[Tuple[int, int, int], List[Tuple[int, int]]] = {}


def _cached_cover(tt: int, k: int, target: int) -> List[Tuple[int, int]]:
    key = (tt, k, target)
    cover = _COVER_CACHE.get(key)
    if cover is None:
        cover = _COVER_CACHE[key] = _prime_cover(tt, k, target)
    return cover


def gate_clauses(var: int, tt: int, lits: Sequence[int]) -> List[List[int]]:
    """Tseitin clauses of the stored gate ``(var, tt, lits)``.

    Off-set cubes of the prime cover imply the output false, on-set
    cubes imply it true.
    """
    k = len(lits)
    out_lit = var << 1
    clauses = []
    for target, out in ((0, out_lit ^ 1), (1, out_lit)):
        for mask, value in _cached_cover(tt, k, target):
            clause = [lits[i] ^ ((value >> i) & 1) for i in range(k) if (mask >> i) & 1]
            clause.append(out)
            clauses.append(clause)
    return clauses


def _normalize_gate(tt: int, in_lits: Sequence[int]) -> Tuple[int, Tuple[int, ...], int]:
    """Canonical form ``(tt, lits, out_flip)`` of a gate; the oracle of
    :meth:`GateGraph.add_gate`'s memo.

    Constants are folded; duplicate, complementary and don't-care inputs
    removed; input phases folded into the table (every returned literal
    is uncomplemented); inputs sorted; and the output phase normalized
    so that ``tt(0, ..., 0) = 0``.  The gate computes ``tt`` over
    ``lits``, complemented iff ``out_flip``: with no input left that is
    the constant literal ``out_flip``, with one it is
    ``lits[0] | out_flip``.
    """
    lits = list(in_lits)
    k = len(lits)

    # Fold constant and duplicate inputs.
    changed = True
    while changed:
        changed = False
        for i in range(k):
            var = lits[i] >> 1
            if var == 0:
                tt = _tt_restrict(tt, k, i, lits[i] & 1)
                del lits[i]
                k -= 1
                changed = True
                break
            for j in range(i):
                if (lits[j] >> 1) != var:
                    continue
                if lits[j] == lits[i]:
                    # x_i == x_j: keep only the minterms where they agree.
                    tt = _tt_restrict(
                        _tt_merge_equal(tt, k, j, i, flip=0), k, i, 0
                    )
                else:
                    tt = _tt_restrict(
                        _tt_merge_equal(tt, k, j, i, flip=1), k, i, 0
                    )
                del lits[i]
                k -= 1
                changed = True
                break
            if changed:
                break

    # Drop don't-care inputs.
    i = 0
    while i < k:
        if _tt_restrict(tt, k, i, 0) == _tt_restrict(tt, k, i, 1):
            tt = _tt_restrict(tt, k, i, 0)
            del lits[i]
            k -= 1
        else:
            i += 1

    # Normalize input phases into the truth table and sort inputs.
    for i in range(k):
        if lits[i] & 1:
            tt = _tt_flip_input(tt, k, i)
            lits[i] ^= 1
    perm = sorted(range(k), key=lambda i: lits[i])
    if perm != list(range(k)):
        tt = _tt_permute(tt, k, perm)
        lits = [lits[i] for i in perm]

    # Normalize the output phase.
    out_flip = tt & 1
    if out_flip:
        tt ^= (1 << (1 << k)) - 1
    return tt, tuple(lits), out_flip


#: ``(tt, input pattern) -> _normalize_gate(tt, input pattern)``: the
#: memo of :meth:`GateGraph.add_gate`.  A pattern names each variable by
#: its rank among the gate's distinct variables, so the few dozen gate
#: shapes of a whole CEC run share their normal forms.
_NORMAL_FORMS: Dict[Tuple[int, Tuple[int, ...]], Tuple[int, Tuple[int, ...], int]] = {}


class GateGraph:
    """A flattened multi-network Tseitin context over shared primary inputs.

    The graph stores gates only; their clauses are derived on demand
    (:func:`gate_clauses`), all at once by :meth:`load_into` or per
    query cone by the sweeper.
    """

    def __init__(self, num_pis: int) -> None:
        self.num_pis = num_pis
        self.num_vars = 1 + num_pis
        #: Gate list in topological order: ``(out_var, tt, in_lits)``.
        self.gates: List[Tuple[int, int, Tuple[int, ...]]] = []
        self._strash: Dict[Tuple[int, Tuple[int, ...]], int] = {}

    def pi_lit(self, index: int) -> int:
        """Literal of the ``index``-th shared primary input."""
        if not 0 <= index < self.num_pis:
            raise IndexError(f"PI index {index} out of range")
        return (1 + index) << 1

    def pi_vars(self) -> List[int]:
        return list(range(1, 1 + self.num_pis))

    # ------------------------------------------------------------------ #
    # Gate construction
    # ------------------------------------------------------------------ #
    def add_gate(self, tt: int, in_lits: Sequence[int]) -> int:
        """Add (or reuse) a gate computing ``tt`` over ``in_lits``.

        Returns the literal of the gate function.  The gate is normalized
        (see :func:`_normalize_gate`) and structurally hashed, so
        logically identical gates — across all networks encoded into this
        graph — share one variable.  The normal form depends only on
        ``tt`` and the input *pattern*: each input literal with its
        variable renamed to its rank among the gate's distinct variables
        (the constant variable 0 ranks first).  It is computed once per
        pattern and memoized.
        """
        order = sorted({0, *[lit >> 1 for lit in in_lits]})
        rank = order.index
        key = (tt, tuple([(rank(lit >> 1) << 1) | (lit & 1) for lit in in_lits]))
        form = _NORMAL_FORMS.get(key)
        if form is None:
            form = _NORMAL_FORMS[key] = _normalize_gate(*key)
        tt, ranked, out_flip = form
        if not ranked:
            return out_flip  # the constant literal
        lits = tuple([order[lit >> 1] << 1 for lit in ranked])
        if len(lits) == 1:
            return lits[0] | out_flip
        key = (tt, lits)
        existing = self._strash.get(key)
        if existing is not None:
            return (existing << 1) | out_flip

        var = self.num_vars
        self.num_vars += 1
        self._strash[key] = var
        self.gates.append((var, tt, lits))
        return (var << 1) | out_flip

    def xor_lit(self, a: int, b: int) -> int:
        return self.add_gate(_TT_XOR2, (a, b))

    def or_tree(self, lits: Sequence[int]) -> int:
        """Balanced OR over ``lits`` (FALSE for an empty sequence)."""
        layer = list(lits)
        if not layer:
            return FALSE_LIT
        while len(layer) > 1:
            nxt = []
            for i in range(0, len(layer) - 1, 2):
                nxt.append(self.add_gate(_TT_OR2, (layer[i], layer[i + 1])))
            if len(layer) & 1:
                nxt.append(layer[-1])
            layer = nxt
        return layer[0]

    # ------------------------------------------------------------------ #
    # Consumption
    # ------------------------------------------------------------------ #
    def load_into(self, solver: SatSolver) -> None:
        """Allocate this graph's variables into ``solver`` and load the
        unit clause pinning variable 0 to false plus every gate's
        clauses."""
        solver.ensure_vars(self.num_vars)
        solver.add_clause([TRUE_LIT])
        for gate in self.gates:
            for clause in gate_clauses(*gate):
                solver.add_clause(clause)

    def simulate(self, pi_patterns: Sequence[int], num_bits: int) -> List[int]:
        """Bit-parallel evaluation; returns one pattern per variable."""
        if len(pi_patterns) != self.num_pis:
            raise ValueError(
                f"expected {self.num_pis} PI patterns, got {len(pi_patterns)}"
            )
        from ..codegen.simgen import gate_function  # lazy: repro.codegen imports us

        mask = (1 << num_bits) - 1
        values = [0] * self.num_vars
        for i, pattern in enumerate(pi_patterns):
            values[1 + i] = pattern & mask
        # Stored gates have uncomplemented inputs (see :meth:`add_gate`).
        for var, tt, lits in self.gates:
            values[var] = gate_function(tt, len(lits))(values, lits, mask)
        return values

    def lit_value(self, values: Sequence[int], lit: int, mask: int) -> int:
        v = values[lit >> 1]
        return (~v & mask) if lit & 1 else v


def eval_gate(values: Sequence[int], tt: int, lits: Sequence[int], mask: int) -> int:
    """Bit-parallel evaluation of one gate over per-variable patterns.

    Input complements are folded into the truth table, then the gate
    runs through the generated evaluator of its function
    (:func:`repro.codegen.simgen.gate_function`).
    """
    from ..codegen.simgen import gate_function  # lazy: repro.codegen imports us

    k = len(lits)
    for i, lit in enumerate(lits):
        if lit & 1:
            tt = _tt_flip_input(tt, k, i)
    return gate_function(tt, k)(values, lits, mask)


def _tt_merge_equal(tt: int, k: int, j: int, i: int, flip: int) -> int:
    """Constrain ``x_i = x_j ^ flip`` without dropping input ``i`` yet.

    Every minterm where the constraint is violated is replaced by the value
    the function takes on the corresponding consistent minterm, so the
    later ``_tt_restrict(tt, k, i, 0)`` (with the flip already folded into
    bit ``j``) yields the merged function.
    """
    out = 0
    for m in range(1 << k):
        consistent = (m & ~(1 << i)) | ((((m >> j) & 1) ^ flip) << i)
        out |= ((tt >> consistent) & 1) << m
    return out


# --------------------------------------------------------------------- #
# Network encoding (duck-typed: LogicNetwork subclasses + MappedNetlist)
# --------------------------------------------------------------------- #
def encode_network(graph: GateGraph, network, add_gate=None) -> List[int]:
    """Tseitin-encode ``network`` into ``graph``; returns PO literals.

    Accepts any :class:`~repro.network.base.LogicNetwork` subclass (MIG,
    AIG) or a :class:`~repro.mapping.netlist.MappedNetlist`.  Primary
    inputs are matched by position onto the graph's shared PI variables.
    ``add_gate`` overrides the gate constructor — the sweeping engine
    injects its proving/substituting wrapper here so every encoded gate is
    canonicalized against the already-proven equivalence classes.
    """
    if network.num_pis != graph.num_pis:
        raise ValueError(
            f"network has {network.num_pis} PIs, graph expects {graph.num_pis}"
        )
    if add_gate is None:
        add_gate = graph.add_gate
    if hasattr(network, "instances") and hasattr(network, "library"):
        return _encode_netlist(graph, network, add_gate)
    return _encode_logic_network(graph, network, add_gate)


def _encode_logic_network(graph: GateGraph, network, add_gate) -> List[int]:
    from ..codegen.ir import network_ir  # lazy: repro.codegen imports us

    return _encode_program(graph, network_ir(network), add_gate)


def _encode_netlist(graph: GateGraph, netlist, add_gate) -> List[int]:
    from ..codegen.ir import netlist_ir  # lazy: repro.codegen imports us

    return _encode_program(graph, netlist_ir(netlist), add_gate)


def _encode_program(graph: GateGraph, program, add_gate) -> List[int]:
    """Encode a flattened :class:`~repro.codegen.ir.SimProgram`.

    The same cached traversal that drives the generated simulation
    kernels drives the CNF encode: slot 0 is the constant (so a
    complemented edge to it is ``TRUE_LIT``), per-gate truth tables are
    resolved once at flattening time, and undriven netlist slots stay at
    ``FALSE_LIT`` — all matching the previous per-network walks.
    """
    slot_lit = [FALSE_LIT] * program.num_slots
    for index, slot in enumerate(program.pi_slots):
        slot_lit[slot] = graph.pi_lit(index)
    for out, tt, edges in program.gates:
        in_lits = tuple(slot_lit[e >> 1] ^ (e & 1) for e in edges)
        slot_lit[out] = add_gate(tt, in_lits)
    return [slot_lit[e >> 1] ^ (e & 1) for e in program.po_edges]


# --------------------------------------------------------------------- #
# Miters
# --------------------------------------------------------------------- #
@dataclass
class MiterCnf:
    """Two same-interface networks encoded side by side over shared PIs."""

    graph: GateGraph
    pos_first: List[int]
    pos_second: List[int]
    #: Per-output XOR literals: ``xors[i]`` is true iff output ``i`` differs.
    xors: List[int] = field(default_factory=list)
    #: Literal of the aggregated miter output (OR of all XORs).
    output: int = FALSE_LIT


def build_miter(first, second) -> MiterCnf:
    """Encode ``first`` and ``second`` into one graph with a miter on top.

    The networks must agree on PI and PO counts (matched by position, like
    :func:`repro.verify.equivalence.check_equivalence`).
    """
    if first.num_pis != second.num_pis:
        raise ValueError(
            f"PI count mismatch: {first.num_pis} vs {second.num_pis}"
        )
    if first.num_pos != second.num_pos:
        raise ValueError(
            f"PO count mismatch: {first.num_pos} vs {second.num_pos}"
        )
    graph = GateGraph(first.num_pis)
    pos_first = encode_network(graph, first)
    pos_second = encode_network(graph, second)
    miter = MiterCnf(graph, pos_first, pos_second)
    miter.xors = [graph.xor_lit(a, b) for a, b in zip(pos_first, pos_second)]
    miter.output = graph.or_tree(miter.xors)
    return miter
