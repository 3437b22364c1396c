"""AND-Inverter Graph (AIG) logic network.

The paper's main experimental baseline is "AIG optimization performed by
the ABC academic tool".  This module provides the AIG substrate: a
homogeneous network of two-input AND nodes with complemented edges, with
structural hashing and constant/idempotence folding at construction time —
the same conventions as :class:`repro.core.mig.Mig`, restricted to
conjunctions (Theorem 3.1: an AIG is the special case of a MIG whose third
operand is a constant).

Storage, hashing, fanout/ref-count tracking, substitution and the cached
topology/levels machinery all come from the shared
:class:`repro.network.base.LogicNetwork` kernel; only the AND-node
semantics live here.

The baseline optimization passes (balance / rewrite / refactor, the
``resyn2``-style script) live in :mod:`repro.aig.resyn`.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from ..core.signal import (
    CONST_FALSE,
    CONST_TRUE,
    negate,
)
from ..network.base import LogicNetwork

__all__ = ["Aig"]


class Aig(LogicNetwork):
    """An AND-Inverter Graph with structural hashing.

    Node 0 is the constant-0 node, primary inputs follow, and two-input AND
    gates are appended as created.  Signals use the shared
    ``(node << 1) | complement`` encoding of :mod:`repro.core.signal`.
    """

    GATE_KIND = "AND"
    # AND2 over the two fanin edge values: on-set {11}.
    UNIFORM_GATE_TT = 0x8

    def __init__(self) -> None:
        super().__init__()
        self.name = "aig"

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def and_(self, a: int, b: int) -> int:
        """Create (or reuse) the AND node ``a ∧ b`` with trivial folding."""
        self._validate_signal(a)
        self._validate_signal(b)
        simplified = _simplify_and(a, b)
        if simplified is not None:
            return simplified
        key = (a, b) if a < b else (b, a)
        return self._create_gate(key)

    # Derived operators ------------------------------------------------- #
    def or_(self, a: int, b: int) -> int:
        return negate(self.and_(negate(a), negate(b)))

    def nand_(self, a: int, b: int) -> int:
        return negate(self.and_(a, b))

    def nor_(self, a: int, b: int) -> int:
        return self.and_(negate(a), negate(b))

    def xor_(self, a: int, b: int) -> int:
        return negate(self.and_(negate(self.and_(a, negate(b))), negate(self.and_(negate(a), b))))

    def xnor_(self, a: int, b: int) -> int:
        return negate(self.xor_(a, b))

    def mux_(self, sel: int, t: int, e: int) -> int:
        return self.or_(self.and_(sel, t), self.and_(negate(sel), e))

    def maj_(self, a: int, b: int, c: int) -> int:
        """Three-input majority expressed with AND/OR (4 AND nodes)."""
        return self.or_(self.and_(a, b), self.and_(c, self.or_(a, b)))

    def and3_(self, a: int, b: int, c: int) -> int:
        return self.and_(self.and_(a, b), c)

    def or3_(self, a: int, b: int, c: int) -> int:
        return self.or_(self.or_(a, b), c)

    # ------------------------------------------------------------------ #
    # Inspection (AIG-specific accounting)
    # ------------------------------------------------------------------ #
    @property
    def num_gates(self) -> int:
        """Number of AND nodes reachable from the primary outputs.

        Unlike :class:`~repro.core.mig.Mig` (whose optimizers reclaim dead
        logic eagerly), the AIG passes are rebuild-based, so the paper's
        size metric counts only the PO-reachable cone.  Served from the
        cached topological order, so it is O(1) between structural changes.
        """
        return len(self._topology())

    def is_and(self, node: int) -> bool:
        return self._fanins[node] is not None

    def gates(self) -> Iterator[int]:
        """Iterate over PO-reachable AND nodes in topological order."""
        return iter(self.topological_order())

    # ------------------------------------------------------------------ #
    # Kernel hooks (AND semantics)
    # ------------------------------------------------------------------ #
    def _gate_simplify(self, fanins: Tuple[int, ...]) -> Optional[int]:
        return _simplify_and(*fanins)

    def _strash_candidates(
        self, fanins: Tuple[int, ...]
    ) -> Tuple[Tuple[Tuple[int, ...], bool], ...]:
        a, b = fanins
        return ((((a, b) if a < b else (b, a)), False),)

    def _gate_key(self, fanins: Tuple[int, ...]) -> Tuple[int, ...]:
        a, b = fanins
        return (a, b) if a < b else (b, a)

    def _normalize_gate(self, fanins: Tuple[int, ...]) -> Tuple[Tuple[int, ...], bool]:
        return self._gate_key(fanins), False

    @staticmethod
    def _gate_value(values: Sequence[int]) -> int:
        a, b = values
        return a & b

    def _compile_gate_eval(self, fanins: Tuple[int, ...]):
        # Pre-split fanin nodes and complement flags (see Mig's variant):
        # two list loads, up to two XORs and one AND per pattern.
        a, b = fanins
        na, nb = a >> 1, b >> 1
        ca, cb = a & 1, b & 1

        def evaluate(values: List[int], mask: int) -> int:
            va = values[na] ^ mask if ca else values[na]
            vb = values[nb] ^ mask if cb else values[nb]
            return va & vb

        return evaluate

    def _build_gate(self, fanins: Tuple[int, ...]) -> int:
        return self.and_(*fanins)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Aig(name={self.name!r}, pis={self.num_pis}, pos={self.num_pos}, "
            f"gates={self.num_gates}, depth={self.depth()})"
        )


# ---------------------------------------------------------------------- #
# Module-level helpers
# ---------------------------------------------------------------------- #
def _simplify_and(a: int, b: int) -> Optional[int]:
    """Constant folding / idempotence / complement rules of the AND node."""
    if a == CONST_FALSE or b == CONST_FALSE or a == negate(b):
        return CONST_FALSE
    if a == CONST_TRUE:
        return b
    if b == CONST_TRUE:
        return a
    if a == b:
        return a
    return None
