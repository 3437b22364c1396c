"""Majority-Inverter Graph (MIG) logic network.

This module implements the data structure introduced in Section III of the
paper: a homogeneous directed acyclic graph whose every internal node is a
three-input majority function ``M(a, b, c)`` and whose edges carry an
optional complementation attribute.

Design notes
------------
* Storage, structural hashing, fanout/ref-count bookkeeping, in-place
  substitution and the incremental topology/level caches live in the shared
  :class:`repro.network.base.LogicNetwork` kernel; this module contributes
  the majority-specific node semantics.
* Nodes are identified by dense integer indices.  Node ``0`` is the
  constant-0 node; primary inputs follow; majority gates are appended as
  they are created.
* Edges ("signals") are encoded as ``(node << 1) | complement`` integers,
  see :mod:`repro.core.signal`.
* Structural hashing is performed at node-creation time together with the
  trivial majority simplifications ``M(x, x, y) = x`` and
  ``M(x, x', y) = y`` (axiom Ω.M) and constant folding, so no structurally
  duplicated or trivially reducible node is ever materialised by
  :meth:`Mig.maj`.
* Node polarity is canonicalised on creation using inverter propagation
  (axiom Ω.I): a node never stores two or three complemented fanins; the
  complement is pushed to the output edge instead.
* The network supports in-place node substitution with automatic
  propagation (cascading strashing hits and Ω.M simplifications), which is
  the mechanism used by every optimization rule in
  :mod:`repro.core.rules`, :mod:`repro.core.size_opt` and
  :mod:`repro.core.depth_opt`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..network.base import LogicNetwork
from .signal import (
    CONST_FALSE,
    CONST_NODE,
    CONST_TRUE,
    is_complemented,
    negate,
    node_of,
)

__all__ = ["Mig"]


class Mig(LogicNetwork):
    """A Majority-Inverter Graph.

    The public surface follows the vocabulary of the paper: primary
    inputs/outputs, majority nodes, complemented edges, size (number of
    majority nodes), depth (number of levels on the longest PI→PO path)
    and switching activity (see :mod:`repro.analysis.activity`).

    Example
    -------
    >>> mig = Mig()
    >>> x, y, z = (mig.add_pi(n) for n in "xyz")
    >>> f = mig.maj(x, y, z)
    >>> mig.add_po(f, "f")
    0
    >>> mig.num_gates
    1
    """

    GATE_KIND = "majority"
    # MAJ3 over the three fanin edge values: on-set {011, 101, 110, 111}.
    UNIFORM_GATE_TT = 0xE8

    def __init__(self) -> None:
        super().__init__()
        self.name = "mig"

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def maj(self, a: int, b: int, c: int) -> int:
        """Create (or reuse) the majority node ``M(a, b, c)``.

        Trivial simplifications (axiom Ω.M and constant propagation through
        it) are applied eagerly, the fanins are sorted into canonical order
        and the node is looked up in the structural hash table before a new
        node is allocated.
        """
        dead = self._dead
        size = len(dead)
        na, nb, nc = a >> 1, b >> 1, c >> 1
        if (
            not (0 <= na < size and 0 <= nb < size and 0 <= nc < size)
            or dead[na]
            or dead[nb]
            or dead[nc]
        ):
            for s in (a, b, c):
                self._validate_signal(s)  # raises the precise error

        simplified = _simplify_maj(a, b, c)
        if simplified is not None:
            return simplified

        fanins, out_compl = _normalize_maj(a, b, c)
        return self._create_gate(fanins, out_compl)

    # Derived operators ------------------------------------------------- #
    def and_(self, a: int, b: int) -> int:
        """AND via the majority generalisation ``M(a, b, 0)``."""
        return self.maj(a, b, CONST_FALSE)

    def or_(self, a: int, b: int) -> int:
        """OR via the majority generalisation ``M(a, b, 1)``."""
        return self.maj(a, b, CONST_TRUE)

    def nand_(self, a: int, b: int) -> int:
        return negate(self.and_(a, b))

    def nor_(self, a: int, b: int) -> int:
        return negate(self.or_(a, b))

    def xor_(self, a: int, b: int) -> int:
        """XOR built from two levels of majority nodes."""
        return self.maj(
            negate(self.and_(a, b)),
            self.or_(a, b),
            CONST_FALSE,
        )

    def xnor_(self, a: int, b: int) -> int:
        return negate(self.xor_(a, b))

    def mux_(self, sel: int, t: int, e: int) -> int:
        """If-then-else ``sel ? t : e`` expressed with majority nodes."""
        return self.or_(self.and_(sel, t), self.and_(negate(sel), e))

    def xor3_(self, a: int, b: int, c: int) -> int:
        """Three-input XOR (parity), the function of Fig. 1(a)."""
        return self.xor_(self.xor_(a, b), c)

    def and3_(self, a: int, b: int, c: int) -> int:
        return self.and_(self.and_(a, b), c)

    def or3_(self, a: int, b: int, c: int) -> int:
        return self.or_(self.or_(a, b), c)

    def minority(self, a: int, b: int, c: int) -> int:
        """Minority = complement of majority (the MIN-3 standard cell)."""
        return negate(self.maj(a, b, c))

    # ------------------------------------------------------------------ #
    # Kernel hooks (majority semantics)
    # ------------------------------------------------------------------ #
    def is_maj(self, node: int) -> bool:
        return self._fanins[node] is not None

    def _gate_simplify(self, fanins: Tuple[int, ...]) -> Optional[int]:
        return _simplify_maj(*fanins)

    def _strash_candidates(
        self, fanins: Tuple[int, ...]
    ) -> Tuple[Tuple[Tuple[int, ...], bool], ...]:
        a, b, c = _sort3(*fanins)
        if a >> 1 != b >> 1 and b >> 1 != c >> 1:
            # Three distinct nodes: flipping every complement bit keeps
            # the order, so the complemented key needs no second sort.
            return ((a, b, c), False), ((a ^ 1, b ^ 1, c ^ 1), True)
        return ((a, b, c), False), (_sort3(a ^ 1, b ^ 1, c ^ 1), True)

    def _gate_key(self, fanins: Tuple[int, ...]) -> Tuple[int, ...]:
        return _sort3(*fanins)

    def _normalize_gate(self, fanins: Tuple[int, ...]) -> Tuple[Tuple[int, ...], bool]:
        return _normalize_maj(*fanins)

    @staticmethod
    def _gate_value(values: Sequence[int]) -> int:
        a, b, c = values
        return (a & b) | (a & c) | (b & c)

    @staticmethod
    def _simulate_program(program, values: List[int], mask: int) -> None:
        # Per gate: three list loads, up to three XORs and the majority
        # itself (values are pre-masked, making ``v ^ mask`` the masked
        # complement).
        for node, a, b, c in program:
            va = values[a >> 1] ^ mask if a & 1 else values[a >> 1]
            vb = values[b >> 1] ^ mask if b & 1 else values[b >> 1]
            vc = values[c >> 1] ^ mask if c & 1 else values[c >> 1]
            values[node] = (va & vb) | (va & vc) | (vb & vc)

    def _build_gate(self, fanins: Tuple[int, ...]) -> int:
        return self.maj(*fanins)

    # ------------------------------------------------------------------ #
    # Debugging helpers
    # ------------------------------------------------------------------ #
    def to_expression(self, signal: int, max_depth: int = 12) -> str:
        """Render the cone of ``signal`` as a nested ``M(...)`` expression."""
        def render(sig: int, depth: int) -> str:
            node = node_of(sig)
            prefix = "!" if is_complemented(sig) else ""
            if node == CONST_NODE:
                return "1" if is_complemented(sig) else "0"
            if self.is_pi(node):
                return prefix + self._pi_names[self._pis.index(node)]
            if depth <= 0:
                return prefix + f"n{node}"
            a, b, c = self._fanins[node]
            return (
                prefix
                + "M("
                + ", ".join(render(s, depth - 1) for s in (a, b, c))
                + ")"
            )

        return render(signal, max_depth)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Mig(name={self.name!r}, pis={self.num_pis}, pos={self.num_pos}, "
            f"gates={self.num_gates}, depth={self.depth()})"
        )


# ---------------------------------------------------------------------- #
# Module-level helpers (shared by Mig methods)
# ---------------------------------------------------------------------- #
def _simplify_maj(a: int, b: int, c: int) -> Optional[int]:
    """Apply the Ω.M axiom to a fanin triple; return the result signal or None."""
    if a == b or a == c:
        return a
    if b == c:
        return b
    if a == b ^ 1:
        return c
    if a == c ^ 1:
        return b
    if b == c ^ 1:
        return a
    return None


def _sort3(a: int, b: int, c: int) -> Tuple[int, int, int]:
    """``tuple(sorted((a, b, c)))`` by three compare-exchanges."""
    if a > b:
        a, b = b, a
    if b > c:
        b, c = c, b
        if a > b:
            a, b = b, a
    return a, b, c


def _normalize_maj(a: int, b: int, c: int) -> Tuple[Tuple[int, int, int], bool]:
    """Canonicalise a fanin triple: sorted order, at most one complemented fanin.

    Returns the canonical triple and whether the output must be complemented
    (inverter propagation, axiom Ω.I).
    """
    if (a & 1) + (b & 1) + (c & 1) >= 2:
        return _sort3(a ^ 1, b ^ 1, c ^ 1), True
    return _sort3(a, b, c), False
