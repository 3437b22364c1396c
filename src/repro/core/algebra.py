"""Symbolic MIG Boolean algebra ``(B, M, ', 0, 1)``.

This module implements Section III-B of the paper at the *expression*
level: immutable majority/inverter expression trees, evaluation,
exhaustive equivalence and variable replacement.

It is the specification language of the Ω/Ψ rules: every entry of
:data:`repro.core.rules.RULES` (and the kernel axioms of
:data:`repro.core.rules.KERNEL_AXIOMS`) states its rewrite as a pattern
pair of these expressions.  The tests prove each pair sound with
:func:`equivalent`, and a forged-match test builds each left-hand side
into a :class:`~repro.core.mig.Mig`, applies the graph rule and checks
that it produced exactly the right-hand side.  The worked examples of the
paper (Fig. 1 and Fig. 2) are reproduced with the same expressions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

__all__ = [
    "Expr",
    "Var",
    "Const",
    "Maj",
    "Not",
    "maj",
    "var",
    "const",
    "inv",
    "TRUE",
    "FALSE",
    "evaluate",
    "variables",
    "truth_table",
    "equivalent",
    "expr_size",
    "expr_depth",
    "replace_variable",
    "to_string",
    "from_aoig_and",
    "from_aoig_or",
]


class Expr:
    """Base class of all majority-algebra expressions (immutable)."""

    __slots__ = ()

    def __invert__(self) -> "Expr":
        return inv(self)

    def __repr__(self) -> str:  # pragma: no cover - convenience
        return to_string(self)


@dataclass(frozen=True)
class Var(Expr):
    """A named Boolean variable."""

    name: str


@dataclass(frozen=True)
class Const(Expr):
    """A Boolean constant (0 or 1)."""

    value: bool


@dataclass(frozen=True)
class Not(Expr):
    """Complementation of a sub-expression."""

    child: Expr


@dataclass(frozen=True)
class Maj(Expr):
    """Three-input majority of sub-expressions."""

    a: Expr
    b: Expr
    c: Expr

    @property
    def children(self) -> Tuple[Expr, Expr, Expr]:
        return (self.a, self.b, self.c)


FALSE = Const(False)
TRUE = Const(True)


def var(name: str) -> Var:
    """Create a variable."""
    return Var(name)


def const(value: bool) -> Const:
    """Create a constant."""
    return TRUE if value else FALSE


def maj(a: Expr, b: Expr, c: Expr) -> Maj:
    """Create the majority expression ``M(a, b, c)`` (no simplification)."""
    return Maj(a, b, c)


def inv(e: Expr) -> Expr:
    """Complement an expression, collapsing double negations and constants."""
    if isinstance(e, Not):
        return e.child
    if isinstance(e, Const):
        return const(not e.value)
    return Not(e)


def from_aoig_and(a: Expr, b: Expr) -> Maj:
    """AND expressed in the algebra: ``M(a, b, 0)`` (Theorem 3.1)."""
    return maj(a, b, FALSE)


def from_aoig_or(a: Expr, b: Expr) -> Maj:
    """OR expressed in the algebra: ``M(a, b, 1)`` (Theorem 3.1)."""
    return maj(a, b, TRUE)


# --------------------------------------------------------------------- #
# Evaluation and equivalence
# --------------------------------------------------------------------- #
def evaluate(e: Expr, assignment: Dict[str, bool]) -> bool:
    """Evaluate ``e`` under a variable assignment."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        try:
            return assignment[e.name]
        except KeyError as exc:
            raise KeyError(f"no value provided for variable {e.name!r}") from exc
    if isinstance(e, Not):
        return not evaluate(e.child, assignment)
    if isinstance(e, Maj):
        a = evaluate(e.a, assignment)
        b = evaluate(e.b, assignment)
        c = evaluate(e.c, assignment)
        return (a and b) or (a and c) or (b and c)
    raise TypeError(f"unknown expression type: {type(e)!r}")


def variables(e: Expr) -> FrozenSet[str]:
    """Return the set of variable names appearing in ``e``."""
    if isinstance(e, Var):
        return frozenset({e.name})
    if isinstance(e, Const):
        return frozenset()
    if isinstance(e, Not):
        return variables(e.child)
    if isinstance(e, Maj):
        return variables(e.a) | variables(e.b) | variables(e.c)
    raise TypeError(f"unknown expression type: {type(e)!r}")


def truth_table(e: Expr, order: Optional[Iterable[str]] = None) -> int:
    """Return the truth table of ``e`` as an integer bit-string.

    Bit ``i`` corresponds to the assignment where variable ``order[k]``
    takes the value of bit ``k`` of ``i``.
    """
    names = list(order) if order is not None else sorted(variables(e))
    table = 0
    for i in range(1 << len(names)):
        assignment = {name: bool((i >> k) & 1) for k, name in enumerate(names)}
        if evaluate(e, assignment):
            table |= 1 << i
    return table


def equivalent(e1: Expr, e2: Expr) -> bool:
    """Check Boolean equivalence of two expressions (exhaustively)."""
    names = sorted(variables(e1) | variables(e2))
    if len(names) > 16:
        raise ValueError("exhaustive equivalence limited to 16 variables")
    return truth_table(e1, names) == truth_table(e2, names)


def expr_size(e: Expr) -> int:
    """Number of majority operators in ``e`` (the size cost model)."""
    if isinstance(e, (Var, Const)):
        return 0
    if isinstance(e, Not):
        return expr_size(e.child)
    if isinstance(e, Maj):
        return 1 + expr_size(e.a) + expr_size(e.b) + expr_size(e.c)
    raise TypeError(f"unknown expression type: {type(e)!r}")


def expr_depth(e: Expr) -> int:
    """Number of majority levels on the longest path (the depth cost model)."""
    if isinstance(e, (Var, Const)):
        return 0
    if isinstance(e, Not):
        return expr_depth(e.child)
    if isinstance(e, Maj):
        return 1 + max(expr_depth(e.a), expr_depth(e.b), expr_depth(e.c))
    raise TypeError(f"unknown expression type: {type(e)!r}")


def to_string(e: Expr) -> str:
    """Render an expression in the paper's ``M(...)`` notation."""
    if isinstance(e, Const):
        return "1" if e.value else "0"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Not):
        return to_string(e.child) + "'"
    if isinstance(e, Maj):
        return f"M({to_string(e.a)}, {to_string(e.b)}, {to_string(e.c)})"
    raise TypeError(f"unknown expression type: {type(e)!r}")


# --------------------------------------------------------------------- #
# Variable replacement
# --------------------------------------------------------------------- #
def replace_variable(e: Expr, name: str, replacement: Expr) -> Expr:
    """Return ``e`` with every occurrence of variable ``name`` replaced."""
    if isinstance(e, Var):
        return replacement if e.name == name else e
    if isinstance(e, Const):
        return e
    if isinstance(e, Not):
        return inv(replace_variable(e.child, name, replacement))
    if isinstance(e, Maj):
        return maj(
            replace_variable(e.a, name, replacement),
            replace_variable(e.b, name, replacement),
            replace_variable(e.c, name, replacement),
        )
    raise TypeError(f"unknown expression type: {type(e)!r}")
