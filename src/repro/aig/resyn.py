"""The ``resyn2``-style AIG optimization script used as the paper's baseline.

ABC's ``resyn2`` alternates balancing, rewriting and refactoring passes::

    b; rw; rf; b; rw; rwz; b; rfz; rwz; b

This module declares the equivalent driver as a chain of
:class:`~repro.flows.engine.RebuildPass` objects over the flow engine:
every script element becomes a named pass whose candidate network is kept
only when it does not regress.  A run returns the optimized AIG with the
engine's :class:`~repro.flows.engine.FlowResult`: the per-pass
size / depth / runtime trace that the flows and benchmarks report, whose
``pass_names()`` is the script that ran.
"""

from __future__ import annotations

from typing import Sequence

from .aig import Aig
from .balance import balance
from .rewrite import refactor, rewrite

__all__ = ["resyn2", "run_script", "RESYN2_SCRIPT"]


#: The default pass sequence (an abbreviation of ABC's resyn2 script).
RESYN2_SCRIPT: Sequence[str] = (
    "balance",
    "rewrite",
    "refactor",
    "balance",
    "rewrite",
    "balance",
)

_PASSES: dict = {
    "balance": balance,
    "rewrite": rewrite,
    "refactor": refactor,
}


def _keeps_or_improves(candidate: Aig, current: Aig) -> bool:
    """The baseline's acceptance rule: keep a pass unless it regresses.

    A candidate is adopted when it does not worsen the ``(size, depth)``
    pair, or when it strictly improves either metric on its own.
    """
    return (
        (candidate.num_gates, candidate.depth())
        <= (current.num_gates, current.depth())
        or candidate.depth() < current.depth()
        or candidate.num_gates < current.num_gates
    )


def run_script(aig: Aig, script: Sequence[str]) -> tuple:
    """Run a named pass sequence; returns ``(optimized_aig, FlowResult)``.

    The input AIG is never modified: rebuild passes chain fresh networks,
    exactly like ABC's scripts.
    """
    from ..flows.engine import RebuildPass, run_rebuild_chain

    passes = []
    for name in script:
        try:
            pass_fn = _PASSES[name]
        except KeyError as exc:
            raise ValueError(f"unknown AIG pass {name!r}") from exc
        passes.append(RebuildPass(name, pass_fn, accept=_keeps_or_improves))

    return run_rebuild_chain(aig, passes, name="aig_script")


def resyn2(aig: Aig) -> tuple:
    """Run the default ``resyn2``-style script; returns ``(aig, FlowResult)``."""
    return run_script(aig, RESYN2_SCRIPT)
