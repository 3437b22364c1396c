"""The *reshape* process shared by Algorithms 1 and 2.

When no direct elimination (size) or push-up (depth) move applies, the
paper locally restructures the MIG "to increase the number of common
inputs/variables to MIG nodes": associativity moves operands between
adjacent levels, relevance exchanges reconvergent operands and, when a more
radical transformation is needed, substitution replaces pairs of
independent operands at the price of a temporary inflation (Section IV-A).

This module implements that process as a single configurable pass so that
the size, depth and activity optimizers all reshape the same way (only the
acceptance criteria differ, which the caller controls through
:class:`ReshapeParams`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .mig import Mig
from .rules import (
    DEFAULT_CONE_BOUND,
    try_associativity,
    try_associativity_reshape,
    try_complementary_associativity,
    try_relevance,
    try_substitution,
)

__all__ = ["ReshapeParams", "reshape"]


@dataclass
class ReshapeParams:
    """Tuning knobs of the reshape process.

    Attributes
    ----------
    use_associativity, use_complementary, use_relevance, use_substitution:
        Enable/disable the individual rules; the ablation benchmark
        (``benchmarks/bench_ablation_reshape.py``) sweeps these.
    relevance_growth:
        Maximum number of extra nodes a Ψ.R rewrite may introduce.
    cone_bound:
        Bound on reconvergent-cone size inspected by Ψ.R / Ψ.S.
    max_rewrites:
        Upper bound on accepted rewrites per pass (keeps runtime linear-ish
        on large networks); ``None`` means unbounded.
    substitution_period:
        Ψ.S is attempted only on every ``substitution_period``-th visited
        node (it is the most expensive rule).
    """

    use_associativity: bool = True
    use_complementary: bool = True
    use_relevance: bool = True
    use_substitution: bool = True
    relevance_growth: int = 2
    cone_bound: int = DEFAULT_CONE_BOUND
    max_rewrites: Optional[int] = None
    substitution_period: int = 16


def reshape(mig: Mig, params: Optional[ReshapeParams] = None) -> int:
    """Run one reshape pass over the whole network.

    Returns the number of accepted rewrites.  Dangling nodes left behind by
    rejected attempts are reclaimed before returning.
    """
    params = params or ReshapeParams()
    # Snapshot of the kernel's incrementally maintained levels: an O(n)
    # list copy, no DFS.  Nodes created after it count as deep.
    levels = mig.level_snapshot()
    rewrites = 0
    visited = 0
    for node in list(mig.gates()):
        if mig.is_dead(node):
            continue
        if params.max_rewrites is not None and rewrites >= params.max_rewrites:
            break
        visited += 1
        applied = False
        if params.use_associativity and try_associativity(mig, node, levels):
            applied = True
        elif params.use_associativity and try_associativity_reshape(mig, node):
            applied = True
        elif params.use_complementary and try_complementary_associativity(mig, node):
            applied = True
        elif params.use_relevance and try_relevance(
            mig, node, bound=params.cone_bound, max_growth=params.relevance_growth
        ):
            applied = True
        elif (
            params.use_substitution
            and visited % params.substitution_period == 0
            and try_substitution(mig, node, bound=min(24, params.cone_bound))
        ):
            applied = True
        if applied:
            rewrites += 1
            # Levels drift as the structure changes; refresh the snapshot
            # periodically (an O(n) list copy, no DFS) so the associativity
            # decisions stay meaningful without copying per rewrite.  Keep
            # it a copy: reading levels live gives larger networks.
            if rewrites % 64 == 0:
                levels = mig.level_snapshot()
    mig.cleanup()
    return rewrites
