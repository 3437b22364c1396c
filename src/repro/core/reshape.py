"""The *reshape* process shared by Algorithms 1 and 2.

When no direct elimination (size) or push-up (depth) move applies, the
paper locally restructures the MIG "to increase the number of common
inputs/variables to MIG nodes": associativity moves operands between
adjacent levels, relevance exchanges reconvergent operands and, when a more
radical transformation is needed, substitution replaces pairs of
independent operands at the price of a temporary inflation (Section IV-A).

This module implements that process as one sweep of a rule list (by
default :data:`~repro.core.rules.RESHAPE_RULES`: Ω.A, Ω.A-reshape, Ψ.C,
Ψ.R, Ψ.S) so that the size, depth and activity optimizers all reshape the
same way; only the Ψ.R node budget differs between them.
"""

from __future__ import annotations

from typing import Sequence

from .mig import Mig
from .rules import RESHAPE_RULES, RuleSweep

__all__ = ["reshape"]


def reshape(
    mig: Mig, relevance_growth: int = 2, rules: Sequence[str] = RESHAPE_RULES
) -> int:
    """Run one reshape pass over the whole network.

    ``rules`` (names from :data:`~repro.core.rules.RULES`) are tried in
    order on each node; a Ψ.R rewrite may add ``relevance_growth`` nodes.
    Returns the number of accepted rewrites.  Dangling nodes left behind
    by rejected attempts are reclaimed before returning.
    """
    # Snapshot of the kernel's incrementally maintained levels: an O(n)
    # list copy, no DFS.  Nodes created after it count as deep.
    levels = mig.level_snapshot()
    sweep = RuleSweep("reshape", rules, levels, relevance_growth)
    rewrites = 0
    for _ in sweep.run(mig, list(mig.gates())):
        rewrites += 1
        # Levels drift as the structure changes; refresh the snapshot
        # periodically (an O(n) list copy, no DFS) so the associativity
        # decisions stay meaningful without copying per rewrite.  Keep it
        # a copy: reading levels live gives larger networks.
        if rewrites % 64 == 0:
            levels[:] = mig.level_snapshot()
    mig.cleanup()
    return rewrites
