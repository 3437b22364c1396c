"""Boolean cut rewriting for MIGs — the optimization scenario beyond Ω/Ψ.

The paper optimizes MIGs with purely *algebraic* transformations (the Ω
axioms and the derived Ψ rules of :mod:`repro.core.rules`), which move
within the algebra of one cone at a time.  Cut rewriting is the standard
*Boolean* complement: enumerate the 4-feasible cuts of every node, compute
the cut's truth table, and replace the cone by the precomputed optimal MIG
structure of its NPN class whenever that shrinks the network — catching
simplifications the axioms cannot see (e.g. a cone whose function happens
to be a single majority, an XOR, or a constant in disguise).

The heavy lifting is the network-generic engine in
:mod:`repro.network.rewrite`; this module fixes the MIG conventions:

* replacements are *depth-safe* by default (``max_level_growth=0``): the
  estimated level of the replacement must not exceed the root's current
  level, so a sweep can never increase the network depth — the invariant
  the MIGhty flow's acceptance policy relies on;
* zero-gain replacements are off by default (the MIG optimizers work in
  place, so canonicalization-for-strashing pays off less than in the
  rebuild-based AIG flow);
* depth mode (``max_level_growth < 0``) rewrites only critical roots,
  each move lowering its root's level; a move off the critical path buys
  no depth, so it spends no nodes.

Use through the flow engine as the ``mig_rewrite`` pass
(:class:`repro.flows.engine.MigRewrite`) to interleave Boolean rewriting
with the algebraic passes, as the ``depth_rewrite`` pass
(:class:`repro.flows.engine.DepthRewrite`) for depth, or call
:func:`rewrite_mig` directly.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..network.rewrite import cut_rewrite
from .mig import Mig

__all__ = ["rewrite_mig"]


def rewrite_mig(
    mig: Mig,
    cut_limit: int = 6,
    allow_zero_gain: bool = False,
    max_level_growth: Optional[int] = 0,
    incremental: bool = True,
) -> Dict[str, int]:
    """Run one Boolean cut-rewriting sweep over ``mig`` in place.

    Returns the engine's stats dictionary (``rewrites`` applied,
    ``zero_gain`` among them, total size ``gain``, plus the incremental
    cut engine's ``cut_nodes_recomputed`` / ``cut_nodes_reused``
    counters).  With the default ``max_level_growth=0`` the sweep never
    increases ``mig.depth()``; pass ``None`` to lift the bound
    (size-first mode) or a negative value for depth mode, which visits
    only the nodes critical at sweep start, where the shallowest top-k
    entry that adds no more nodes than it frees wins (the MIGhty flow's
    :class:`~repro.flows.engine.DepthRewrite` pass).  Sweeps share the MIG's
    :class:`~repro.network.cuts.CutManager`, so repeated rounds
    re-enumerate only touched cones; ``incremental=False`` forces
    from-scratch enumeration.
    """
    return cut_rewrite(
        mig,
        "mig",
        cut_limit=cut_limit,
        allow_zero_gain=allow_zero_gain,
        max_level_growth=max_level_growth,
        incremental=incremental,
    )
