"""Cut-based AIG rewriting (the ABC ``rewrite`` / ``refactor`` stand-in).

For every AND node the pass enumerates the 4-feasible cuts,
NPN-canonicalizes each cut function and looks it up in the precomputed
structure database (:mod:`repro.network.npn`); the cone is replaced by the
database structure whenever the *gain* — nodes freed by deleting the
root's fanout-free cone minus nodes actually added after structural-hash
sharing — is positive.  Zero-gain replacements are applied as well, which
canonicalizes equivalent cones onto one structure so that later nodes
strash into them, mirroring ABC's ``rewrite`` policy.  The engine itself
is the network-generic :func:`repro.network.rewrite.cut_rewrite`; this
module only fixes the AIG conventions (database kind, rebuild-style API).

Like ABC's scripts the public passes never mutate their argument: the
input AIG is copied (compacting and re-strashing it) and the copy is
rewritten in place.

Repeated in-place sweeps (:func:`rewrite_aig_inplace` called in rounds,
or ``rewrite``/``refactor`` alternating on a long-lived AIG) share the
network's incremental :class:`~repro.network.cuts.CutManager`: only the
cones touched since the previous sweep are re-enumerated, and a sweep
that already converged at the current mutation serial returns without
re-scanning at all.  The rebuild-style ``rewrite``/``refactor`` wrappers
start from a fresh copy, so their first (and only) sweep is necessarily a
full enumeration — use the in-place API for multi-round workloads.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..network.cuts import release_cut_state
from ..network.rewrite import cut_rewrite
from .aig import Aig

__all__ = ["rewrite", "refactor", "rewrite_aig_inplace"]


def rewrite_aig_inplace(
    aig: Aig,
    cut_limit: int = 8,
    allow_zero_gain: bool = True,
    max_level_growth: Optional[int] = None,
    incremental: bool = True,
) -> Dict[str, int]:
    """Run one Boolean cut-rewriting sweep over ``aig`` in place.

    ``max_level_growth`` defaults to ``None`` (size-first, the ABC
    ``rewrite`` convention); a negative value selects depth mode over the
    top-k structure lists (see :func:`~repro.network.rewrite.cut_rewrite`).
    """
    return cut_rewrite(
        aig,
        "aig",
        cut_limit=cut_limit,
        allow_zero_gain=allow_zero_gain,
        max_level_growth=max_level_growth,
        incremental=incremental,
    )


def rewrite(aig: Aig) -> Aig:
    """Return a rewritten copy of ``aig`` (4-input cut rewriting)."""
    result = aig.copy()
    rewrite_aig_inplace(result)
    # One sweep on a fresh copy cannot reuse anything later: drop the cut
    # cache and listener instead of pinning them on the returned network.
    release_cut_state(result)
    return result


def refactor(aig: Aig) -> Aig:
    """The ``refactor`` slot of the resyn2 script.

    ABC's ``refactor`` resynthesises larger cones; within this
    reproduction the same cut rewriting is run with a wider priority-cut
    budget, which looks at more reconvergent cones per node.
    """
    result = aig.copy()
    rewrite_aig_inplace(result, cut_limit=12)
    release_cut_state(result)
    return result
