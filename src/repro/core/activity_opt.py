"""MIG switching-activity optimization (Section IV-C of the paper).

The total switching activity of a MIG is reduced along two axes:

1. *size reduction* — fewer nodes switch less; the optimizer simply reuses
   Algorithm 1 (:func:`repro.core.size_opt.optimize_size`);
2. *probability shaping* — nodes whose output probability is close to 0.5
   toggle the most; relevance (Ψ.R) and substitution (Ψ.S) can replace a
   reconvergent operand with probability ≈ 0.5 by one whose probability is
   close to 0 or 1, as in the example of Fig. 2(d).

Because the probability of every node depends on its whole fanin cone,
both steps are measured on the whole network.  The size step runs on the
network and is rolled back when it raises activity, depth or size.  A
shaping rewrite is measured on a working copy with the same node ids and
reaches the network only when activity drops, depth does not rise, and
size grows by at most one node without exceeding the size the network
entered with.  So the whole entry point never raises activity, depth or
size.
"""

from __future__ import annotations

import pickle
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
    with a non-growing Ψ.R, then shaping of the 200 most toggle-prone nodes.

    Neither step raises activity, depth or size.  ``size_opt_stats``
    describes the Algorithm 1 run even when it was rolled back."""
    from ..analysis.activity import total_switching_activity

    start = time.perf_counter()
    initial_size = mig.num_gates
    initial_activity = total_switching_activity(mig, pi_probabilities)

    # Algorithm 1 optimizes size and depth, not activity: roll it back
    # when it raises any of the three.
    before = mig.copy()
    initial_depth = mig.depth()
    size_stats = _optimize_size(mig, effort, RESHAPE_RULES, relevance_growth=0)
    if (
        total_switching_activity(mig, pi_probabilities) > initial_activity
        or mig.depth() > initial_depth
        or mig.num_gates > initial_size
    ):
        mig.assign_from(before)
    relevance_rewrites = _shape_probabilities(mig, pi_probabilities, initial_size)

    return ActivityOptStats(
        initial_size=initial_size,
        final_size=mig.num_gates,
        initial_activity=initial_activity,
        final_activity=total_switching_activity(mig, pi_probabilities),
        size_opt_stats=size_stats,
        relevance_rewrites=relevance_rewrites,
        runtime_s=time.perf_counter() - start,
    )


def _shape_probabilities(
    mig: Mig, pi_probabilities: Optional[Mapping[str, float]], max_size: int
) -> int:
    """Relevance-driven probability shaping (the Fig. 2(d) move); the
    network never grows beyond ``max_size`` gates."""
    from ..analysis.activity import signal_probabilities, total_switching_activity

    rewrites = 0
    probabilities = signal_probabilities(mig, pi_probabilities)
    activity = total_switching_activity(mig, pi_probabilities)
    candidates = _rank_candidates(mig, probabilities)[:200]

    for node in candidates:
        if mig.is_dead(node) or not mig.is_maj(node):
            continue
        improved = _try_activity_relevance(
            mig, node, probabilities, activity, pi_probabilities, max_size
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
    max_size: int,
):
    """Apply Ψ.R on ``node`` if it lowers the global activity.

    The rewrite is tried on a copy first and committed only when activity
    drops, depth does not rise, and size grows by at most one node and
    stays within ``max_size``.  Returns the new activity when a rewrite
    was committed, else ``None`` (``mig`` is untouched).
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

    # Measure on a copy: a pickle round trip keeps node ids (``copy()``
    # renumbers), so ``node`` and ``cone`` name the same gates there, and
    # the rewrite reaches ``mig`` only once it has paid off.
    trial = pickle.loads(pickle.dumps(mig))
    if not _apply_relevance(trial, node, best):
        return None
    new_activity = total_switching_activity(trial, pi_probabilities)
    if (
        new_activity >= current_activity
        or trial.num_gates > min(mig.num_gates + 1, max_size)
        or trial.depth() > mig.depth()
    ):
        return None
    _apply_relevance(mig, node, best)
    return new_activity


def _apply_relevance(mig: Mig, node: int, move) -> bool:
    """Replace ``node`` by ``M(x, y, z[x/y'])`` and drop dangling logic.

    Deterministic, so a copy with the same node ids ends in the same
    state.  Returns whether the substitution happened.
    """
    z, x, y, x_node, cone = move
    replacement_target = negate_if(negate(y), is_complemented(x))
    new_z = rebuild_cone(mig, z, cone, {x_node: replacement_target})
    substituted = mig.substitute(node, mig.maj(x, y, new_z))
    mig.cleanup()
    return substituted
