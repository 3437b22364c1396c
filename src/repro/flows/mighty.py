"""The MIGhty optimization flow (Section V-A methodology).

The paper's experiments run "depth-optimization interlaced with size and
activity recovery phases".  This module declares exactly that recipe as a
pass pipeline over the flow engine (:mod:`repro.flows.engine`)::

    Pipeline([
        Balance(),
        Repeat([DepthOpt(effort), SizeOpt(effort), Eliminate(), Balance()],
               rounds=rounds),
    ])

so the experiment harness, the examples and downstream users all run the
same flow — and all get the engine's per-pass size/depth/runtime metrics
for free (see :attr:`MightyResult.pass_metrics` and the serialisation
helpers in :mod:`repro.flows.report`).

Balancing commits its rebuilt candidate only when it *strictly* improves
the ``(depth, size)`` order; a candidate that merely ties no longer
replaces the network (which used to cost a full copy for zero gain).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

from ..core.mig import Mig
from ..core.reshape import ReshapeParams
from .engine import (
    Balance,
    DepthOpt,
    Eliminate,
    MigRewrite,
    Pass,
    PassMetrics,
    Pipeline,
    Repeat,
    SizeOpt,
)

__all__ = ["MightyResult", "mighty_optimize", "mighty_pipeline"]


@dataclass
class MightyResult:
    """Outcome of one MIGhty flow invocation."""

    initial_size: int
    initial_depth: int
    final_size: int
    final_depth: int
    rounds: int
    runtime_s: float
    pass_metrics: List[PassMetrics] = field(default_factory=list)


def mighty_pipeline(
    rounds: int = 2,
    depth_effort: int = 2,
    size_effort: int = 1,
    activity_recovery: bool = True,
    reshape_params: Optional[ReshapeParams] = None,
    boolean_rewrite: bool = True,
    verify=None,
) -> Pipeline:
    """Build the MIGhty flow as a declarative pass pipeline.

    Each round performs depth optimization (Algorithm 2), then a size
    recovery phase (Algorithm 1 with low effort), then an optional
    activity recovery phase (a cheap elimination pass that keeps the size
    in check after the depth-oriented duplication), then re-balances.
    Rounds stop early when neither depth nor size improves.  The leading
    balance (closed-form Ω.A) gives the majority-specific depth moves a
    well-conditioned starting point.

    ``boolean_rewrite`` (default **on** since the top-k structure
    database landed) interleaves NPN-database cut rewriting
    (:class:`~repro.flows.engine.MigRewrite`) with the algebraic size
    recovery — an optimization scenario beyond the paper's purely
    algebraic flow.  Each rewrite sweep is depth-safe and only commits
    size-improving replacements; the combined flow dominating the
    algebraic one on both metrics is an empirical result (verified per
    benchmark by ``benchmarks/acceptance_cut_rewrite.py`` over the Table I
    suite), not a structural guarantee — later heuristic rounds start
    from a different network and could in principle land elsewhere.  Pass
    ``boolean_rewrite=False`` for the paper's purely algebraic flow.

    ``verify`` enables per-pass self-certification: ``True`` proves every
    top-level pass function-preserving through the equivalence-checking
    dispatch (exhaustive simulation or SAT sweeping depending on input
    width) and raises :class:`~repro.flows.engine.PassVerificationError`
    on the first violation; a callable supplies a custom checker.
    """
    round_passes: List[Pass] = [
        DepthOpt(effort=depth_effort, reshape_params=reshape_params),
        SizeOpt(effort=size_effort, reshape_params=reshape_params),
    ]
    if boolean_rewrite:
        round_passes.append(MigRewrite())
    if activity_recovery:
        round_passes.append(Eliminate())
    round_passes.append(Balance())
    return Pipeline(
        [
            Balance(),
            Repeat(round_passes, rounds=max(1, rounds), name="mighty_round"),
        ],
        name="mighty",
        verify=verify,
    )


def mighty_optimize(
    mig: Mig,
    rounds: int = 2,
    depth_effort: int = 2,
    size_effort: int = 1,
    activity_recovery: bool = True,
    reshape_params: Optional[ReshapeParams] = None,
    boolean_rewrite: bool = True,
    verify=None,
) -> MightyResult:
    """Run the MIGhty delay-oriented flow in place.

    With ``verify`` (see :func:`mighty_pipeline`) the run self-certifies:
    every top-level pass is equivalence-checked against its input network.
    """
    start = time.perf_counter()
    pipeline = mighty_pipeline(
        rounds=rounds,
        depth_effort=depth_effort,
        size_effort=size_effort,
        activity_recovery=activity_recovery,
        reshape_params=reshape_params,
        boolean_rewrite=boolean_rewrite,
        verify=verify,
    )
    result = pipeline.run(mig)

    executed = 1
    for metrics in result.passes:
        if metrics.name == "mighty_round":
            executed = int(metrics.details.get("rounds", 1))

    return MightyResult(
        initial_size=result.initial_size,
        initial_depth=result.initial_depth,
        final_size=result.final_size,
        final_depth=result.final_depth,
        rounds=executed,
        runtime_s=time.perf_counter() - start,
        pass_metrics=result.passes,
    )
