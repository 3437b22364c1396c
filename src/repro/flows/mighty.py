"""The MIGhty optimization flow (Section V-A methodology).

The paper's experiments run "depth-optimization interlaced with size and
activity recovery phases".  This module declares exactly that recipe as a
pass pipeline over the flow engine (:mod:`repro.flows.engine`)::

    Pipeline([
        Balance(),
        Repeat([DepthOpt(depth_effort), SizeOpt(effort=1), MigRewrite(),
                Eliminate(), Balance()],
               rounds=rounds),
    ])

``boolean_rewrite=False`` leaves out ``MigRewrite`` (NPN cut rewriting,
beyond the paper's algebraic passes).  The experiment harness, the
examples and downstream users all run this same flow — and all get the
engine's per-pass size/depth/runtime metrics for free (see
:attr:`MightyResult.pass_metrics` and the serialisation helpers in
:mod:`repro.flows.report`).

Balancing commits its rebuilt candidate only when it *strictly* improves
the ``(depth, size)`` order; a candidate that merely ties no longer
replaces the network (which used to cost a full copy for zero gain).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Sequence

from ..core.mig import Mig
from ..core.rules import RESHAPE_RULES
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
    reshape_rules: Sequence[str] = RESHAPE_RULES,
    boolean_rewrite: bool = True,
    verify=None,
) -> Pipeline:
    """Build the MIGhty flow as a declarative pass pipeline.

    Each round performs depth optimization (Algorithm 2 with
    ``depth_effort`` cycles), then a size recovery phase (Algorithm 1 with
    effort 1), then Boolean rewriting, then an activity recovery phase (a
    cheap elimination pass that keeps the size in check after the
    depth-oriented duplication), then re-balances.  Rounds stop early when
    neither depth nor size improves.  The leading balance (closed-form
    Ω.A) gives the majority-specific depth moves a well-conditioned
    starting point.  ``rounds`` and ``depth_effort`` must be at least 1
    (``ValueError`` otherwise).

    ``reshape_rules`` is the rule list of the reshape step inside both
    Algorithms (names from :data:`repro.core.rules.RULES`); a subset
    ablates rules.

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
    if rounds < 1 or depth_effort < 1:
        raise ValueError(
            f"rounds and depth_effort must be >= 1, got {rounds} and {depth_effort}"
        )
    round_passes: List[Pass] = [
        DepthOpt(effort=depth_effort, reshape_rules=reshape_rules),
        SizeOpt(effort=1, reshape_rules=reshape_rules),
    ]
    if boolean_rewrite:
        round_passes.append(MigRewrite())
    round_passes += [Eliminate(), Balance()]
    return Pipeline(
        [
            Balance(),
            Repeat(round_passes, rounds=rounds, name="mighty_round"),
        ],
        name="mighty",
        verify=verify,
    )


def mighty_optimize(
    mig: Mig,
    rounds: int = 2,
    depth_effort: int = 2,
    reshape_rules: Sequence[str] = RESHAPE_RULES,
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
        reshape_rules=reshape_rules,
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
