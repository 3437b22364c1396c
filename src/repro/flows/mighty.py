"""The MIGhty optimization flow (Section V-A methodology).

The paper's experiments run "depth-optimization interlaced with size and
activity recovery phases".  This module declares exactly that recipe as a
pass pipeline over the flow engine (:mod:`repro.flows.engine`)::

    Pipeline([
        Balance(),
        Repeat([DepthRewrite(), MigRewrite(), Eliminate(), Balance()],
               rounds=rounds),
    ])

By default both the depth phase (``DepthRewrite``: critical-path NPN cut
rewriting in depth mode) and the size phase (``MigRewrite``: area cut
rewriting) are Boolean cut rewriting, beyond the paper's algebraic
passes; the two share one cut manager.  ``boolean_rewrite=False`` is the
paper's algebraic flow: ``DepthOpt`` (Algorithm 2 with ``depth_effort``
cycles) for the depth phase and ``SizeOpt`` (Algorithm 1 with effort 1)
for the size phase, both reshaping with ``reshape_rules``.  The
experiment harness, the examples and downstream users all run this same
flow — and all get the engine's :class:`~repro.flows.engine.FlowResult`
back, with its per-pass size/depth/runtime trace in ``pass_metrics``
(serialised by the helpers in :mod:`repro.flows.report`).  The number of
rounds run is the ``mighty_round`` record's ``details["rounds"]``.

Balancing commits its rebuilt candidate only when it *strictly* improves
the ``(depth, size)`` order; a candidate that merely ties no longer
replaces the network (which used to cost a full copy for zero gain).

:func:`mighty_optimize` detaches the cut managers its rewrite passes
attached (:func:`~repro.network.cuts.release_cut_state`) before it
returns.  A manager and its network reference each other, so an attached
manager would keep the optimized network's per-node cut cache alive for
the network's whole lifetime and leave both to the cyclic garbage
collector; detached, they are freed by reference counting.
"""

from __future__ import annotations

from typing import List, Sequence

from ..core.mig import Mig
from ..core.rules import RESHAPE_RULES, check_rule_names
from ..network.cuts import release_cut_state
from .engine import (
    Balance,
    DepthOpt,
    DepthRewrite,
    Eliminate,
    FlowResult,
    MigRewrite,
    Pass,
    Pipeline,
    Repeat,
    SizeOpt,
)

__all__ = ["mighty_optimize", "mighty_pipeline"]


def mighty_pipeline(
    rounds: int = 2,
    depth_effort: int = 2,
    reshape_rules: Sequence[str] = RESHAPE_RULES,
    boolean_rewrite: bool = True,
    verify=None,
) -> Pipeline:
    """Build the MIGhty flow as a declarative pass pipeline.

    Each round performs depth optimization, then a size recovery phase,
    then an activity recovery phase (a cheap elimination pass that keeps
    the size in check after the depth-oriented duplication), then
    re-balances.  Rounds stop early when neither depth nor size improves.
    The leading balance (closed-form Ω.A) gives the depth moves a
    well-conditioned starting point.  ``rounds`` must be at least 1, and
    so must ``depth_effort`` in the algebraic flow; a ``reshape_rules``
    name missing from :data:`repro.core.rules.RULES` is rejected in both
    flows (``ValueError`` otherwise).

    ``boolean_rewrite`` (default **on**) runs NPN-database cut rewriting,
    an optimization scenario beyond the paper's purely algebraic flow, for
    both phases: :class:`~repro.flows.engine.DepthRewrite` is the depth
    phase (critical-path depth-mode sweeps, each move lowering its root's
    level at no extra nodes), and :class:`~repro.flows.engine.MigRewrite`
    is the size phase (depth-safe, size-improving replacements only),
    reusing the cuts the depth phase left up to date.  The combined flow
    dominating the algebraic one on both metrics is an empirical result
    (verified per benchmark by ``benchmarks/acceptance_cut_rewrite.py``
    over the Table I suite), not a structural guarantee.

    ``boolean_rewrite=False`` is the paper's purely algebraic flow: its
    depth phase is Algorithm 2 (:class:`~repro.flows.engine.DepthOpt`)
    with ``depth_effort`` cycles and its size phase Algorithm 1
    (:class:`~repro.flows.engine.SizeOpt`) with effort 1.
    ``reshape_rules`` is the rule list of the reshape step inside the two
    Algorithms; a subset ablates rules.  ``depth_effort`` and
    ``reshape_rules`` reach no pass of the Boolean flow.

    ``verify`` enables per-pass self-certification: ``True`` proves every
    top-level pass function-preserving through the equivalence-checking
    dispatch (exhaustive simulation or SAT sweeping depending on input
    width) and raises :class:`~repro.flows.engine.PassVerificationError`
    on the first violation; a callable supplies a custom checker.
    """
    if not boolean_rewrite and depth_effort < 1:
        raise ValueError(f"depth_effort must be >= 1, got {depth_effort}")
    check_rule_names(reshape_rules)
    if boolean_rewrite:
        round_passes: List[Pass] = [DepthRewrite(), MigRewrite()]
    else:
        round_passes = [
            DepthOpt(effort=depth_effort, reshape_rules=reshape_rules),
            SizeOpt(effort=1, reshape_rules=reshape_rules),
        ]
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
) -> FlowResult:
    """Run the MIGhty delay-oriented flow in place.

    With ``verify`` (see :func:`mighty_pipeline`) the run self-certifies:
    every top-level pass is equivalence-checked against its input network.
    The optimized ``mig`` comes back with no cut manager attached (module
    docstring).
    """
    result = mighty_pipeline(
        rounds=rounds,
        depth_effort=depth_effort,
        reshape_rules=reshape_rules,
        boolean_rewrite=boolean_rewrite,
        verify=verify,
    ).run(mig)
    release_cut_state(mig)
    return result
