r"""MIG depth optimization (Algorithm 2 of the paper).

The goal is to shorten the critical path by moving late-arriving (critical)
operands closer to the outputs:

* the majority axiom Ω.M\ :sub:`L→R` removes nodes outright (both depth and
  size win);
* associativity Ω.A and complementary associativity Ψ.C push a critical
  operand one level up with **no** size penalty;
* distributivity Ω.D\ :sub:`L→R` pushes a critical operand up at the price
  of one duplicated node;
* when no push-up applies, the *reshape* process (shared with Algorithm 1)
  restructures the logic to create new opportunities.

As in the paper the optimizer runs for a user-defined number of *effort*
cycles and never undoes an improvement: MIGs returned by this pass cannot
be improved by any further direct push-up move.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Sequence

from .mig import Mig
from .reshape import reshape
from .rules import PUSH_UP_RULES, RESHAPE_RULES, RuleSweep
from .size_opt import eliminate

__all__ = ["DepthOptStats", "push_up", "optimize_depth"]


@dataclass
class DepthOptStats:
    """Summary of one :func:`optimize_depth` run."""

    initial_size: int
    final_size: int
    initial_depth: int
    final_depth: int
    cycles: int
    push_up_rewrites: int
    reshape_rewrites: int
    runtime_s: float
    depth_per_cycle: List[int] = field(default_factory=list)

    @property
    def depth_reduction_percent(self) -> float:
        if self.initial_depth == 0:
            return 0.0
        return 100.0 * (self.initial_depth - self.final_depth) / self.initial_depth


def push_up(mig: Mig, max_rounds: int = 32) -> int:
    """Move critical operands toward the outputs until no move helps.

    Each round snapshots the levels and computes the critical section
    once, then visits the critical nodes from the outputs toward the inputs
    applying the cheapest applicable rule (Ω.M implicitly, then the
    :data:`~repro.core.rules.PUSH_UP_RULES` Ω.A, Ψ.C and finally Ω.D L→R).
    Returns the number of accepted rewrites.
    """
    rewrites = 0
    for _ in range(max_rounds):
        depth_before = mig.depth()
        if depth_before == 0:
            break
        # Exact level copy, no DFS.
        sweep = RuleSweep("push_up", PUSH_UP_RULES, mig.level_snapshot())
        round_rewrites = sum(1 for _ in sweep.run(mig, mig.critical_nodes()))
        mig.cleanup()
        rewrites += round_rewrites
        if round_rewrites == 0:
            break
    return rewrites


def optimize_depth(
    mig: Mig,
    effort: int = 3,
    reshape_rules: Sequence[str] = RESHAPE_RULES,
) -> DepthOptStats:
    """Run Algorithm 2 (MIG-depth optimization) in place.

    Parameters
    ----------
    mig:
        The network to optimize (modified in place).
    effort:
        Number of push-up / reshape cycles.
    reshape_rules:
        Rule list of the reshape step between push-up rounds, where Ψ.R
        may add one node (see :func:`~repro.core.reshape.reshape`).

    Each cycle ends with an elimination pass (as in the MIGhty flow of
    Section V-A) that reclaims part of the Ω.D L→R duplication.
    """
    start = time.perf_counter()
    initial_size = mig.num_gates
    initial_depth = mig.depth()

    push_rewrites = 0
    reshape_rewrites = 0
    depth_per_cycle: List[int] = []
    cycles_run = 0
    best = mig.copy()

    def better_than_best() -> bool:
        return (mig.depth(), mig.num_gates) < (best.depth(), best.num_gates)

    for cycle in range(max(1, effort)):
        cycles_run = cycle + 1
        depth_before_cycle = mig.depth()
        size_before_cycle = mig.num_gates

        push_rewrites += push_up(mig)
        cycle_reshapes = reshape(mig, 1, reshape_rules)
        reshape_rewrites += cycle_reshapes
        push_rewrites += push_up(mig)
        eliminate(mig)

        if better_than_best():
            best = mig.copy()
        depth_per_cycle.append(mig.depth())
        no_depth_progress = mig.depth() >= depth_before_cycle
        no_size_progress = mig.num_gates >= size_before_cycle
        if no_depth_progress and no_size_progress and cycle_reshapes == 0:
            break

    if (best.depth(), best.num_gates) < (mig.depth(), mig.num_gates):
        # Keep the best (depth, size) point visited: depth optimization
        # never returns a deeper network than it was given.
        mig.assign_from(best)

    return DepthOptStats(
        initial_size=initial_size,
        final_size=mig.num_gates,
        initial_depth=initial_depth,
        final_depth=mig.depth(),
        cycles=cycles_run,
        push_up_rewrites=push_rewrites,
        reshape_rewrites=reshape_rewrites,
        runtime_s=time.perf_counter() - start,
        depth_per_cycle=depth_per_cycle,
    )
