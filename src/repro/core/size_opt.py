r"""MIG size optimization (Algorithm 1 of the paper).

The optimizer alternates two processes for a user-defined number of
*effort* cycles:

``eliminate``
    Apply the majority axiom left-to-right (Ω.M\ :sub:`L→R`) and the
    distributivity axiom right-to-left (Ω.D\ :sub:`R→L`) over the whole
    network until no more nodes can be removed.

``reshape``
    When elimination is stuck in a local minimum, locally increase the
    number of common operands using associativity (Ω.A), complementary
    associativity (Ψ.C), relevance (Ψ.R) and substitution (Ψ.S), then run
    elimination again.

The network is modified in place; a :class:`SizeOptStats` record documents
what happened, which the tests and the benchmark harness rely on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Sequence

from .mig import Mig
from .reshape import reshape
from .rules import ELIMINATE_RULES, RESHAPE_RULES, RuleSweep

__all__ = ["SizeOptStats", "eliminate", "optimize_size"]


@dataclass
class SizeOptStats:
    """Summary of one :func:`optimize_size` run."""

    initial_size: int
    final_size: int
    initial_depth: int
    final_depth: int
    cycles: int
    eliminations: int
    reshape_rewrites: int
    runtime_s: float
    size_per_cycle: List[int] = field(default_factory=list)

    @property
    def size_reduction_percent(self) -> float:
        if self.initial_size == 0:
            return 0.0
        return 100.0 * (self.initial_size - self.final_size) / self.initial_size


def eliminate(mig: Mig) -> int:
    """The elimination step: Ω.M (L→R) and Ω.D (R→L) to a fixpoint.

    Runs at most 8 sweeps of :data:`~repro.core.rules.ELIMINATE_RULES`;
    the kernel applies Ω.M to every node it builds or retargets, so no
    stored triple needs a sweep of its own.  Returns the number of nodes
    removed.
    """
    removed_total = 0
    sweep = RuleSweep("eliminate", ELIMINATE_RULES)
    for _ in range(8):
        removed = -sum(sweep.run(mig, list(mig.gates())))
        mig.cleanup()
        if removed == 0:
            break
        removed_total += removed
    return removed_total


def optimize_size(
    mig: Mig, effort: int = 2, reshape_rules: Sequence[str] = RESHAPE_RULES
) -> SizeOptStats:
    """Run Algorithm 1 (MIG-size optimization) in place.

    Parameters
    ----------
    mig:
        The network to optimize (modified in place).
    effort:
        Number of reshape/eliminate cycles (the paper's *effort* knob).
    reshape_rules:
        Rule list of the reshape step (see :func:`~repro.core.reshape.reshape`),
        where Ψ.R may add two nodes: the next elimination usually reclaims them.
    """
    return _optimize_size(mig, effort, reshape_rules, relevance_growth=2)


def _optimize_size(
    mig: Mig, effort: int, reshape_rules: Sequence[str], relevance_growth: int
) -> SizeOptStats:
    """:func:`optimize_size` with the Ψ.R node budget of its reshape step."""
    start = time.perf_counter()
    initial_size = mig.num_gates
    initial_depth = mig.depth()

    eliminations = 0
    reshape_rewrites = 0
    size_per_cycle: List[int] = []
    cycles_run = 0
    best = mig.copy()

    for cycle in range(max(1, effort)):
        cycles_run = cycle + 1
        size_before_cycle = mig.num_gates

        cycle_eliminations = eliminate(mig)
        cycle_reshapes = reshape(mig, relevance_growth, reshape_rules)
        cycle_eliminations += eliminate(mig)
        eliminations += cycle_eliminations
        reshape_rewrites += cycle_reshapes

        if mig.num_gates < best.num_gates or (
            mig.num_gates == best.num_gates and mig.depth() < best.depth()
        ):
            best = mig.copy()
        size_per_cycle.append(mig.num_gates)
        if mig.num_gates >= size_before_cycle and cycle_reshapes == 0:
            # Neither elimination nor reshaping made progress: further
            # effort cycles cannot help.
            break

    if best.num_gates < mig.num_gates:
        # Speculative reshaping left the network larger than the best
        # intermediate result: roll back (size optimization never regresses).
        mig.assign_from(best)

    return SizeOptStats(
        initial_size=initial_size,
        final_size=mig.num_gates,
        initial_depth=initial_depth,
        final_depth=mig.depth(),
        cycles=cycles_run,
        eliminations=eliminations,
        reshape_rewrites=reshape_rewrites,
        runtime_s=time.perf_counter() - start,
        size_per_cycle=size_per_cycle,
    )
