"""Simulation kernels over a growing Tseitin gate graph.

The SAT sweeper (:mod:`repro.verify.sweep`) re-simulates its entire
:class:`~repro.verify.cnf.GateGraph` gate list every time refuted-pair
counterexample patterns are folded into the candidate signatures.  A
:class:`GraphSimKernel` evaluates that list the way
:class:`~repro.codegen.simgen.SimKernel` evaluates a network: each gate
is bound once, through :func:`repro.codegen.simgen.bind_gate`, to the
shared evaluator of its function, and one loop runs them.  The
difference is that the graph *grows while it is being swept*: a
``GateGraph`` is append-only — gates are only ever added, never
retargeted — so the kernel binds each new gate when it first sees it
and never revisits the binding.

Variable 0 (the pinned constant-false) and the primary-input variables
are read from the caller's buffer, so the kernel composes with whatever
pattern source the sweeper uses — full-width signatures or the batched
refutation columns.
"""

from __future__ import annotations

from typing import Callable, List

from ..verify.cnf import GateGraph
from .simgen import bind_gate

__all__ = ["GraphSimKernel"]


class GraphSimKernel:
    """A growing evaluator for one (append-only) gate graph."""

    def __init__(self, graph: GateGraph) -> None:
        self.graph = graph
        #: Bound evaluator of each gate seen so far, in gate order.
        self._functions: List[Callable] = []

    def eval_into(self, values: List[int], mask: int) -> None:
        """Evaluate every gate into ``values`` (indexed by variable).

        The caller seeds ``values[0] = 0`` and the primary-input
        variables; on return every gate variable holds its pattern, the
        same contract as iterating ``eval_gate`` over the gate list.
        """
        gates = self.graph.gates
        functions = self._functions
        if len(functions) < len(gates):
            functions.extend(
                bind_gate(tt, lits) for _, tt, lits in gates[len(functions):]
            )
        for (var, _, lits), evaluate in zip(gates, functions):
            values[var] = evaluate(values, lits, mask)
