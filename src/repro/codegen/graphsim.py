"""Incrementally compiled simulation kernels over a Tseitin gate graph.

The SAT sweeper (:mod:`repro.verify.sweep`) re-simulates its entire
:class:`~repro.verify.cnf.GateGraph` gate list every time refuted-pair
counterexample patterns are folded into the candidate signatures.  A
:class:`GraphSimKernel` removes the per-gate interpreter
(:func:`repro.verify.cnf.eval_gate`'s truth-table dispatch) from that
loop while tracking a graph that *grows while it is being swept*:

* a ``GateGraph`` is append-only — gates are only ever added, never
  retargeted — so compiled code never goes stale; the kernel simply
  compiles the gate list in slabs of :data:`CHUNK_GATES` as they fill up
  and evaluates the not-yet-compiled tail through ``eval_gate``;
* slabs use the ``store_all`` spill policy of
  :func:`repro.codegen.simgen.compile_gate_slab` (every output is written
  back to the shared value buffer) because future gates and the final
  primary-output scan may read any variable.

Variable 0 (the pinned constant-false) and the primary-input variables
are read from the caller's buffer, so the kernel composes with whatever
pattern source the sweeper uses — full-width signatures or the batched
refutation columns.
"""

from __future__ import annotations

from typing import Callable, List

from ..verify.cnf import GateGraph, eval_gate
from .simgen import compile_gate_slab

__all__ = ["GraphSimKernel", "CHUNK_GATES"]

#: Gates per compiled slab.  Smaller than the network-kernel chunk size:
#: slabs compile *during* a sweep, so each compilation must stay cheap
#: relative to the simulation work it will save.
CHUNK_GATES = 512


class GraphSimKernel:
    """A growing compiled evaluator for one (append-only) gate graph."""

    def __init__(self, graph: GateGraph, chunk_gates: int = CHUNK_GATES) -> None:
        self.graph = graph
        self.chunk_gates = chunk_gates
        self._slabs: List[Callable] = []
        self._compiled = 0  # gates covered by the compiled slabs

    def _extend(self) -> None:
        gates = self.graph.gates
        chunk = self.chunk_gates
        while len(gates) - self._compiled >= chunk:
            slab_gates = [
                (var, tt, lits)
                for var, tt, lits in gates[self._compiled : self._compiled + chunk]
            ]
            self._slabs.append(
                compile_gate_slab(
                    slab_gates,
                    f"_graph_slab{len(self._slabs)}",
                    store_all=True,
                )
            )
            self._compiled += chunk

    def eval_into(self, values: List[int], mask: int) -> None:
        """Evaluate every gate into ``values`` (indexed by variable).

        The caller seeds ``values[0] = 0`` and the primary-input
        variables; on return every gate variable holds its pattern, the
        same contract as iterating ``eval_gate`` over the gate list.
        """
        self._extend()
        for slab in self._slabs:
            slab(values, mask)
        gates = self.graph.gates
        for var, tt, lits in gates[self._compiled :]:
            values[var] = eval_gate(values, tt, lits, mask)
