"""Word-parallel simulation of flattened gate lists.

Every simulated gate list — a logic network, a mapped netlist, the SAT
sweeper's growing gate graph — runs through one mechanism: each gate is
bound once to the shared generated evaluator of its function
(:func:`.simgen.gate_function`, one small function per truth table and
arity, edge complements folded into the table by
:func:`.simgen.bind_gate`), and one loop calls the evaluators in
topological order.  Nothing is generated per network.

* :mod:`.ir` — the flattened view of a network or netlist
  (:class:`~.ir.SimProgram`) behind both simulation and the CNF encoder
  of :mod:`repro.verify.cnf`;
* :mod:`.simgen` — the evaluators and :class:`~.simgen.SimKernel`, the
  simulator of one frozen program;
* :mod:`.graphsim` — :class:`~.graphsim.GraphSimKernel`, the same
  binding over an append-only :class:`~repro.verify.cnf.GateGraph` that
  grows while the sweeper simulates it.

Caching / invalidation contract
-------------------------------
Programs and kernels are memoized on the owning object and keyed on the
kernel's monotone ``_mutation_serial`` (for :class:`LogicNetwork`) or
the append-only construction shape (for :class:`MappedNetlist`):

* every structural mutation bumps the serial, so the first consumer to
  run after a mutation rebuilds; unchanged networks hit a dict lookup.
  There is no partial patching — staleness is detected by serial
  comparison only, the same protocol as ``network/cuts.py``'s managers;
* kernels hold generated functions and are process-local: the owner's
  ``__getstate__`` strips them (``_codegen_ir``, ``_codegen_kernel`` and
  their keys), and an unpickled network rebuilds on first use.

The uncached per-gate loops (``simulate_patterns_interpreted`` on
networks and netlists) stay as the reference the kernels are tested
against.
"""

from .graphsim import GraphSimKernel
from .ir import SimProgram, netlist_ir, network_ir
from .simgen import (
    SimKernel,
    compile_netlist_kernel,
    compile_network_kernel,
)

__all__ = [
    "GraphSimKernel",
    "SimKernel",
    "SimProgram",
    "compile_netlist_kernel",
    "compile_network_kernel",
    "netlist_ir",
    "network_ir",
]
