"""Per-network code generation: specialized simulation kernels.

The interpreted kernels optimize *per gate* — a fanin decode or a
truth-table dispatch for every gate of every simulation word.  This
package optimizes *per network*, in the meta-function style: flatten the
network once into a small IR (:mod:`.ir`), make all specialization
decisions at generation time, and emit artifacts that the hot loops then
run without any per-gate dispatch:

* :mod:`.simgen` — a flat Python function per network for word-parallel
  simulation: one straight-line bitwise statement per gate over local
  variables, constants folded, complement masks pre-applied.
* :mod:`.graphsim` — evaluation of an append-only
  :class:`~repro.verify.cnf.GateGraph` through one generated function
  per gate truth table (:func:`.simgen.gate_function`), for loops (the
  SAT sweeper) that simulate a graph while still growing it.

Generation / invalidation contract
----------------------------------
Generated artifacts are memoized on the owning object and keyed on the
kernel's monotone ``_mutation_serial`` (for :class:`LogicNetwork`) or
the append-only construction shape (for :class:`MappedNetlist` and
:class:`GateGraph`):

* every structural mutation bumps the serial, so the first consumer to
  run after a mutation regenerates; unchanged networks hit a dict
  lookup.  There is no partial patching of generated code — staleness is
  detected by serial comparison only, the same protocol as
  ``network/cuts.py``'s managers and the interpreted simulation
  program;
* compiled artifacts hold code objects and are process-local: the
  kernel's ``__getstate__`` strips them (``_codegen_ir``,
  ``_codegen_kernel`` and their serial keys), and an unpickled network
  regenerates on first use;
* compilation costs one ``exec`` per ~:data:`~repro.codegen.simgen.CHUNK_GATES`
  gates.  ``LogicNetwork.simulate_patterns`` therefore tiers adaptively:
  the first call at a new serial runs the cheap interpreted program and only
  a repeat call at the same serial compiles the generated kernel, so
  mutate-once/simulate-once loops (NPN derivation, mutation fuzzing)
  never pay the compile.
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
