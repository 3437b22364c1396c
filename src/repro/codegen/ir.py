"""The one flattening behind network simulation and CNF encoding.

The word-parallel simulation kernels of :mod:`.simgen` and the CNF
encoder of :mod:`repro.verify.cnf` consume the *same* flattened
view of a network, built from **one** cached topological traversal:

``SimProgram``
    * ``num_slots`` value slots; slot 0 is pinned to constant 0;
    * ``pi_slots[i]`` is the slot driven by the ``i``-th primary input;
    * ``gates`` is a tuple of ``(out_slot, tt, in_edges)`` triples in
      topological order, where ``tt`` is the *pure* local function of the
      gate over its already-complemented edge values (majority, AND, a
      library cell's function) and each edge is ``(slot << 1) | compl``
      in the usual signal encoding;
    * ``po_edges`` are the primary-output edges in the same encoding.

For :class:`~repro.network.base.LogicNetwork` subclasses the slots *are*
the node ids and the gate list is the PO-reachable topological order, so
building the program costs one cached-topology walk; the per-gate truth
table comes from the ``UNIFORM_GATE_TT`` class attribute when the network
type has a single gate function (majority for MIGs, AND for AIGs) and
from :meth:`~repro.network.base.LogicNetwork.gate_truth_table` otherwise.
Programs are cached on the network keyed by ``_mutation_serial`` (see the
package docstring for the invalidation contract).

:class:`~repro.mapping.netlist.MappedNetlist` instances get the same
treatment with string nets resolved to dense slots; their cache key is the
netlist's construction shape (instance/PI/PO/constant counts — netlists
are append-only, nothing is ever retargeted in place).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

__all__ = ["SimProgram", "network_ir", "netlist_ir"]


class SimProgram(NamedTuple):
    """Flattened, type-agnostic gate program over dense value slots."""

    num_slots: int
    pi_slots: Tuple[int, ...]
    #: ``(out_slot, tt, in_edges)`` per gate, topologically ordered.
    gates: Tuple[Tuple[int, int, Tuple[int, ...]], ...]
    po_edges: Tuple[int, ...]


# --------------------------------------------------------------------- #
# Logic networks (MIG / AIG / any LogicNetwork subclass)
# --------------------------------------------------------------------- #
def network_ir(network) -> SimProgram:
    """The :class:`SimProgram` of a logic network, serial-cached.

    The cache lives on the network object (``_codegen_ir`` /
    ``_codegen_ir_serial``) and is invalidated by comparing against the
    kernel's monotone ``_mutation_serial``; objects without a mutation
    serial (duck-typed network views) are rebuilt on every call.
    """
    serial = getattr(network, "_mutation_serial", None)
    if serial is not None:
        cached = network.__dict__.get("_codegen_ir")
        if cached is not None and network.__dict__.get("_codegen_ir_serial") == serial:
            return cached
    program = _build_network_ir(network)
    if serial is not None:
        network.__dict__["_codegen_ir"] = program
        network.__dict__["_codegen_ir_serial"] = serial
    return program


def _build_network_ir(network) -> SimProgram:
    uniform_tt = getattr(network, "UNIFORM_GATE_TT", None)
    fanins = network.fanins
    gates: List[Tuple[int, int, Tuple[int, ...]]] = []
    if uniform_tt is not None:
        for node in network.topological_order():
            gates.append((node, uniform_tt, tuple(fanins(node))))
    else:
        truth = network.gate_truth_table
        for node in network.topological_order():
            gates.append((node, truth(node), tuple(fanins(node))))
    return SimProgram(
        num_slots=network.num_nodes,
        pi_slots=tuple(network.pi_nodes()),
        gates=tuple(gates),
        po_edges=tuple(network.po_signals()),
    )


# --------------------------------------------------------------------- #
# Mapped standard-cell netlists
# --------------------------------------------------------------------- #
_CELL_TT_CACHE: Dict[str, int] = {}


def _projection(i: int, k: int) -> int:
    num_bits = 1 << k
    block = (1 << (1 << i)) - 1
    pattern = 0
    for start in range(1 << i, num_bits, 1 << (i + 1)):
        pattern |= block << start
    return pattern


def cell_truth_table(cell) -> int:
    """Truth table of a library cell, cached by cell name."""
    tt = _CELL_TT_CACHE.get(cell.name)
    if tt is None:
        k = cell.num_inputs
        mask = (1 << (1 << k)) - 1
        tt = cell.evaluate([_projection(i, k) for i in range(k)], mask)
        _CELL_TT_CACHE[cell.name] = tt
    return tt


def netlist_shape_key(netlist) -> Tuple[int, int, int, int]:
    """Structural cache key of a netlist: its append-only construction shape."""
    return (
        len(netlist.instances),
        len(netlist.pi_names),
        len(netlist.po_nets),
        len(netlist._net_constants),
    )


def netlist_ir(netlist) -> SimProgram:
    """The :class:`SimProgram` of a mapped netlist, shape-cached."""
    key = netlist_shape_key(netlist)
    cached = netlist.__dict__.get("_codegen_ir")
    if cached is not None and netlist.__dict__.get("_codegen_ir_key") == key:
        return cached
    program = _build_netlist_ir(netlist)
    netlist.__dict__["_codegen_ir"] = program
    netlist.__dict__["_codegen_ir_key"] = key
    return program


def _build_netlist_ir(netlist) -> SimProgram:
    # Slot 0 is the pinned constant; nets resolve to edges so that
    # constant-true nets become complemented edges to slot 0 and undriven
    # nets default to constant 0, mirroring the interpreted simulator.
    net_edge: Dict[str, int] = {}
    pi_slots: List[int] = []
    next_slot = 1
    for name in netlist.pi_names:
        net_edge[name] = next_slot << 1
        pi_slots.append(next_slot)
        next_slot += 1
    for net, value in netlist._net_constants.items():
        net_edge[net] = 1 if value else 0
    gates: List[Tuple[int, int, Tuple[int, ...]]] = []
    library = netlist.library
    for instance in netlist.instances:
        cell = library[instance.cell]
        in_edges = tuple(net_edge.get(n, 0) for n in instance.inputs)
        out_slot = next_slot
        next_slot += 1
        net_edge[instance.output] = out_slot << 1
        gates.append((out_slot, cell_truth_table(cell), in_edges))
    return SimProgram(
        num_slots=next_slot,
        pi_slots=tuple(pi_slots),
        gates=tuple(gates),
        po_edges=tuple(net_edge.get(n, 0) for n in netlist.po_nets),
    )
