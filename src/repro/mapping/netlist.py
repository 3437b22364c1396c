"""Gate-level mapped netlist and its area / delay / power estimation.

The paper estimates {delay, area, power} "from the synthesized gate-level
netlist, before physical design".  This module is that netlist: a list of
standard-cell instances over named nets, with

* **area** — sum of cell areas (µm²),
* **delay** — longest purely-combinational cell path (ns, zero wire delay),
* **power** — switching power: per-cell activity (2·p·(1−p) of the output
  net under the independence model) times the cell's switching-energy
  coefficient, plus leakage, scaled to µW at a nominal 1 GHz / 0.8 V
  operating point.

The netlist can also be simulated bit-parallel, which the tests use to
prove that technology mapping preserved the Boolean functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .library import Cell, CellLibrary

__all__ = ["CellInstance", "MappedNetlist"]

#: Nominal switching-power scale: energy[fJ] · activity · f[GHz] → µW.
_POWER_SCALE_UW = 1.0


@dataclass
class CellInstance:
    """One placed cell: output net driven as a function of input nets."""

    cell: str
    output: str
    inputs: Tuple[str, ...]


class MappedNetlist:
    """A combinational standard-cell netlist."""

    def __init__(self, name: str, library: CellLibrary) -> None:
        self.name = name
        self.library = library
        self.pi_names: List[str] = []
        self.po_names: List[str] = []
        self.po_nets: List[str] = []
        self.instances: List[CellInstance] = []
        self._net_constants: Dict[str, bool] = {}

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_pi(self, name: str) -> str:
        self.pi_names.append(name)
        return name

    def add_constant(self, net: str, value: bool) -> str:
        self._net_constants[net] = value
        return net

    def add_cell(self, cell: str, output: str, inputs: Sequence[str]) -> str:
        if cell not in self.library:
            raise ValueError(f"cell {cell!r} not in library {self.library.name!r}")
        expected = self.library[cell].num_inputs
        if len(inputs) != expected:
            raise ValueError(
                f"cell {cell} expects {expected} inputs, got {len(inputs)}"
            )
        self.instances.append(CellInstance(cell, output, tuple(inputs)))
        return output

    def add_po(self, net: str, name: str) -> None:
        self.po_nets.append(net)
        self.po_names.append(name)

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #
    @property
    def num_pis(self) -> int:
        return len(self.pi_names)

    @property
    def num_pos(self) -> int:
        return len(self.po_nets)

    @property
    def num_cells(self) -> int:
        return len(self.instances)

    def cell_histogram(self) -> Dict[str, int]:
        histogram: Dict[str, int] = {}
        for instance in self.instances:
            histogram[instance.cell] = histogram.get(instance.cell, 0) + 1
        return histogram

    # ------------------------------------------------------------------ #
    # Metrics
    # ------------------------------------------------------------------ #
    def area(self) -> float:
        """Total cell area in µm²."""
        return sum(self.library[i.cell].area for i in self.instances)

    def arrival_times(self) -> Dict[str, float]:
        """Per-net arrival time in ns (zero wire delay, PIs arrive at 0)."""
        arrival: Dict[str, float] = {name: 0.0 for name in self.pi_names}
        for net in self._net_constants:
            arrival[net] = 0.0
        for instance in self.instances:
            cell = self.library[instance.cell]
            input_arrival = max(
                (arrival.get(net, 0.0) for net in instance.inputs), default=0.0
            )
            arrival[instance.output] = input_arrival + cell.delay
        return arrival

    def delay(self) -> float:
        """Critical-path delay in ns."""
        if not self.instances:
            return 0.0
        arrival = self.arrival_times()
        return max((arrival.get(net, 0.0) for net in self.po_nets), default=0.0)

    def net_probabilities(
        self, pi_probabilities: Optional[Mapping[str, float]] = None
    ) -> Dict[str, float]:
        """Static 1-probability of every net (fanin-independence model)."""
        pi_probabilities = pi_probabilities or {}
        probs: Dict[str, float] = {
            name: float(pi_probabilities.get(name, 0.5)) for name in self.pi_names
        }
        for net, value in self._net_constants.items():
            probs[net] = 1.0 if value else 0.0
        for instance in self.instances:
            values = [probs.get(net, 0.5) for net in instance.inputs]
            probs[instance.output] = _cell_probability(instance.cell, values)
        return probs

    def power(self, pi_probabilities: Optional[Mapping[str, float]] = None) -> float:
        """Estimated power in µW (switching + leakage)."""
        probs = self.net_probabilities(pi_probabilities)
        total = 0.0
        for instance in self.instances:
            cell = self.library[instance.cell]
            p = probs.get(instance.output, 0.5)
            activity = 2.0 * p * (1.0 - p)
            total += _POWER_SCALE_UW * cell.energy * activity + cell.leakage
        return total

    # ------------------------------------------------------------------ #
    # Simulation (used to verify the mapping)
    # ------------------------------------------------------------------ #
    def simulate_patterns(self, pi_patterns: Sequence[int], num_bits: int) -> List[int]:
        """Bit-parallel simulation through the cached :meth:`sim_kernel`.

        The kernel binds every cell to the shared evaluator of its
        function once, so mapper verification pays the per-cell library
        lookup at binding time, not per call.
        """
        return self.sim_kernel().simulate(pi_patterns, num_bits)

    def sim_kernel(self):
        """The :class:`repro.codegen.SimKernel` of this netlist, shape-cached.

        Netlists are append-only (nothing is retargeted in place), so the
        construction shape of :func:`repro.codegen.ir.netlist_shape_key`
        identifies the state the kernel was built for.
        """
        from ..codegen.ir import netlist_shape_key
        from ..codegen.simgen import compile_netlist_kernel

        key = netlist_shape_key(self)
        kernel = self.__dict__.get("_codegen_kernel")
        if kernel is None or self.__dict__.get("_codegen_kernel_key") != key:
            kernel = compile_netlist_kernel(self)
            self._codegen_kernel = kernel
            self._codegen_kernel_key = key
        return kernel

    def simulate_patterns_interpreted(
        self, pi_patterns: Sequence[int], num_bits: int
    ) -> List[int]:
        """Per-cell reference simulation (the differential oracle)."""
        if len(pi_patterns) != len(self.pi_names):
            raise ValueError(
                f"expected {len(self.pi_names)} PI patterns, got {len(pi_patterns)}"
            )
        mask = (1 << num_bits) - 1
        values: Dict[str, int] = {}
        for name, pattern in zip(self.pi_names, pi_patterns):
            values[name] = pattern & mask
        for net, constant in self._net_constants.items():
            values[net] = mask if constant else 0
        for instance in self.instances:
            cell = self.library[instance.cell]
            inputs = [values.get(net, 0) for net in instance.inputs]
            values[instance.output] = cell.evaluate(inputs, mask)
        return [values.get(net, 0) for net in self.po_nets]

    def __getstate__(self) -> Dict[str, object]:
        state = self.__dict__.copy()
        # Kernels hold generated functions; rebuilt after unpickling.
        for key in ("_codegen_kernel", "_codegen_kernel_key",
                    "_codegen_ir", "_codegen_ir_key"):
            state.pop(key, None)
        return state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MappedNetlist(name={self.name!r}, cells={self.num_cells}, "
            f"area={self.area():.2f}um2, delay={self.delay():.3f}ns)"
        )


def _cell_probability(cell_name: str, p: List[float]) -> float:
    """Output 1-probability of a cell under input independence."""
    if cell_name == "INV":
        return 1.0 - p[0]
    if cell_name == "BUF":
        return p[0]
    if cell_name == "NAND2":
        return 1.0 - p[0] * p[1]
    if cell_name == "AND2":
        return p[0] * p[1]
    if cell_name == "NOR2":
        return (1.0 - p[0]) * (1.0 - p[1])
    if cell_name == "OR2":
        return 1.0 - (1.0 - p[0]) * (1.0 - p[1])
    if cell_name in ("XOR2", "XNOR2"):
        x = p[0] * (1.0 - p[1]) + p[1] * (1.0 - p[0])
        return x if cell_name == "XOR2" else 1.0 - x
    if cell_name in ("MAJ3", "MIN3"):
        a, b, c = p
        maj = a * b + a * c + b * c - 2.0 * a * b * c
        return maj if cell_name == "MAJ3" else 1.0 - maj
    raise ValueError(f"unknown cell {cell_name!r}")
