"""The synthesis experiment of Table I (bottom half) and Fig. 4.

Every benchmark goes through three optimization-mapping flows that share
the same standard-cell library and (for MIG and AIG) the same mapper.
The optimization stage of each flow is a pass pipeline over the flow
engine (:mod:`repro.flows.engine`), so every synthesis row can also
report its optimization-stage per-pass metrics (``opt_passes``):

``MIG + Tech. Map.``
    The MIGhty pipeline followed by the structural mapper.
``AIG + Tech. Map.``
    The resyn2-style rebuild chain followed by the same mapper.
``CST``
    The "commercial synthesis tool" stand-in: an independent flow that runs
    a lighter AIG script (balance + rewrite + balance) and maps with the
    same library.  The absolute numbers of a real commercial tool cannot be
    reproduced; what the experiment preserves is an independent third
    design point, as documented in DESIGN.md.

Each flow reports estimated area (µm²), delay (ns) and power (µW) from the
gate-level netlist, before physical design.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

from ..aig.aig import Aig
from ..aig.resyn import resyn2, run_script
from ..bench_circuits import benchmark_names, build_benchmark
from ..core.mig import Mig
from ..mapping.library import CellLibrary, default_library
from ..mapping.mapper import map_aig, map_mig
from ..mapping.netlist import MappedNetlist
from .engine import PassMetrics
from .mighty import mighty_optimize

__all__ = [
    "SynthesisMetrics",
    "SynthesisComparison",
    "run_mig_synthesis",
    "run_aig_synthesis",
    "run_cst_synthesis",
    "compare_synthesis",
    "run_synthesis_experiment",
]


@dataclass(frozen=True)
class SynthesisMetrics:
    """Estimated post-mapping metrics of one flow on one benchmark."""

    name: str
    flow: str
    area_um2: float
    delay_ns: float
    power_uw: float
    num_cells: int
    runtime_s: float
    opt_passes: tuple = ()


@dataclass
class SynthesisComparison:
    """Per-benchmark row of Table I (bottom)."""

    name: str
    mig: SynthesisMetrics
    aig: SynthesisMetrics
    cst: SynthesisMetrics


def _measure(
    netlist: MappedNetlist,
    name: str,
    flow: str,
    runtime: float,
    opt_passes: List[PassMetrics] = (),
) -> SynthesisMetrics:
    return SynthesisMetrics(
        name=name,
        flow=flow,
        area_um2=netlist.area(),
        delay_ns=netlist.delay(),
        power_uw=netlist.power(),
        num_cells=netlist.num_cells,
        runtime_s=runtime,
        opt_passes=tuple(opt_passes),
    )


def run_mig_synthesis(
    benchmark: str,
    library: Optional[CellLibrary] = None,
    rounds: int = 2,
) -> SynthesisMetrics:
    """MIGhty pipeline + technology mapping."""
    library = library or default_library()
    start = time.perf_counter()
    mig = build_benchmark(benchmark, Mig)
    result = mighty_optimize(mig, rounds=rounds)
    netlist = map_mig(mig, library)
    return _measure(
        netlist, benchmark, "MIG", time.perf_counter() - start, result.pass_metrics
    )


def run_aig_synthesis(
    benchmark: str, library: Optional[CellLibrary] = None
) -> SynthesisMetrics:
    """AIG (resyn2-style chain) optimization + technology mapping."""
    library = library or default_library()
    start = time.perf_counter()
    aig = build_benchmark(benchmark, Aig)
    optimized, result = resyn2(aig)
    netlist = map_aig(optimized, library)
    return _measure(
        netlist, benchmark, "AIG", time.perf_counter() - start, result.pass_metrics
    )


def run_cst_synthesis(
    benchmark: str, library: Optional[CellLibrary] = None
) -> SynthesisMetrics:
    """The commercial-synthesis-tool stand-in flow."""
    library = library or default_library()
    start = time.perf_counter()
    aig = build_benchmark(benchmark, Aig)
    optimized, result = run_script(aig, ("balance", "rewrite", "balance"))
    netlist = map_aig(optimized, library)
    return _measure(
        netlist, benchmark, "CST", time.perf_counter() - start, result.pass_metrics
    )


def compare_synthesis(
    benchmark: str,
    library: Optional[CellLibrary] = None,
    rounds: int = 2,
) -> SynthesisComparison:
    """Run the three synthesis flows of Table I (bottom) on one benchmark."""
    return SynthesisComparison(
        name=benchmark,
        mig=run_mig_synthesis(benchmark, library, rounds=rounds),
        aig=run_aig_synthesis(benchmark, library),
        cst=run_cst_synthesis(benchmark, library),
    )


def run_synthesis_experiment(
    benchmarks: Optional[List[str]] = None,
    library: Optional[CellLibrary] = None,
    rounds: int = 2,
) -> List[SynthesisComparison]:
    """Run the full Table I (bottom) experiment."""
    names = benchmarks if benchmarks is not None else benchmark_names()
    return [
        compare_synthesis(name, library, rounds=rounds)
        for name in names
    ]
