"""The Table I experiment: one row per benchmark, both halves of the table.

Every flow optimizes the benchmark once; the top half of Table I
(Fig. 3) measures the optimized network, and the bottom half (Fig. 4)
maps that same network onto the standard-cell library:

``MIG``
    The benchmark built as a MIG and optimized by the MIGhty pipeline
    (:mod:`repro.flows.mighty`), then mapped.
``AIG``
    The same function built as an AIG and optimized by the
    ``resyn2``-style rebuild chain, then mapped with the same mapper.
``BDD``
    The same function turned into canonical BDDs and structurally
    decomposed back into a network (the BDS-style baseline; top half
    only).  Like the paper, which reports N.A. for ``clma``, benchmarks
    whose BDDs explode are reported as unavailable (``bdd is None``).
``CST``
    The "commercial synthesis tool" stand-in (bottom half only): a
    lighter AIG script (balance + rewrite + balance) mapped with the same
    library.  A real commercial tool's numbers cannot be reproduced; the
    stand-in keeps an independent third design point.

The top half reports size, depth, total switching activity and the
optimizer's runtime; the bottom half reports estimated area (µm²), delay
(ns) and power (µW) of the gate-level netlist, before physical design.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence

from ..aig.aig import Aig
from ..aig.resyn import resyn2, run_script
from ..analysis.metrics import NetworkMetrics, geometric_improvement, measure_network
from ..bdd.decompose import decompose_to_mig
from ..bench_circuits import benchmark_names, build_benchmark
from ..core.mig import Mig
from ..mapping.library import default_library
from ..mapping.mapper import map_network
from ..parallel.corpus import structural_fingerprint
from .engine import PassMetrics
from .mighty import mighty_optimize

__all__ = [
    "MappedMetrics",
    "Table1Row",
    "Table1Summary",
    "table1_row",
    "run_table1",
    "summarize_table1",
    "format_table1",
]

#: Benchmarks above this PI count skip the BDD baseline (canonical BDDs with
#: a static order blow up; the paper similarly reports N.A. for clma).
BDD_PI_LIMIT = 600

#: The commercial-synthesis-tool stand-in's AIG script.
CST_SCRIPT = ("balance", "rewrite", "balance")


@dataclass(frozen=True)
class MappedMetrics:
    """Estimated post-mapping metrics of one flow on one benchmark."""

    area_um2: float
    delay_ns: float
    power_uw: float
    num_cells: int


def _map(network) -> MappedMetrics:
    netlist = map_network(network, default_library())
    return MappedMetrics(
        netlist.area(), netlist.delay(), netlist.power(), netlist.num_cells
    )


@dataclass
class Table1Row:
    """One benchmark's row of Table I, top and bottom half.

    ``mig_passes`` / ``aig_passes`` are the engine's per-pass traces of
    the two optimizing flows; ``*_network`` are the optimized networks
    that ``mig`` / ``aig`` / ``bdd`` measure and ``*_mapped`` map.
    """

    name: str
    mig: NetworkMetrics
    aig: NetworkMetrics
    bdd: Optional[NetworkMetrics]
    mig_mapped: MappedMetrics
    aig_mapped: MappedMetrics
    cst_mapped: MappedMetrics
    mig_passes: List[PassMetrics]
    aig_passes: List[PassMetrics]
    mig_network: Mig
    aig_network: Aig
    bdd_network: Optional[Mig]

    def as_dict(self) -> dict:
        """The row as plain data, with structural fingerprints of the
        optimized networks in place of the networks themselves."""
        return {
            "name": self.name,
            "mig": asdict(self.mig),
            "aig": asdict(self.aig),
            "bdd": None if self.bdd is None else asdict(self.bdd),
            "mig_mapped": asdict(self.mig_mapped),
            "aig_mapped": asdict(self.aig_mapped),
            "cst_mapped": asdict(self.cst_mapped),
            "mig_fingerprint": structural_fingerprint(self.mig_network),
            "aig_fingerprint": structural_fingerprint(self.aig_network),
            "bdd_fingerprint": (
                None
                if self.bdd_network is None
                else structural_fingerprint(self.bdd_network)
            ),
        }


def _bdd_baseline(network):
    """``(metrics, decomposed network)``, or ``(None, None)`` when infeasible."""
    if network.num_pis > BDD_PI_LIMIT:
        return None, None
    start = time.perf_counter()
    try:
        decomposed, _stats = decompose_to_mig(network)
    except (MemoryError, RecursionError):
        return None, None
    runtime = time.perf_counter() - start
    metrics = measure_network(decomposed, name=network.name, runtime_s=runtime)
    return metrics, decomposed


def table1_row(benchmark: str, rounds: int = 2) -> Table1Row:
    """Optimize ``benchmark`` once per flow, then measure and map the results.

    The runtime columns are the optimizers' own runtimes, which exclude
    measuring and mapping, as in the paper.
    """
    mig = build_benchmark(benchmark, Mig)
    mig_result = mighty_optimize(mig, rounds=rounds)
    aig, aig_result = resyn2(build_benchmark(benchmark, Aig))
    cst, _ = run_script(build_benchmark(benchmark, Aig), CST_SCRIPT)
    bdd, bdd_network = _bdd_baseline(build_benchmark(benchmark, Mig))
    return Table1Row(
        name=benchmark,
        mig=measure_network(mig, runtime_s=mig_result.runtime_s),
        aig=measure_network(aig, runtime_s=aig_result.runtime_s),
        bdd=bdd,
        mig_mapped=_map(mig),
        aig_mapped=_map(aig),
        cst_mapped=_map(cst),
        mig_passes=mig_result.pass_metrics,
        aig_passes=aig_result.pass_metrics,
        mig_network=mig,
        aig_network=aig,
        bdd_network=bdd_network,
    )


def run_table1(
    benchmarks: Optional[Sequence[str]] = None, rounds: int = 2
) -> List[Table1Row]:
    """Table I over ``benchmarks`` (default: the whole suite)."""
    names = benchmarks if benchmarks is not None else benchmark_names()
    return [table1_row(name, rounds=rounds) for name in names]


@dataclass
class Table1Summary:
    """Averages and headline deltas of Table I.

    The top-half averages are keyed MIG / AIG / BDD (BDD over the rows
    where it ran), the bottom-half ones MIG / AIG / CST.  Improvements
    are in percent, positive when the MIG flow is smaller; the synthesis
    ones compare against the better of AIG and CST.
    """

    avg_size: Dict[str, float]
    avg_depth: Dict[str, float]
    avg_activity: Dict[str, float]
    avg_runtime: Dict[str, float]
    avg_area: Dict[str, float]
    avg_delay: Dict[str, float]
    avg_power: Dict[str, float]
    depth_improvement_vs_aig: float
    depth_improvement_vs_bdd: float
    fom_improvement_vs_aig: float
    fom_improvement_vs_bdd: float
    delay_improvement: float
    area_improvement: float
    power_improvement: float


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def summarize_table1(rows: Sequence[Table1Row]) -> Table1Summary:
    """Compute the averages and headline percentages of Table I."""
    with_bdd = [r for r in rows if r.bdd is not None]
    measured = {
        "MIG": [r.mig for r in rows],
        "AIG": [r.aig for r in rows],
        "BDD": [r.bdd for r in with_bdd],
    }
    mapped = {
        "MIG": [r.mig_mapped for r in rows],
        "AIG": [r.aig_mapped for r in rows],
        "CST": [r.cst_mapped for r in rows],
    }

    def avg(metrics, field: str) -> Dict[str, float]:
        return {
            flow: _mean([getattr(m, field) for m in values])
            for flow, values in metrics.items()
        }

    size, depth, activity = (
        avg(measured, "size"), avg(measured, "depth"), avg(measured, "activity")
    )
    area, delay, power = (
        avg(mapped, "area_um2"), avg(mapped, "delay_ns"), avg(mapped, "power_uw")
    )

    def fom(flow: str) -> float:
        return size[flow] * depth[flow] * activity[flow]

    def vs_best(metric: Dict[str, float]) -> float:
        return geometric_improvement(min(metric["AIG"], metric["CST"]), metric["MIG"])

    return Table1Summary(
        avg_size=size,
        avg_depth=depth,
        avg_activity=activity,
        avg_runtime=avg(measured, "runtime_s"),
        avg_area=area,
        avg_delay=delay,
        avg_power=power,
        depth_improvement_vs_aig=geometric_improvement(depth["AIG"], depth["MIG"]),
        depth_improvement_vs_bdd=geometric_improvement(depth["BDD"], depth["MIG"]),
        fom_improvement_vs_aig=geometric_improvement(fom("AIG"), fom("MIG")),
        fom_improvement_vs_bdd=geometric_improvement(fom("BDD"), fom("MIG")),
        delay_improvement=vs_best(delay),
        area_improvement=vs_best(area),
        power_improvement=vs_best(power),
    )


def format_table1(rows: Sequence[Table1Row]) -> str:
    """Render both halves of Table I, with averages, as fixed-width text."""
    summary = summarize_table1(rows)
    top = (
        f"{'Benchmark':<10s} {'I/O':>10s} | "
        f"{'MIG size':>8s} {'depth':>5s} {'act.':>8s} {'time':>6s} | "
        f"{'AIG size':>8s} {'depth':>5s} {'act.':>8s} {'time':>6s} | "
        f"{'BDD size':>8s} {'depth':>5s} {'act.':>8s} {'time':>6s}"
    )

    def measured(m) -> str:
        if m is None:
            return f"{'N.A.':>8s} {'N.A.':>5s} {'N.A.':>8s} {'N.A.':>6s}"
        return f"{m.size:>8d} {m.depth:>5d} {m.activity:>8.2f} {m.runtime_s:>6.2f}"

    def averaged(flow: str) -> str:
        return (
            f"{summary.avg_size[flow]:>8.1f} {summary.avg_depth[flow]:>5.1f} "
            f"{summary.avg_activity[flow]:>8.2f} {summary.avg_runtime[flow]:>6.2f}"
        )

    lines = ["Table I (top) — logic optimization", top, "-" * len(top)]
    for r in rows:
        io = f"{r.mig.num_pis}/{r.mig.num_pos}"
        lines.append(
            f"{r.name:<10s} {io:>10s} | "
            f"{measured(r.mig)} | {measured(r.aig)} | {measured(r.bdd)}"
        )
    lines.append("-" * len(top))
    lines.append(
        f"{'Average':<10s} {'':>10s} | "
        f"{averaged('MIG')} | {averaged('AIG')} | {averaged('BDD')}"
    )
    lines.append(
        f"MIG depth vs AIG: {-summary.depth_improvement_vs_aig:+.1f}%   "
        f"vs BDD: {-summary.depth_improvement_vs_bdd:+.1f}%   "
        f"(paper: -18.6% / -23.7%; negative = MIG smaller)"
    )
    lines.append(
        f"MIG size*depth*activity vs AIG: {-summary.fom_improvement_vs_aig:+.1f}%   "
        f"vs BDD: {-summary.fom_improvement_vs_bdd:+.1f}%   (paper: -17.5% / -27.7%)"
    )

    bottom = (
        f"{'Benchmark':<10s} | "
        f"{'MIG A':>8s} {'D':>6s} {'P':>8s} | "
        f"{'AIG A':>8s} {'D':>6s} {'P':>8s} | "
        f"{'CST A':>8s} {'D':>6s} {'P':>8s}"
    )

    def cell(area: float, delay: float, power: float) -> str:
        return f"{area:>8.2f} {delay:>6.2f} {power:>8.2f}"

    lines += ["", "Table I (bottom) — synthesis", bottom, "-" * len(bottom)]
    for r in rows:
        cells = [
            cell(m.area_um2, m.delay_ns, m.power_uw)
            for m in (r.mig_mapped, r.aig_mapped, r.cst_mapped)
        ]
        lines.append(f"{r.name:<10s} | " + " | ".join(cells))
    lines.append("-" * len(bottom))
    cells = [
        cell(summary.avg_area[flow], summary.avg_delay[flow], summary.avg_power[flow])
        for flow in ("MIG", "AIG", "CST")
    ]
    lines.append(f"{'Average':<10s} | " + " | ".join(cells))
    lines.append(
        f"MIG vs best counterpart: delay {-summary.delay_improvement:+.1f}%, "
        f"area {-summary.area_improvement:+.1f}%, power {-summary.power_improvement:+.1f}%   "
        f"(paper: -22% / -14% / -11%; negative = MIG smaller)"
    )
    return "\n".join(lines)
