"""Formatting and aggregation of the experiment results (Table I, Figs. 3-4).

The benchmark harness prints the same rows the paper reports: per-benchmark
size / depth / activity / runtime for the three optimization flows, and
area / delay / power for the three synthesis flows, followed by the
averages and the headline relative improvements quoted in the abstract.

Because every flow now runs on the pass-manager engine, this module also
serialises the engine's per-pass metrics traces:
:func:`format_pass_metrics` renders a fixed-width table of one trace and
:func:`pass_metrics_to_json` emits the JSON records the benchmark harness
persists next to the headline numbers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from ..analysis.metrics import geometric_improvement
from .engine import PassMetrics
from .optimize import OptimizationComparison
from .synthesis import SynthesisComparison

__all__ = [
    "OptimizationSummary",
    "SynthesisSummary",
    "summarize_optimization",
    "summarize_synthesis",
    "format_optimization_table",
    "format_synthesis_table",
    "format_pass_metrics",
    "pass_metrics_to_json",
    "optimization_space_points",
    "synthesis_space_points",
]


@dataclass
class OptimizationSummary:
    """Averages and headline deltas of the Table I (top) experiment."""

    avg_size: Dict[str, float]
    avg_depth: Dict[str, float]
    avg_activity: Dict[str, float]
    avg_runtime: Dict[str, float]
    depth_improvement_vs_aig: float
    depth_improvement_vs_bdd: float
    fom_improvement_vs_aig: float
    fom_improvement_vs_bdd: float


@dataclass
class SynthesisSummary:
    """Averages and headline deltas of the Table I (bottom) experiment."""

    avg_area: Dict[str, float]
    avg_delay: Dict[str, float]
    avg_power: Dict[str, float]
    delay_improvement: float
    area_improvement: float
    power_improvement: float


def _mean(values: Sequence[float]) -> float:
    values = [v for v in values if v is not None]
    return sum(values) / len(values) if values else 0.0


def summarize_optimization(results: Sequence[OptimizationComparison]) -> OptimizationSummary:
    """Compute the averages and headline percentages of Table I (top)."""
    with_bdd = [r for r in results if r.bdd is not None]
    avg = {
        "MIG": {
            "size": _mean([r.mig.size for r in results]),
            "depth": _mean([r.mig.depth for r in results]),
            "activity": _mean([r.mig.activity for r in results]),
            "runtime": _mean([r.mig.runtime_s for r in results]),
        },
        "AIG": {
            "size": _mean([r.aig.size for r in results]),
            "depth": _mean([r.aig.depth for r in results]),
            "activity": _mean([r.aig.activity for r in results]),
            "runtime": _mean([r.aig.runtime_s for r in results]),
        },
        "BDD": {
            "size": _mean([r.bdd.size for r in with_bdd]),
            "depth": _mean([r.bdd.depth for r in with_bdd]),
            "activity": _mean([r.bdd.activity for r in with_bdd]),
            "runtime": _mean([r.bdd.runtime_s for r in with_bdd]),
        },
    }

    def fom(flow: str) -> float:
        return avg[flow]["size"] * avg[flow]["depth"] * avg[flow]["activity"]

    return OptimizationSummary(
        avg_size={k: v["size"] for k, v in avg.items()},
        avg_depth={k: v["depth"] for k, v in avg.items()},
        avg_activity={k: v["activity"] for k, v in avg.items()},
        avg_runtime={k: v["runtime"] for k, v in avg.items()},
        depth_improvement_vs_aig=geometric_improvement(
            avg["AIG"]["depth"], avg["MIG"]["depth"]
        ),
        depth_improvement_vs_bdd=geometric_improvement(
            avg["BDD"]["depth"], avg["MIG"]["depth"]
        ),
        fom_improvement_vs_aig=geometric_improvement(fom("AIG"), fom("MIG")),
        fom_improvement_vs_bdd=geometric_improvement(fom("BDD"), fom("MIG")),
    )


def summarize_synthesis(results: Sequence[SynthesisComparison]) -> SynthesisSummary:
    """Compute the averages and headline percentages of Table I (bottom)."""
    avg_area = {
        "MIG": _mean([r.mig.area_um2 for r in results]),
        "AIG": _mean([r.aig.area_um2 for r in results]),
        "CST": _mean([r.cst.area_um2 for r in results]),
    }
    avg_delay = {
        "MIG": _mean([r.mig.delay_ns for r in results]),
        "AIG": _mean([r.aig.delay_ns for r in results]),
        "CST": _mean([r.cst.delay_ns for r in results]),
    }
    avg_power = {
        "MIG": _mean([r.mig.power_uw for r in results]),
        "AIG": _mean([r.aig.power_uw for r in results]),
        "CST": _mean([r.cst.power_uw for r in results]),
    }
    best_other_delay = min(avg_delay["AIG"], avg_delay["CST"])
    best_other_area = min(avg_area["AIG"], avg_area["CST"])
    best_other_power = min(avg_power["AIG"], avg_power["CST"])
    return SynthesisSummary(
        avg_area=avg_area,
        avg_delay=avg_delay,
        avg_power=avg_power,
        delay_improvement=geometric_improvement(best_other_delay, avg_delay["MIG"]),
        area_improvement=geometric_improvement(best_other_area, avg_area["MIG"]),
        power_improvement=geometric_improvement(best_other_power, avg_power["MIG"]),
    )


def format_optimization_table(results: Sequence[OptimizationComparison]) -> str:
    """Render the Table I (top) rows as fixed-width text."""
    header = (
        f"{'Benchmark':<10s} {'I/O':>10s} | "
        f"{'MIG size':>8s} {'depth':>5s} {'act.':>8s} {'time':>6s} | "
        f"{'AIG size':>8s} {'depth':>5s} {'act.':>8s} {'time':>6s} | "
        f"{'BDD size':>8s} {'depth':>5s} {'act.':>8s} {'time':>6s}"
    )
    lines = [header, "-" * len(header)]
    for r in results:
        io = f"{r.mig.num_pis}/{r.mig.num_pos}"
        def cell(metrics) -> str:
            if metrics is None:
                return f"{'N.A.':>8s} {'N.A.':>5s} {'N.A.':>8s} {'N.A.':>6s}"
            return (
                f"{metrics.size:>8d} {metrics.depth:>5d} "
                f"{metrics.activity:>8.2f} {metrics.runtime_s:>6.2f}"
            )
        lines.append(
            f"{r.name:<10s} {io:>10s} | {cell(r.mig)} | {cell(r.aig)} | {cell(r.bdd)}"
        )
    summary = summarize_optimization(results)
    lines.append("-" * len(header))
    lines.append(
        f"{'Average':<10s} {'':>10s} | "
        f"{summary.avg_size['MIG']:>8.1f} {summary.avg_depth['MIG']:>5.1f} "
        f"{summary.avg_activity['MIG']:>8.2f} {summary.avg_runtime['MIG']:>6.2f} | "
        f"{summary.avg_size['AIG']:>8.1f} {summary.avg_depth['AIG']:>5.1f} "
        f"{summary.avg_activity['AIG']:>8.2f} {summary.avg_runtime['AIG']:>6.2f} | "
        f"{summary.avg_size['BDD']:>8.1f} {summary.avg_depth['BDD']:>5.1f} "
        f"{summary.avg_activity['BDD']:>8.2f} {summary.avg_runtime['BDD']:>6.2f}"
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
    return "\n".join(lines)


def format_synthesis_table(results: Sequence[SynthesisComparison]) -> str:
    """Render the Table I (bottom) rows as fixed-width text."""
    header = (
        f"{'Benchmark':<10s} | "
        f"{'MIG A':>8s} {'D':>6s} {'P':>8s} | "
        f"{'AIG A':>8s} {'D':>6s} {'P':>8s} | "
        f"{'CST A':>8s} {'D':>6s} {'P':>8s}"
    )
    lines = [header, "-" * len(header)]
    for r in results:
        def cell(m) -> str:
            return f"{m.area_um2:>8.2f} {m.delay_ns:>6.2f} {m.power_uw:>8.2f}"
        lines.append(f"{r.name:<10s} | {cell(r.mig)} | {cell(r.aig)} | {cell(r.cst)}")
    summary = summarize_synthesis(results)
    lines.append("-" * len(header))
    lines.append(
        f"{'Average':<10s} | "
        f"{summary.avg_area['MIG']:>8.2f} {summary.avg_delay['MIG']:>6.2f} {summary.avg_power['MIG']:>8.2f} | "
        f"{summary.avg_area['AIG']:>8.2f} {summary.avg_delay['AIG']:>6.2f} {summary.avg_power['AIG']:>8.2f} | "
        f"{summary.avg_area['CST']:>8.2f} {summary.avg_delay['CST']:>6.2f} {summary.avg_power['CST']:>8.2f}"
    )
    lines.append(
        f"MIG vs best counterpart: delay {-summary.delay_improvement:+.1f}%, "
        f"area {-summary.area_improvement:+.1f}%, power {-summary.power_improvement:+.1f}%   "
        f"(paper: -22% / -14% / -11%; negative = MIG smaller)"
    )
    return "\n".join(lines)


def format_pass_metrics(passes: Sequence[PassMetrics], title: str = "") -> str:
    """Render one per-pass metrics trace as a fixed-width table."""
    header = (
        f"{'Pass':<14s} {'size':>7s} {'->':>2s} {'size':>7s} "
        f"{'depth':>5s} {'->':>2s} {'depth':>5s} {'time[s]':>8s}  details"
    )
    lines = []
    if title:
        lines.append(title)
    lines.append(header)
    lines.append("-" * len(header))
    for m in passes:
        # Per-rule counts ("rules") are left to the JSON form.
        details = ", ".join(
            f"{k}={v}" for k, v in sorted(m.details.items()) if k != "rules"
        )
        lines.append(
            f"{m.name:<14s} {m.size_before:>7d} {'':>2s} {m.size_after:>7d} "
            f"{m.depth_before:>5d} {'':>2s} {m.depth_after:>5d} "
            f"{m.runtime_s:>8.3f}  {details}"
        )
    return "\n".join(lines)


def pass_metrics_to_json(
    passes: Sequence[PassMetrics], flow: Optional[str] = None, indent: Optional[int] = None
) -> str:
    """Serialise a per-pass metrics trace as JSON for the benchmark harness.

    The result is a JSON array of one record per pass (see
    :meth:`~repro.flows.engine.PassMetrics.as_dict`); when ``flow`` is
    given, every record is tagged with it so traces from several flows can
    be concatenated into one file.
    """
    records = []
    for m in passes:
        record = m.as_dict()
        if flow is not None:
            record["flow"] = flow
        records.append(record)
    return json.dumps(records, indent=indent, sort_keys=True)


def optimization_space_points(results: Sequence[OptimizationComparison]) -> Dict[str, tuple]:
    """The Fig. 3 series: one (size, depth, activity) point per flow."""
    summary = summarize_optimization(results)
    return {
        flow: (
            summary.avg_size[flow],
            summary.avg_depth[flow],
            summary.avg_activity[flow],
        )
        for flow in ("MIG", "AIG", "BDD")
    }


def synthesis_space_points(results: Sequence[SynthesisComparison]) -> Dict[str, tuple]:
    """The Fig. 4 series: one (area, delay, power) point per flow."""
    summary = summarize_synthesis(results)
    return {
        flow: (
            summary.avg_area[flow],
            summary.avg_delay[flow],
            summary.avg_power[flow],
        )
        for flow in ("MIG", "AIG", "CST")
    }
