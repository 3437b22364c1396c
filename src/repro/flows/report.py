"""Rendering of the flow engine's per-pass metrics traces.

:func:`format_pass_metrics` renders a fixed-width table of one trace and
:func:`pass_metrics_to_json` emits one JSON record per pass.  The Table I
tables themselves are rendered by :func:`repro.flows.table1.format_table1`.
"""

from __future__ import annotations

import json
from typing import Optional, Sequence

from .engine import PassMetrics

__all__ = ["format_pass_metrics", "pass_metrics_to_json"]


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
    """Serialise a per-pass metrics trace as JSON.

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
