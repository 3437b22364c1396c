"""Shared configuration of the benchmark harness.

Environment knobs
-----------------
``REPRO_BENCH_BENCHMARKS``
    Comma-separated benchmark names to run (default: the full Table I list).
``REPRO_BENCH_ROUNDS``
    Rounds of the MIGhty flow (default 1 — enough to reproduce the
    comparative shape at Python speed; raise for closer-to-paper effort).
"""

import os

from repro.bench_circuits import benchmark_names

__all__ = [
    "selected_benchmarks",
    "flow_rounds",
    "report",
]


_REPORT_PATH = os.path.join(os.path.dirname(__file__), "..", "benchmarks_report.txt")


def report(text: str) -> None:
    """Print a result table and persist it to ``benchmarks_report.txt``.

    pytest captures stdout of passing tests, so the regenerated tables are
    also appended to a plain-text report at the repository root.
    """
    print(text)
    with open(os.path.abspath(_REPORT_PATH), "a", encoding="utf-8") as handle:
        handle.write(text + "\n\n")


def selected_benchmarks():
    raw = os.environ.get("REPRO_BENCH_BENCHMARKS", "")
    if raw.strip():
        return [name.strip() for name in raw.split(",") if name.strip()]
    return benchmark_names()


def flow_rounds() -> int:
    return int(os.environ.get("REPRO_BENCH_ROUNDS", "1"))
