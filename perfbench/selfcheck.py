#!/usr/bin/env python3
"""Fast self-check of the benchmark on tiny inputs (about a minute).

Runs every workload once untraced and once traced at self-check scale
(``run.py --tiny``) and fails when

* a run is not correct, or a metric of ``BENCHMARK.json`` is missing
  from its result or carries another unit;
* a per-layer metric of ``BENCHMARK.json`` is computed by no workload,
  or a workload computes one ``BENCHMARK.json`` does not list;
* a wrapped function records no call on a workload meant to exercise
  it (for instance a wrapper patched where no caller looks it up).

Usage, from the root of a checkout::

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from run import WORKLOADS  # noqa: E402
from tracer import TARGETS  # noqa: E402


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    computed = set()
    for workload in WORKLOADS:
        for trace in (0, 1):
            command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                       "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-400:]}")
                continue
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            if not line["correct"] or line["failed"]:
                problems.append(f"{where}: not correct")
            for metric in spec["per_layer" if trace else "end_to_end"]:
                got = line["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{where}: {metric['name']} missing or not in {metric['unit']}")
            if not trace:
                continue
            record = json.loads(
                (ROOT / ".perfbench" / "results" / f"{workload}-1-trace1-tiny.json").read_text())
            computed.update(record["result"]["metrics"])
            computed.update(k for k in record["metrics"] if k.startswith(("setup.", "npn.")))
            calls = record["result"]["wrapped_calls"]
            for target in TARGETS:
                if workload in target.workloads and not calls.get(target.key):
                    problems.append(f"{workload}: no call recorded for {target.key}")

    listed = {m["name"] for m in spec["per_layer"]}
    from repro.bench_circuits import benchmark_names

    circuits = {f"flows.circuit.{name}.s" for name in benchmark_names()}
    computed |= circuits  # the tiny table1 runs only a few circuits
    problems += [f"{name}: listed but computed by no workload" for name in sorted(listed - computed)]
    problems += [f"{name}: computed but not listed" for name in sorted(computed - listed)]
    problems += [f"{name}: not a Table I circuit" for name in sorted(
        n for n in listed if n.startswith("flows.circuit.") and n not in circuits)]

    for problem in problems:
        print(f"selfcheck: {problem}")
    print("selfcheck: OK" if not problems else f"selfcheck: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
