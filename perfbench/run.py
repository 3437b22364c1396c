#!/usr/bin/env python3
"""The repository benchmark: one workload, one run, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 15 --trace 0

Workloads: ``table1``, ``scale_rand``, ``cec``, ``batch`` (see
``perfbench/README.md``).  With ``--trace 0`` the result carries the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` its
per-layer metrics, measured by a separate traced pass.

Every process is a fresh interpreter running the checkout's ``src``.
The NPN structure database is read from and written to the
benchmark's own state directory (``.perfbench/`` in the checkout),
never the user's cache; it is filled once, before the first timed run.
Set-up time is the median of several fresh processes, each timed from
its start until it reports ready.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("table1", "scale_rand", "cec", "batch")
#: Fresh processes whose set-up time is measured per run (median).
SETUP_SAMPLES = 3
#: Wall-clock limit of one run, all child processes included.
DEADLINE_S = 170.0


class WorkerError(RuntimeError):
    pass


def child_env(state: Path) -> dict:
    env = dict(os.environ)
    for key in ("REPRO_WORKERS", "REPRO_NPN_CACHE"):
        env.pop(key, None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_NPN_CACHE_DIR"] = str(state / "npn")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, env, deadline: float):
    """Run ``worker.py args``; returns (seconds to ready, ready, result)."""
    command = [sys.executable, str(HERE / "worker.py"), *map(str, args)]
    start = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    ready_s = ready = result = None
    try:
        for line in proc.stdout:
            if line.startswith('{"ready"'):
                ready_s = time.perf_counter() - start
                ready = json.loads(line)["ready"]
            elif line.startswith('{"result"'):
                result = json.loads(line)["result"]
            else:
                sys.stderr.write(line)
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if code != 0 or ready is None:
        raise WorkerError(f"worker {' '.join(map(str, args))} exited with code {code}")
    return ready_s, ready, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-check scale inputs")
    args = parser.parse_args(argv)
    # A terminated run unwinds through spawn(), which kills its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: {ROOT} holds no repro sources under src/ (or no BENCHMARK.json); "
              "run from the root of a repository checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    deadline = time.monotonic() + DEADLINE_S
    state = ROOT / ".perfbench"
    (state / "npn").mkdir(parents=True, exist_ok=True)
    env = child_env(state)
    common = ["--workload", args.workload, "--seed", args.seed, "--state", state]
    if args.tiny:
        common.append("--tiny")

    try:
        if not any((state / "npn").glob("*.json")):
            spawn(common + ["--setup-only"], env, deadline)  # fills the NPN cache
        samples = [spawn(common + ["--setup-only"], env, deadline)
                   for _ in range(SETUP_SAMPLES - 1)]
        samples.append(spawn(
            common + ["--seconds", args.seconds, "--trace", args.trace], env, deadline))
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    result = samples[-1][2]
    setup_times = [s[0] for s in samples]

    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        values = dict(result["metrics"])
        for key in samples[-1][1]:
            values[key] = statistics.median(s[1][key] for s in samples)
        names = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": result["wall_s"],
            "size_out": result["size_out"],
            "depth_out": result["depth_out"],
            "peak_rss_mb": result["peak_rss_mb"],
            "ok_frac": 1.0 - failed / attempted,
        }
        names = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in names}

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "platform": platform.platform()},
        "fingerprints": result["fingerprints"],
    }
    record = dict(provenance, setup_samples_s=setup_times, result=result, metrics=metrics)
    out = state / "results"
    out.mkdir(exist_ok=True)
    suffix = "-tiny" if args.tiny else ""
    (out / f"{args.workload}-{args.seed}-trace{args.trace}{suffix}.json").write_text(
        json.dumps(record, indent=1))
    for error in result["errors"]:
        print(f"perfbench: failed: {error}", file=sys.stderr)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
