#!/usr/bin/env python3
"""Perf lane for the process-parallel execution layer (ISSUE 5 criteria).

Three lanes, each comparing a sharded run against the identical serial
workload with **bit-identical results asserted** (the determinism
contract of :mod:`repro.parallel` — same sizes, depths, node-level
structural fingerprints and CEC verdicts):

1. **Table I optimization sweep** (the budget lane): the full
   three-flow-per-benchmark experiment — one
   :func:`repro.parallel.corpus.optimization_row` task per benchmark,
   each row carrying structural fingerprints of the optimized networks
   and (with ``--verify``, the default) the CEC verdict of the MIG flow.
   The serial lane's per-task timings feed the shard planner's
   longest-first schedule, so the parallel lane's makespan approaches
   ``max(longest_row, total/workers)``.  Target: **>= 2.5x wall-clock at
   4 workers** — asserted when the host actually has that many CPUs
   (``--force-assert`` overrides), reported otherwise; determinism is
   asserted unconditionally.
2. **optimize_many**: the batch corpus API at 1 vs N workers over the
   Table I MIGs; optimized-network fingerprints and aggregated metric
   totals must match exactly.
3. **Parallel NPN derivation**: the 222x2-class structure database
   derived from first principles, sharded by canonical class, against a
   1-worker run of the same shard tasks; entries compared
   structure-for-structure.

Results land in ``BENCH_parallel.json`` (override with ``--json`` /
``REPRO_BENCH_PARALLEL_JSON``) for the CI artifact upload::

    PYTHONPATH=src python benchmarks/bench_parallel.py [--smoke] [--workers N]
"""

import argparse
import functools
import json
import os
import sys
import time

from repro.bench_circuits import benchmark_names, build_benchmark
from repro.core import Mig
from repro.flows import optimize_many
from repro.network import npn
from repro.parallel import parallel_map, warm_worker
from repro.parallel.corpus import (
    optimization_row,
    structural_fingerprint,
    structural_row,
)

#: Fast benchmark subset of the CI smoke lane (cost spread preserved).
SMOKE_BENCHMARKS = ["C1355", "bigkey", "clma", "count", "b9", "alu4"]

#: Wall-clock floors: the full lane must clear the ISSUE target at 4
#: workers; the smoke lane runs at 2 workers on noisy CI runners, so its
#: floor only guards against the parallel path regressing to ~1x.
FULL_TARGET = 2.5
SMOKE_FLOOR = 1.2


def bench_table1_sweep(names, workers, rounds, verify):
    """Lane 1: serial vs sharded Table I optimization sweep."""
    kwargs = {
        "rounds": rounds,
        "include_bdd": True,
        "verify": verify,
    }
    t0 = time.perf_counter()
    serial_rows = []
    serial_times = []
    for name in names:
        t_task = time.perf_counter()
        serial_rows.append(optimization_row(name, **kwargs))
        serial_times.append(time.perf_counter() - t_task)
    t_serial = time.perf_counter() - t0

    sweep = parallel_map(
        functools.partial(optimization_row, **kwargs),
        names,
        workers=workers,
        costs=serial_times,
        labels=names,
    )
    t_parallel = sweep.wall_s

    for name, serial, sharded in zip(names, serial_rows, sweep.results):
        assert structural_row(serial) == structural_row(sharded), (
            f"{name}: sharded row diverged from serial\n"
            f"serial:  {structural_row(serial)}\nsharded: {structural_row(sharded)}"
        )
    return {
        "benchmarks": list(names),
        "rounds": rounds,
        "verified_rows": sum(1 for row in serial_rows if "cec" in row),
        "workers": sweep.workers,
        "parallel_pool": sweep.parallel,
        "time_serial_s": round(t_serial, 3),
        "time_parallel_s": round(t_parallel, 3),
        "busy_parallel_s": round(sweep.busy_s, 3),
        "speedup": round(t_serial / t_parallel, 2),
        "slowest_row_s": round(max(serial_times), 3),
    }


def bench_optimize_many(names, workers, rounds):
    """Lane 2: the batch corpus API, 1 vs N workers, fingerprint-checked."""
    def corpus():
        return [build_benchmark(name, Mig) for name in names]

    one = optimize_many(corpus(), workers=1, rounds=rounds)
    many = optimize_many(corpus(), workers=workers, rounds=rounds)
    fp_one = [structural_fingerprint(n) for n in one.networks]
    fp_many = [structural_fingerprint(n) for n in many.networks]
    assert fp_one == fp_many, "optimize_many results diverged across worker counts"
    t1, tn = one.totals(), many.totals()
    structural_keys = (
        "networks", "initial_size", "final_size", "initial_depth", "final_depth",
    )
    assert all(t1[k] == tn[k] for k in structural_keys), (
        f"optimize_many structural totals diverged: {t1} vs {tn}"
    )
    return {
        "networks": len(names),
        "workers": many.workers,
        "time_1_worker_s": round(one.wall_s, 3),
        "time_n_workers_s": round(many.wall_s, 3),
        "speedup": round(one.wall_s / many.wall_s, 2),
        "total_size": one.totals()["final_size"],
    }


def bench_npn_derivation(workers):
    """Lane 3: sharded vs 1-worker structure-database derivation."""
    serial, serial_stats = npn.derive_structures_parallel(workers=1)
    sharded, parallel_stats = npn.derive_structures_parallel(workers=workers)
    assert sharded == serial, "parallel NPN derivation diverged from serial"
    return {
        "classes": serial_stats["classes"],
        "entries": len(serial),
        "workers": parallel_stats["workers"],
        "time_serial_s": serial_stats["wall_s"],
        "time_parallel_s": parallel_stats["wall_s"],
        "speedup": round(serial_stats["wall_s"] / max(parallel_stats["wall_s"], 1e-9), 2),
    }


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced CI workload (benchmark subset, relaxed floor)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker count of the parallel lanes (default: 2 smoke, 4 full)",
    )
    parser.add_argument(
        "--no-verify",
        dest="verify",
        action="store_false",
        help="skip the per-row CEC verdicts of the Table I lane",
    )
    parser.add_argument(
        "--force-assert",
        action="store_true",
        help="assert the speedup floor even on hosts with fewer CPUs than workers",
    )
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument(
        "--json",
        default=os.environ.get("REPRO_BENCH_PARALLEL_JSON", "BENCH_parallel.json"),
        help="write the JSON report to this path",
    )
    args = parser.parse_args(argv)
    workers = args.workers if args.workers is not None else (2 if args.smoke else 4)
    names = SMOKE_BENCHMARKS if args.smoke else benchmark_names()
    cpus = os.cpu_count() or 1

    warm_worker()  # serial and parallel lanes start equally hot
    report = {
        "mode": "smoke" if args.smoke else "full",
        "workers": workers,
        "cpu_count": cpus,
    }

    # --- lane 1: sharded Table I optimization sweep (the budget lane) -- #
    record = bench_table1_sweep(names, workers, args.rounds, args.verify)
    report["table1_sweep"] = record
    print(
        f"table1 sweep ({len(names)} benchmarks, {record['verified_rows']} CEC-verified "
        f"rows): serial {record['time_serial_s']}s -> {workers} workers "
        f"{record['time_parallel_s']}s ({record['speedup']}x, slowest row "
        f"{record['slowest_row_s']}s, rows bit-identical)",
        flush=True,
    )

    # --- lane 2: the batch optimize_many API --------------------------- #
    batch_names = names[: 6 if args.smoke else len(names)]
    record = bench_optimize_many(batch_names, workers, args.rounds)
    report["optimize_many"] = record
    print(
        f"optimize_many ({record['networks']} networks): 1 worker "
        f"{record['time_1_worker_s']}s -> {workers} workers "
        f"{record['time_n_workers_s']}s ({record['speedup']}x, "
        f"fingerprints identical)",
        flush=True,
    )

    # --- lane 3: parallel NPN structure-database derivation ------------ #
    record = bench_npn_derivation(workers)
    report["npn_derivation"] = record
    print(
        f"npn derivation ({record['classes']}x2 classes): 1 worker "
        f"{record['time_serial_s']}s -> {workers} workers "
        f"{record['time_parallel_s']}s ({record['speedup']}x, entries identical)",
        flush=True,
    )

    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2)
        print(f"report written to {args.json}")

    # --- budget assertion ---------------------------------------------- #
    # Determinism was already asserted in every lane.  The wall-clock
    # floor only binds where the hardware can express it: a 4-worker pool
    # on a 1-CPU container time-slices instead of parallelizing, which
    # measures the OS scheduler, not this layer.
    floor = SMOKE_FLOOR if args.smoke else FULL_TARGET
    speedup = report["table1_sweep"]["speedup"]
    if cpus >= workers or args.force_assert:
        assert speedup >= floor, (
            f"table1 sweep speedup regressed: {speedup}x < {floor}x floor "
            f"at {workers} workers"
        )
        print(f"budget ok: {speedup}x >= {floor}x at {workers} workers")
    else:
        print(
            f"budget floor SKIPPED: host has {cpus} CPU(s) < {workers} workers "
            f"(measured {speedup}x; determinism asserted)"
        )


if __name__ == "__main__":
    main(sys.argv[1:])
