#!/usr/bin/env python3
"""Probe-batching lane of the SAT sweeper's signature simulation.

``sat_sweep`` on a refinement-heavy near-equivalent pair (every primary
output wrapped in absorption blocks that agree with the original except
on rare inputs — the classic FRAIG false-candidate shape), at
``probe_flush_bits=1`` (one sub-word simulation pass over the gate graph
per refuted probe, the pre-batching protocol) versus the batched default
and the full-word 64.  Verdicts are asserted identical at every width;
the record captures the flush-count collapse and the staleness cost
(duplicate budgeted SAT probes), which must stay within 2x the width-1
SAT calls.

Results land in ``BENCH_codegen.json`` (override with ``--json`` /
``REPRO_BENCH_CODEGEN_JSON``) for the CI artifact upload::

    PYTHONPATH=src python benchmarks/bench_codegen.py [--smoke]
"""

import argparse
import json
import os
import platform
import random
import sys
import time

from repro.core import Mig
from repro.core.generation import random_network


def bench_probe_batching(num_gates, num_pos, layers, rare_width=16, seed=11):
    """``sat_sweep`` probe-flush widths on a refinement-heavy miter.

    The pair: a random MIG versus a copy whose every primary output is
    wrapped in ``layers`` absorption blocks ``g -> g AND (g OR rare)``
    with ``rare`` an AND of ``rare_width`` random PIs — functionally
    identity, but each ``g OR rare`` stage agrees with ``g`` on all but
    a ~2^-rare_width sliver of the input space, so its signature
    collides with ``g`` until a SAT refutation supplies the
    distinguishing pattern.  Each wrapped output therefore forces
    ``layers`` genuine refinements: the workload where flush traffic,
    not solving, used to dominate the encoding phase.
    """
    from repro.verify.sweep import sat_sweep

    first = random_network(Mig, num_pis=24, num_gates=num_gates,
                           num_pos=num_pos, seed=seed, gate_mix="mixed")
    second = first.copy()
    rng = random.Random(seed + 1)
    pis = [(node << 1) for node in second.pi_nodes()]
    for index, po in enumerate(second.po_signals()):
        sig = po
        for _ in range(layers):
            chosen = rng.sample(pis, rare_width)
            rare = chosen[0]
            for pi in chosen[1:]:
                rare = second.and_(rare, pi)
            sig = second.and_(sig, second.or_(sig, rare))
        second.set_po(index, sig)
    second.cleanup()

    from repro.verify.sweep import _DEFAULT_PROBE_FLUSH_BITS

    record = {
        "gates_first": first.num_gates,
        "gates_second": second.num_gates,
        "layers": layers,
        "default_bits": _DEFAULT_PROBE_FLUSH_BITS,
        "widths": {},
    }
    statuses = set()
    for bits in (1, _DEFAULT_PROBE_FLUSH_BITS, 64):
        key = str(bits)
        if key in record["widths"]:
            continue
        t0 = time.perf_counter()
        outcome = sat_sweep(first, second, probe_flush_bits=bits)
        elapsed = time.perf_counter() - t0
        statuses.add(outcome.status)
        record["widths"][key] = {
            "time_s": round(elapsed, 3),
            "status": outcome.status,
            "refinements": outcome.stats["refinements"],
            "batched_flushes": outcome.stats["batched_flushes"],
            "sat_calls": outcome.stats["sat_calls"],
            "merges": outcome.stats["merges"],
        }
    assert statuses == {"equivalent"}, (
        f"probe-flush widths disagreed or workload broke: {statuses}"
    )
    baseline = record["widths"]["1"]
    tuned = record["widths"][str(_DEFAULT_PROBE_FLUSH_BITS)]
    record["speedup"] = round(baseline["time_s"] / tuned["time_s"], 2)
    record["flush_reduction"] = round(
        baseline["batched_flushes"] / max(1, tuned["batched_flushes"]), 2
    )
    return record


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced CI workload",
    )
    parser.add_argument(
        "--json",
        default=os.environ.get("REPRO_BENCH_CODEGEN_JSON", "BENCH_codegen.json"),
        help="write the JSON report to this path",
    )
    args = parser.parse_args(argv)

    report = {
        "mode": "smoke" if args.smoke else "full",
        "host": {"nproc": os.cpu_count(), "python": platform.python_version()},
    }
    record = bench_probe_batching(
        num_gates=3000 if args.smoke else 8000,
        num_pos=60 if args.smoke else 150,
        layers=2,
    )
    report["probe_batching"] = record
    baseline = record["widths"]["1"]
    tuned = record["widths"][str(record["default_bits"])]
    print(
        f"probe-batching: {record['gates_first']}/{record['gates_second']} "
        f"gates: per-probe flush {baseline['time_s']}s "
        f"({baseline['batched_flushes']} flushes) -> batch "
        f"{record['default_bits']} {tuned['time_s']}s "
        f"({tuned['batched_flushes']} flushes): {record['speedup']}x "
        f"end-to-end, {record['flush_reduction']}x fewer flushes",
        flush=True,
    )

    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2)
        print(f"report written to {args.json}")

    # --- budget assertions --------------------------------------------- #
    # The lane asserts on flush-count collapse rather than wall clock: the
    # end-to-end gain is real but small enough (~1.1-1.2x) for CI timing
    # noise, while the flush reduction is structural.
    flush_reduction = record["flush_reduction"]
    assert flush_reduction >= 2.0, (
        f"probe batching flush reduction regressed: {flush_reduction}x < 2x"
    )
    # Wider batches may draw a few duplicate probes from stale classes,
    # but a refutation pattern that splits only its own pair (free inputs
    # left at zero instead of random) multiplies them: 983 / 2,329 /
    # 164,861 SAT calls at widths 1 / 4 / 64 in smoke mode, against
    # 630 / 636 / 754 with random fill.
    base_calls = baseline["sat_calls"]
    for bits, width in record["widths"].items():
        assert width["sat_calls"] <= 2 * base_calls, (
            f"probe batching width {bits}: {width['sat_calls']} SAT calls "
            f"> 2x the width-1 count {base_calls}"
        )
    print(f"budget ok: {flush_reduction}x fewer flushes (floor 2x)")


if __name__ == "__main__":
    main(sys.argv[1:])
