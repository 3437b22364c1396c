#!/usr/bin/env python3
"""Perf-regression lane for the per-network code generators (ISSUE 6).

Three measured lanes, each comparing the generated kernels of
:mod:`repro.codegen` against the interpreted paths they replaced on the
*same* workload, with *bit-identical results asserted*:

1. **Sweep-signature simulation** (the headline lane): repeated
   word-parallel ``simulate_patterns`` rounds — the inner loop of
   signature sweeping — through the memoized interpreted program
   (``simulate_patterns_interpreted``: cached ``(node, *fanins)``
   integer tuples run by one static loop per network kind) versus the
   generated straight-line kernel.
   Kernel generation/compilation time is *included* in the measured
   codegen wall time.
2. **Exhaustive CEC**: the full 2^n-minterm block sweep of
   ``check_equivalence(method="exhaustive")`` over an optimized-vs-original
   MIG pair, interpreted versus compiled (again including compile time);
   per-block PO patterns and the final verdict are asserted identical.
   The pair is deliberately wider than ``EXHAUSTIVE_LIMIT`` (the width
   callers opt into explicitly with ``method="exhaustive"``) so the sweep
   runs many blocks — the regime where ``_check_exhaustive`` itself runs
   compiled kernels (``simulate_patterns`` promotes from the second block
   on), with one compile amortized across the whole block loop.  The
   lane simulates in blocks of 2^11 minterms, narrower than the
   consumer's 2^16 default: the narrow-block regime is dominated by the
   per-gate dispatch that code generation removes and measures it
   stably, whereas at 2^16-minterm blocks both paths are dominated by
   the same multi-kilobyte big-int arithmetic and the record collapses
   into allocator noise (+/-40% run to run) with only ~2x of real
   headroom left to measure.  (The consumer keeps 2^16 blocks because
   the wide blocks are faster for both paths in absolute terms.)
3. **Probe batching**: ``sat_sweep`` on a refinement-heavy
   near-equivalent pair (every primary output wrapped in absorption
   blocks that agree with the original except on rare inputs — the
   classic FRAIG false-candidate shape), at ``probe_flush_bits=1`` (one
   sub-word kernel pass per refuted probe, the pre-batching protocol)
   versus the batched default and the full-word 64.  Verdicts are
   asserted identical at every width; the record captures the
   flush-count collapse and the staleness cost (duplicate budgeted SAT
   probes), which must stay within 2x the width-1 SAT calls.

Each side of lanes 1 and 2 is timed as the best of ``REPEATS``
alternating repeats (interpreted, generated, interpreted, ...; each
generated repeat compiles the kernels afresh): a single timing of each
side let host noise swing the headline ratio between ~2x and ~5x from
run to run.

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

from repro.codegen import compile_network_kernel
from repro.core import Mig, rewrite_mig
from repro.core.generation import random_network
from repro.verify.equivalence import _input_patterns_block

#: Alternating repeats per timed side of lanes 1 and 2 (best one counts).
REPEATS = 5


def _drop_generated(net) -> None:
    """Strip cached codegen artifacts so a lane times a true cold start."""
    for key in ("_codegen_ir", "_codegen_ir_serial", "_codegen_kernel",
                "_codegen_kernel_serial", "_sim_seen_serial"):
        net.__dict__.pop(key, None)


def _warmup():
    """Charge the prime-cover/expression caches and import-time state so
    the lanes compare execution strategies, not cold caches."""
    net = random_network(Mig, num_pis=8, num_gates=400, num_pos=10, seed=99,
                         gate_mix="mixed")
    patterns = [random.Random(0).getrandbits(64) for _ in range(8)]
    net.simulate_patterns_interpreted(patterns, 64)
    compile_network_kernel(net).simulate(patterns, 64)


def bench_sweep_signatures(num_gates, rounds, num_bits=256, seed=1):
    """Repeated signature-simulation rounds, interpreted vs generated."""
    net = random_network(Mig, num_pis=14, num_gates=num_gates, num_pos=100,
                         seed=seed, gate_mix="mixed")
    rng = random.Random(seed)
    rounds_patterns = [
        [rng.getrandbits(num_bits) for _ in range(net.num_pis)]
        for _ in range(rounds)
    ]

    t_interpreted = t_codegen = float("inf")
    for _ in range(REPEATS):
        # Baseline: the memoized interpreted program (built by the first
        # round of the first repeat, then reused).
        t0 = time.perf_counter()
        expected = [
            net.simulate_patterns_interpreted(patterns, num_bits)
            for patterns in rounds_patterns
        ]
        t_interpreted = min(t_interpreted, time.perf_counter() - t0)

        # Codegen: generation + compilation included in the measured time.
        _drop_generated(net)
        t0 = time.perf_counter()
        kernel = compile_network_kernel(net)
        got = [kernel.simulate(patterns, num_bits) for patterns in rounds_patterns]
        t_codegen = min(t_codegen, time.perf_counter() - t0)
        assert got == expected, "generated kernel diverged from interpreted program"
    return {
        "gates": net.num_gates,
        "rounds": rounds,
        "pattern_bits": num_bits,
        "time_interpreted_s": round(t_interpreted, 3),
        "time_codegen_s": round(t_codegen, 3),
        "speedup": round(t_interpreted / t_codegen, 2),
    }


def bench_exhaustive_cec(num_pis, num_gates, seed=2):
    """Full 2^n-minterm equivalence sweep, interpreted vs generated."""
    first = random_network(Mig, num_pis=num_pis, num_gates=num_gates,
                           num_pos=40, seed=seed, gate_mix="mixed")
    second = first.copy()
    rewrite_mig(second)  # structurally different, functionally equivalent

    total = 1 << num_pis
    block_bits = min(total, 1 << 11)  # narrow blocks; see module docstring

    best_interpreted = best_codegen = float("inf")
    for _ in range(REPEATS):
        _drop_generated(first)
        _drop_generated(second)
        t0 = time.perf_counter()
        kernel_first = first.compiled_kernel()
        kernel_second = second.compiled_kernel()
        t_codegen = time.perf_counter() - t0  # generation + compile, as charged

        # The two paths are timed block-by-block, interleaved, with every
        # block result compared and released before the next block:
        # multi-megabyte big-int workloads are allocation-sensitive, and
        # batching one whole phase while the other phase's results stay
        # pinned on the heap skews the comparison by 2-4x.  Interleaving
        # gives both paths an identical allocator state.
        t_interpreted = 0.0
        verdict = True
        for start in range(0, total, block_bits):
            patterns = _input_patterns_block(num_pis, start, block_bits)
            t0 = time.perf_counter()
            expected_first = first.simulate_patterns_interpreted(patterns, block_bits)
            expected_second = second.simulate_patterns_interpreted(patterns, block_bits)
            t_interpreted += time.perf_counter() - t0
            t0 = time.perf_counter()
            got_first = kernel_first.simulate(patterns, block_bits)
            got_second = kernel_second.simulate(patterns, block_bits)
            t_codegen += time.perf_counter() - t0
            assert got_first == expected_first and got_second == expected_second, (
                "compiled CEC blocks diverged from interpreted"
            )
            verdict = verdict and expected_first == expected_second
        assert verdict, "rewrite broke equivalence (workload bug)"
        best_interpreted = min(best_interpreted, t_interpreted)
        best_codegen = min(best_codegen, t_codegen)
    t_interpreted, t_codegen = best_interpreted, best_codegen
    return {
        "pis": num_pis,
        "gates_first": first.num_gates,
        "gates_second": second.num_gates,
        "minterms": total,
        "verdict_equivalent": verdict,
        "time_interpreted_s": round(t_interpreted, 3),
        "time_codegen_s": round(t_codegen, 3),
        "speedup": round(t_interpreted / t_codegen, 2),
    }


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
        help="reduced CI workload with a >=2x budget assertion",
    )
    parser.add_argument(
        "--json",
        default=os.environ.get("REPRO_BENCH_CODEGEN_JSON", "BENCH_codegen.json"),
        help="write the JSON report to this path",
    )
    args = parser.parse_args(argv)

    _warmup()
    report = {
        "mode": "smoke" if args.smoke else "full",
        "host": {"nproc": os.cpu_count(), "python": platform.python_version()},
        "repeats": REPEATS,
    }

    # --- lane 1: sweep-signature simulation (the headline lane) ------- #
    record = bench_sweep_signatures(
        num_gates=4000 if args.smoke else 10000,
        rounds=600 if args.smoke else 1500,
    )
    report["sweep_signatures"] = record
    print(
        f"sweep-signatures: {record['gates']} gates x {record['rounds']} "
        f"rounds x {record['pattern_bits']} bits: interpreted "
        f"{record['time_interpreted_s']}s -> generated "
        f"{record['time_codegen_s']}s ({record['speedup']}x)",
        flush=True,
    )

    # --- lane 2: exhaustive CEC --------------------------------------- #
    record = bench_exhaustive_cec(
        num_pis=22 if args.smoke else 23,
        num_gates=1200 if args.smoke else 2500,
    )
    report["exhaustive_cec"] = record
    print(
        f"exhaustive-cec: {record['pis']} PIs, {record['gates_first']}/"
        f"{record['gates_second']} gates, {record['minterms']} minterms: "
        f"interpreted {record['time_interpreted_s']}s -> generated "
        f"{record['time_codegen_s']}s ({record['speedup']}x)",
        flush=True,
    )

    # --- lane 3: probe-flush batching in sat_sweep -------------------- #
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
    # Every asserted lane must clear the 2x hard floor against the
    # interpreted baseline (a regression to ~1x trips it immediately), and
    # the headline lane must demonstrate the >=3x target in full mode; the
    # floors sit well below the typical measurements so CI timing noise
    # cannot flake the harness.
    lanes = {
        "sweep_signatures": report["sweep_signatures"]["speedup"],
        "exhaustive_cec": report["exhaustive_cec"]["speedup"],
    }
    for name, speedup in lanes.items():
        assert speedup >= 2.0, f"{name} speedup regressed: {speedup}x < 2x floor"
    # The probe-batching lane asserts on flush-count collapse rather than
    # wall clock: the end-to-end gain is real but small enough (~1.1-1.2x)
    # for CI timing noise, while the flush reduction is structural.
    flush_reduction = report["probe_batching"]["flush_reduction"]
    assert flush_reduction >= 2.0, (
        f"probe batching flush reduction regressed: {flush_reduction}x < 2x"
    )
    # Wider batches may draw a few duplicate probes from stale classes,
    # but a refutation pattern that splits only its own pair (free inputs
    # left at zero instead of random) multiplies them: 983 / 2,329 /
    # 164,861 SAT calls at widths 1 / 4 / 64 in smoke mode, against
    # 630 / 636 / 754 with random fill.
    widths = report["probe_batching"]["widths"]
    base_calls = widths["1"]["sat_calls"]
    for bits, record in widths.items():
        assert record["sat_calls"] <= 2 * base_calls, (
            f"probe batching width {bits}: {record['sat_calls']} SAT calls "
            f"> 2x the width-1 count {base_calls}"
        )
    headline = max(lanes["sweep_signatures"], lanes["exhaustive_cec"])
    if not args.smoke:
        assert headline >= 3.0, (
            f"headline speedup regressed: {headline}x < 3x target"
        )
    print(
        f"budget ok: {', '.join(f'{k} {v}x' for k, v in lanes.items())} "
        f"(floor 2x per lane, headline target 3x)"
    )


if __name__ == "__main__":
    main(sys.argv[1:])
