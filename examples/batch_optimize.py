#!/usr/bin/env python3
"""Batch-optimize a corpus of networks across worker processes.

Demonstrates the process-parallel layer's public API:

* ``optimize_many`` — shard whole-network ``mighty_optimize`` /
  ``resyn2`` jobs over a process pool and merge the flow engine's
  per-pass metrics into one report;
* the determinism contract — results are bit-identical to a serial run
  (checked below via structural fingerprints), so the worker count is
  purely a wall-clock knob;
* ``cache_dir`` — the content-addressed result cache: resubmitting the
  corpus answers every item from disk (``+cached``) without running a
  single optimization pass.

Run with::

    PYTHONPATH=src python examples/batch_optimize.py [workers]
"""

import sys
import tempfile

from repro.aig.aig import Aig
from repro.bench_circuits import build_benchmark
from repro.core import Mig
from repro.flows import format_batch_report, optimize_many
from repro.parallel.corpus import structural_fingerprint

CORPUS = ["b9", "count", "alu4", "misex3", "cla", "my_adder"]


def main() -> None:
    workers = int(sys.argv[1]) if len(sys.argv) > 1 else 2

    # A mixed corpus: MIGs take the MIGhty pipeline, AIGs the
    # resyn2-style script (flow="auto" picks per network type).
    corpus = [build_benchmark(name, Mig) for name in CORPUS]
    corpus += [build_benchmark(name, Aig) for name in CORPUS[:2]]

    report = optimize_many(corpus, workers=workers, rounds=1, depth_effort=1)
    print(format_batch_report(report))

    # The same corpus at one worker lands on identical structures:
    # parallelism never changes a result, only the wall clock.
    serial = optimize_many(corpus, workers=1, rounds=1, depth_effort=1)
    identical = [structural_fingerprint(n) for n in report.networks] == [
        structural_fingerprint(n) for n in serial.networks
    ]
    print(
        f"\nbit-identical to the 1-worker run: {identical}"
        f"  (pool wall {report.wall_s:.2f}s vs in-process {serial.wall_s:.2f}s)"
    )

    # With a cache directory, the first call optimizes and stores every
    # result; the resubmission is answered from the cache, bit for bit.
    with tempfile.TemporaryDirectory() as cache_dir:
        for _ in range(2):
            cached = optimize_many(
                corpus, workers=workers, cache_dir=cache_dir, rounds=1, depth_effort=1
            )
    print(f"\nresubmitted with cache_dir (wall {cached.wall_s:.2f}s):")
    for item in cached.items:
        print(f"  {item.name:<10s} {item.flow:<14s} {item.final_size:>6d} gates")
    same = [structural_fingerprint(n) for n in cached.networks] == [
        structural_fingerprint(n) for n in serial.networks
    ]
    print(f"cached results bit-identical: {same}")


if __name__ == "__main__":
    main()
