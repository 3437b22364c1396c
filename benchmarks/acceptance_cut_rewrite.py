#!/usr/bin/env python3
"""Acceptance sweep for the cut-rewriting engine (ISSUE 2 criteria).

Runs, over every Table I benchmark (the per-benchmark body is
:func:`rewrite_acceptance_row`):

1. AIG cut rewriting: equivalence-verified, size never worse;
2. MIG cut rewriting: equivalence-verified, size/depth never worse;
3. ``mighty`` vs ``mighty + boolean_rewrite``: the combined flow must be
   no worse on every benchmark (size and depth) and strictly better on
   at least three;
4. technology mapping of both network types through the cut+NPN matcher:
   mapped netlists equivalence-verified.

Benchmarks shard across worker processes through
:func:`repro.parallel.parallel_map` (``--workers N``, default serial);
per-benchmark obligations are checked inside each task, the
cross-benchmark obligation after the merge.
Results are identical at any worker count.

Not part of the tier-1 suite (the largest circuits take minutes in
Python); run manually or from a scheduled job::

    PYTHONPATH=src python benchmarks/acceptance_cut_rewrite.py [--workers N] [names...]
"""

import argparse
import sys
import time

from repro.aig.aig import Aig
from repro.aig.rewrite import rewrite
from repro.bench_circuits import benchmark_names, build_benchmark
from repro.core import Mig, rewrite_mig
from repro.flows.mighty import mighty_optimize
from repro.mapping import map_aig, map_mig
from repro.parallel import parallel_map
from repro.verify import check_equivalence


def _check(first, second, label):
    result = check_equivalence(first, second, num_random_vectors=512)
    if not result.equivalent:
        raise AssertionError(f"{label}: NOT equivalent ({result.method})")
    if not result.certified:
        raise AssertionError(
            f"{label}: NOT certified (budget-exhausted {result.method})"
        )


def rewrite_acceptance_row(name):
    """The per-benchmark body of the sweep; a pure function of ``name``.

    Raises on any violated obligation (equivalence, no-regression); the
    returned row feeds the cross-benchmark "strictly better on >= 3"
    assertion of :func:`main`.
    """
    start = time.time()
    # --- 1. AIG cut rewriting ----------------------------------------- #
    aig = build_benchmark(name, Aig)
    rewritten = rewrite(aig)
    _check(aig, rewritten, f"{name}/aig-rewrite")
    assert rewritten.num_gates <= aig.num_gates, name

    # --- 2. MIG cut rewriting ----------------------------------------- #
    mig = build_benchmark(name, Mig)
    reference = build_benchmark(name, Mig)
    size0, depth0 = mig.num_gates, mig.depth()
    rewrite_mig(mig)
    _check(mig, reference, f"{name}/mig-rewrite")
    assert mig.num_gates <= size0 and mig.depth() <= depth0, name

    # --- 3. mighty vs mighty + cut rewriting --------------------------- #
    algebraic = build_benchmark(name, Mig)
    mighty_optimize(algebraic, rounds=1, depth_effort=1, boolean_rewrite=False)
    combined = build_benchmark(name, Mig)
    mighty_optimize(combined, rounds=1, boolean_rewrite=True)
    _check(combined, reference, f"{name}/mighty+rewrite")
    alg = (algebraic.num_gates, algebraic.depth())
    comb = (combined.num_gates, combined.depth())
    assert comb[0] <= alg[0] and comb[1] <= alg[1], (name, alg, comb)

    # --- 4. mapping through the cut+NPN matcher ------------------------ #
    _check(reference, map_mig(reference), f"{name}/map-mig")
    _check(aig, map_aig(aig), f"{name}/map-aig")

    return {
        "benchmark": name,
        "aig_before": aig.num_gates,
        "aig_after": rewritten.num_gates,
        "mig_before": size0,
        "mig_after": mig.num_gates,
        "mig_depth_before": depth0,
        "mig_depth_after": mig.depth(),
        "mighty": alg,
        "mighty_rewrite": comb,
        "strictly_better": comb < alg,
        "runtime_s": round(time.time() - start, 3),
    }


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="benchmark subset (default: all)")
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="shard the per-benchmark sweep across N worker processes",
    )
    args = parser.parse_args(argv)
    names = args.names or benchmark_names()

    # Per-row results print after the merge (deterministic order); the
    # largest circuits take minutes, so announce the workload up front.
    print(
        f"sweeping {len(names)} benchmarks across {args.workers} worker(s): "
        f"{', '.join(names)} ...",
        flush=True,
    )
    sweep = parallel_map(
        rewrite_acceptance_row, names, workers=args.workers, labels=names
    )
    strictly_better = []
    for row in sweep.results:
        name = row["benchmark"]
        alg = tuple(row["mighty"])
        comb = tuple(row["mighty_rewrite"])
        if row["strictly_better"]:
            strictly_better.append(name)
        aig_line = f"aig {row['aig_before']}->{row['aig_after']}"
        mig_line = (
            f"mig {row['mig_before']}->{row['mig_after']} "
            f"d{row['mig_depth_before']}->{row['mig_depth_after']}"
        )
        flow_line = f"mighty {alg[0]}/d{alg[1]} vs +rw {comb[0]}/d{comb[1]}"
        print(
            f"{name:10s} OK  {aig_line:18s} {mig_line:28s} {flow_line}"
            f"  ({row['runtime_s']:.1f}s)",
            flush=True,
        )

    print(
        f"\nstrictly better with boolean_rewrite: {strictly_better}"
        f"  ({sweep.workers} workers, wall {sweep.wall_s:.1f}s, "
        f"busy {sweep.busy_s:.1f}s)"
    )
    assert len(strictly_better) >= 3, "need >= 3 strictly better benchmarks"
    print("acceptance sweep passed")


if __name__ == "__main__":
    main(sys.argv[1:])
