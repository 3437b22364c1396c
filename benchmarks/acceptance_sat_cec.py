#!/usr/bin/env python3
"""Acceptance sweep for the SAT-based CEC subsystem (ISSUE 3 criteria).

Two obligations, measured end-to-end through the public
``check_equivalence`` dispatch:

1. **Proofs** — for Table I benchmarks wider than the exhaustive limit
   (>16 primary inputs), the pre/post ``mighty_optimize`` pair must come
   back ``method="sat-sweep"``, equivalent, with no counterexample: an
   actual proof, not a random falsifier.
2. **Refutations** — seeded single-gate mutants of a wide benchmark must
   be refuted with counterexamples that replay to a real PO mismatch
   through ``simulate_patterns`` (independently re-validated here, on top
   of the checker's own internal validation).

Results are written as a JSON report (per-benchmark sizes, sweep
statistics, runtimes; mutant outcome histogram) for the CI artifact
upload.

Smoke mode — what CI runs on every push — restricts the proof sweep to a
fast subset and keeps the full 100-mutant refutation::

    PYTHONPATH=src python benchmarks/acceptance_sat_cec.py --smoke

Full mode sweeps every >16-input Table I benchmark (minutes in Python;
run manually or from a scheduled job)::

    PYTHONPATH=src python benchmarks/acceptance_sat_cec.py [names...]
"""

import argparse
import functools
import json
import os
import sys
import time

from repro.bench_circuits import BENCHMARKS, build_benchmark
from repro.core import Mig, mutate_network
from repro.flows.mighty import mighty_optimize
from repro.parallel import parallel_map
from repro.verify import check_equivalence

#: Fast >16-input benchmarks for the CI smoke lane.
SMOKE_BENCHMARKS = ["my_adder", "count"]

#: Wide benchmark the mutation refutation runs against (33 PIs).
MUTATION_BENCHMARK = "my_adder"

#: ``sat_sweep`` counters recorded per proof in the JSON report.
SWEEP_STATS = (
    "sat_calls", "merges", "local_merges", "refinements", "unresolved",
    "conflicts", "decisions", "propagations",
)


def wide_benchmark_names():
    """Table I benchmarks beyond the exhaustive limit, in table order."""
    return [spec.name for spec in BENCHMARKS.values() if spec.num_inputs > 16]


def cec_prove_row(name, rounds=1):
    """Prove one pre/post ``mighty_optimize`` pair end-to-end (SAT sweep).

    The per-benchmark proof obligation: the pair must come back
    ``method="sat-sweep"``, equivalent, with no counterexample.
    """
    pre = build_benchmark(name, Mig)
    post = build_benchmark(name, Mig)
    t_opt = time.time()
    mighty_optimize(post, rounds=rounds)
    t_cec = time.time()
    result = check_equivalence(pre, post, num_random_vectors=256)
    elapsed = time.time() - t_cec

    if not result.equivalent:
        raise AssertionError(
            f"{name}: mighty_optimize broke equivalence "
            f"(output {result.failing_output}, cex {result.counterexample})"
        )
    if result.method != "sat-sweep":
        raise AssertionError(
            f"{name}: expected a sat-sweep proof, got method={result.method!r}"
        )
    if result.counterexample is not None:
        raise AssertionError(f"{name}: proof must not carry a counterexample")

    return {
        "benchmark": name,
        "num_pis": pre.num_pis,
        "num_pos": pre.num_pos,
        "size_pre": pre.num_gates,
        "size_post": post.num_gates,
        "depth_pre": pre.depth(),
        "depth_post": post.depth(),
        "method": result.method,
        "proved": True,
        "optimize_s": round(t_cec - t_opt, 3),
        "cec_s": round(elapsed, 3),
        "sweep": {key: result.stats[key] for key in SWEEP_STATS},
    }


def refute_mutants(name, count, seed_base=0):
    """Refute ``count`` seeded mutants of ``name`` with validated cexs."""
    base = build_benchmark(name, Mig)
    refuted = 0
    masked = 0
    methods = {}
    seed = seed_base
    start = time.time()
    while refuted < count:
        mutant, description = mutate_network(base, seed=seed)
        seed += 1
        result = check_equivalence(base, mutant, num_random_vectors=256)
        if result.equivalent:
            # The mutation was masked by don't-cares (proved so by the
            # sweep) — draw another seed; it does not count.
            masked += 1
            continue
        # check_equivalence validates internally; re-validate end-to-end
        # from the public simulation API anyway.
        patterns = [1 if bit else 0 for bit in result.counterexample]
        out_base = base.simulate_patterns(patterns, 1)
        out_mut = mutant.simulate_patterns(patterns, 1)
        if not (out_base[result.failing_output] ^ out_mut[result.failing_output]) & 1:
            raise AssertionError(
                f"{name}: counterexample for mutant seed {seed - 1} "
                f"({description}) does not replay"
            )
        refuted += 1
        methods[result.method] = methods.get(result.method, 0) + 1
        # The dispatch usually refutes mutants in the cheap random stage;
        # every 10th mutant is additionally pushed through the forced SAT
        # backend so the solver's refutation path is exercised end-to-end.
        if refuted % 10 == 0:
            forced = check_equivalence(base, mutant, method="sat-sweep")
            if forced.equivalent or forced.counterexample is None:
                raise AssertionError(
                    f"{name}: sat-sweep failed to refute mutant seed {seed - 1}"
                )
            methods["sat-sweep (forced)"] = methods.get("sat-sweep (forced)", 0) + 1
    return {
        "benchmark": name,
        "refuted": refuted,
        "masked_mutations": masked,
        "seeds_drawn": seed - seed_base,
        "methods": methods,
        "runtime_s": round(time.time() - start, 3),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="benchmark subset (default: all >16-input)")
    parser.add_argument(
        "--smoke",
        action="store_true",
        default=bool(os.environ.get("REPRO_SAT_CEC_SMOKE")),
        help="CI lane: fast benchmark subset, full mutant refutation",
    )
    parser.add_argument("--mutants", type=int, default=100)
    parser.add_argument(
        "--json",
        default=os.environ.get("REPRO_SAT_CEC_JSON"),
        help="write the JSON report to this path",
    )
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="shard the per-benchmark proof sweep across N worker processes",
    )
    args = parser.parse_args(argv)

    if args.names:
        names = args.names
    elif args.smoke:
        names = SMOKE_BENCHMARKS
    else:
        names = wide_benchmark_names()

    report = {
        "mode": "smoke" if args.smoke else "full",
        "rounds": args.rounds,
        "workers": args.workers,
        "benchmarks": [],
        "mutants": None,
    }
    # The proof obligations shard per benchmark through parallel_map;
    # each worker proves its pairs end-to-end and the records come back
    # in benchmark order, identical at any worker count.
    # Result lines print after the merge, so announce the workload first.
    print(
        f"proving {len(names)} benchmarks across {args.workers} worker(s): "
        f"{', '.join(names)} ...",
        flush=True,
    )
    sweep = parallel_map(
        functools.partial(cec_prove_row, rounds=args.rounds),
        names,
        workers=args.workers,
        labels=names,
    )
    for record in sweep.results:
        report["benchmarks"].append(record)
        print(
            f"{record['benchmark']:10s} PROVED sat-sweep  size {record['size_pre']}->"
            f"{record['size_post']}  depth {record['depth_pre']}->"
            f"{record['depth_post']}  (opt {record['optimize_s']}s, "
            f"cec {record['cec_s']}s)",
            flush=True,
        )

    report["mutants"] = refute_mutants(MUTATION_BENCHMARK, args.mutants)
    m = report["mutants"]
    print(
        f"{MUTATION_BENCHMARK:10s} REFUTED {m['refuted']} mutants "
        f"({m['masked_mutations']} masked, methods {m['methods']}, "
        f"{m['runtime_s']}s)",
        flush=True,
    )

    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2)
        print(f"report written to {args.json}")
    print("acceptance: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
