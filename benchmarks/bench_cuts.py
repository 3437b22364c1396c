#!/usr/bin/env python3
"""Perf-regression lane for the incremental cut engine.

Three measured lanes, each comparing the incremental
:class:`~repro.network.cuts.CutManager` path against from-scratch
enumeration on the *same* workload with *bit-identical results asserted*:

1. **Repeated-sweep rewriting** (the budget lane): a fixed R-round
   rewrite schedule — the shape of ABC's 10-pass ``resyn2`` script, where
   rewriting re-runs on a converged network at fixed positions — over
   10k+-node random MIG/AIG networks.  The incremental engine re-enumerates
   only touched cones and skips provably converged sweeps, so wall time
   must drop ≥3x (``--smoke`` asserts a noise-tolerant ≥2x floor on the
   reduced workload CI runs).
2. **Incremental re-enumeration**: bursts of sparse random edits (~1% of
   nodes) followed by a sweep, manager vs ``enumerate_cuts``, with the cut
   sets compared cut-for-cut every burst.
3. **Table I realism**: per-benchmark enumeration plus rewrite-round
   timings on the paper's circuits (reported, not asserted — the circuits
   are small enough that Python overhead dominates).

A memory lane rides along with lane 1: the bytes per node (gates and
primary inputs) that a full build of the manager's cut store allocates
on each repeated-sweep network, measured with ``tracemalloc``; every
record must stay under ``STORE_BYTES_PER_NODE_MAX``.

The NPN cold start — canonical map and structure database, each derived
from scratch vs loaded from its committed file — is timed alongside, and
the canonical-map load must be >=10x faster than its derivation.  Results land in ``BENCH_cuts.json`` (override with
``--json`` / ``REPRO_BENCH_CUTS_JSON``) for the CI artifact upload, with
the host (CPU count, Python version) and a fingerprint of every lane's
result — the rewritten networks' structural fingerprints and a hash of
the compared cut lists — so a timing change can be told apart from a
result change::

    PYTHONPATH=src python benchmarks/bench_cuts.py [--smoke]
"""

import argparse
import hashlib
import json
import os
import platform
import random
import sys
import time
import tracemalloc

from repro.aig.aig import Aig
from repro.aig.rewrite import rewrite_aig_inplace
from repro.bench_circuits import build_benchmark
from repro.core import Mig, rewrite_mig
from repro.core.generation import mutate_network, random_network
from repro.network.cuts import CutManager, enumerate_cuts, iter_cuts
from repro.parallel.corpus import structural_fingerprint

#: Fixed sweep count of the repeated-sweep lane: the length of the
#: resyn2-style script, whose rewrite slots run regardless of convergence.
ROUNDS = 10

TABLE1_BENCHMARKS = ["C1355", "C6288", "dalu", "alu4"]

#: Ceiling of the memory lane: bytes per node of a full cut-store build
#: on the repeated-sweep networks (about 245 B on the MIGs and 320 B on
#: the AIG with packed per-node arrays; a list of per-cut objects takes
#: 1,100-1,600 B).
STORE_BYTES_PER_NODE_MAX = 400


def _dump(net):
    return (
        tuple(net.po_signals()),
        tuple((n, net._fanins[n]) for n in net.topological_order()),
    )


def _cuts_as_pairs(cuts, nodes):
    """Every node's full cut list as ``(leaves, table)`` pairs, with the
    implicit trivial cut ``{n}`` last."""
    return {n: [*iter_cuts(cuts[n]), ((n,), 0b10)] for n in nodes}


def _store_bytes_per_node(net, k, cut_limit):
    """Bytes per node that a full build of ``net``'s cut store allocates.

    A from-scratch enumeration first fills the table-expansion LRU and the
    topological order, so the traced bytes are the store's alone."""
    enumerate_cuts(net, k=k, cut_limit=cut_limit)
    tracemalloc.start()
    try:
        # The network's listener list keeps the manager and its store alive.
        CutManager(net, k=k, cut_limit=cut_limit).cuts()
        allocated = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return round(allocated / (len(net._topology()) + net.num_pis), 1)


def _warmup():
    """Charge the NPN canonical map, structure DB and LRU caches so the
    measured lanes compare enumeration strategies, not cache cold starts."""
    for cls, sweep in ((Mig, rewrite_mig), (Aig, rewrite_aig_inplace)):
        net = random_network(cls, num_pis=10, num_gates=1500, num_pos=20, seed=99,
                             gate_mix="mixed")
        sweep(net)
        sweep(net)


def bench_repeated_sweep(cls, sweep, num_gates, seed, rounds=ROUNDS):
    """One repeated-sweep comparison; returns the JSON record."""
    make = lambda: random_network(  # noqa: E731 - tiny local factory
        cls, num_pis=14, num_gates=num_gates, num_pos=100, seed=seed,
        gate_mix="mixed",
    )
    incremental = make()
    scratch = make()
    size0 = incremental.num_gates

    t0 = time.perf_counter()
    stats = [sweep(incremental) for _ in range(rounds)]
    t_incremental = time.perf_counter() - t0

    t0 = time.perf_counter()
    for _ in range(rounds):
        sweep(scratch, incremental=False)
    t_scratch = time.perf_counter() - t0

    assert _dump(incremental) == _dump(scratch), (
        f"incremental result diverged from scratch ({cls.__name__}, seed {seed})"
    )
    # The memory lane builds the store the sweep kept, in its configuration.
    ((k, cut_limit),) = incremental.__dict__["_cut_managers"]
    store_bytes = _store_bytes_per_node(make(), k, cut_limit)
    return {
        "network": cls.__name__,
        "seed": seed,
        "gates_initial": size0,
        "gates_final": incremental.num_gates,
        "rounds": rounds,
        "rewrites_per_round": [s["rewrites"] for s in stats],
        "converged_skips": sum(s["converged_skip"] for s in stats),
        "time_incremental_s": round(t_incremental, 3),
        "time_scratch_s": round(t_scratch, 3),
        "speedup": round(t_scratch / t_incremental, 2),
        "store_bytes_per_node": store_bytes,
        "fingerprint": structural_fingerprint(incremental),
    }


def bench_incremental_enumeration(num_gates, seed, bursts=6, edits_per_burst=40):
    """Sparse-edit re-enumeration comparison; returns the JSON record."""
    net = random_network(Mig, num_pis=14, num_gates=num_gates, num_pos=100,
                         seed=seed, gate_mix="mixed")
    manager = CutManager.for_network(net, k=4, cut_limit=8)
    manager.cuts()  # initial full build (not part of the comparison)

    rng = random.Random(seed)
    t_incremental = 0.0
    t_scratch = 0.0
    recomputed = 0
    digest = hashlib.sha256()
    for burst in range(bursts):
        for edit in range(edits_per_burst):
            mutate_network(net, seed=rng.randrange(1 << 30), in_place=True)
        before = manager.stats["nodes_recomputed"]
        t0 = time.perf_counter()
        incremental_cuts = manager.cuts()
        t_incremental += time.perf_counter() - t0
        recomputed += manager.stats["nodes_recomputed"] - before

        t0 = time.perf_counter()
        scratch_cuts = enumerate_cuts(net, k=4, cut_limit=8)
        t_scratch += time.perf_counter() - t0

        nodes = set(net._topology()) | set(net.pi_nodes())
        pairs = _cuts_as_pairs(incremental_cuts, nodes)
        assert pairs == _cuts_as_pairs(scratch_cuts, nodes), (
            f"cut mismatch after burst {burst}"
        )
        digest.update(repr(sorted(pairs.items())).encode())
    return {
        "gates": net.num_gates,
        "bursts": bursts,
        "edits_per_burst": edits_per_burst,
        "nodes_recomputed_total": recomputed,
        "time_incremental_s": round(t_incremental, 3),
        "time_scratch_s": round(t_scratch, 3),
        "speedup": round(t_scratch / t_incremental, 2),
        "fingerprint": digest.hexdigest(),
    }


def bench_table1(name):
    """Enumeration + rewrite-round timing on one Table I circuit."""
    mig = build_benchmark(name, Mig)
    t0 = time.perf_counter()
    enumerate_cuts(mig, k=4, cut_limit=6)
    t_enum = time.perf_counter() - t0

    incremental = build_benchmark(name, Mig)
    scratch = build_benchmark(name, Mig)
    t0 = time.perf_counter()
    for _ in range(ROUNDS):
        rewrite_mig(incremental)
    t_incremental = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(ROUNDS):
        rewrite_mig(scratch, incremental=False)
    t_scratch = time.perf_counter() - t0
    assert _dump(incremental) == _dump(scratch), name
    return {
        "benchmark": name,
        "gates": mig.num_gates,
        "enumeration_s": round(t_enum, 3),
        "rewrite_rounds_incremental_s": round(t_incremental, 3),
        "rewrite_rounds_scratch_s": round(t_scratch, 3),
        "speedup": round(t_scratch / t_incremental, 2),
        "fingerprint": structural_fingerprint(incremental),
    }


def bench_npn_cold_start():
    """NPN cold start: fresh derivation vs committed-file load, for the
    canonical map and for the structure database."""
    from repro.network.npn import (
        _derive_canonical_map,
        _derive_structures,
        load_canonical_map,
        load_structure_db,
        npn_representatives,
    )

    t0 = time.perf_counter()
    _derive_canonical_map()
    t_map_derive = time.perf_counter() - t0
    t0 = time.perf_counter()
    load_canonical_map()
    t_map_load = time.perf_counter() - t0
    reps = npn_representatives()
    t0 = time.perf_counter()
    for kind in ("mig", "aig"):
        for rep in reps:
            _derive_structures(kind, rep)
    t_derive = time.perf_counter() - t0
    t0 = time.perf_counter()
    load_structure_db()
    t_load = time.perf_counter() - t0
    return {
        "classes": len(reps),
        "derive_s": round(t_derive, 3),
        "load_s": round(t_load, 4),
        "speedup": round(t_derive / max(t_load, 1e-9), 1),
        "map_derive_s": round(t_map_derive, 3),
        "map_load_s": round(t_map_load, 4),
        "map_speedup": round(t_map_derive / max(t_map_load, 1e-9), 1),
    }


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced CI workload with a >=2x budget assertion",
    )
    parser.add_argument(
        "--json",
        default=os.environ.get("REPRO_BENCH_CUTS_JSON", "BENCH_cuts.json"),
        help="write the JSON report to this path",
    )
    args = parser.parse_args(argv)

    report = {
        "mode": "smoke" if args.smoke else "full",
        "host": {"nproc": os.cpu_count(), "python": platform.python_version()},
        "rounds": ROUNDS,
    }

    # --- NPN cold start ------------------------------------------------ #
    # Runs first, in a young process, as a cold start does.  Once the
    # lanes below have grown the heap to ~200k objects, the map's 65,536
    # new tuples trigger a full garbage-collection pass over that heap
    # (~0.1 s), which would be charged to whichever step allocates them.
    record = bench_npn_cold_start()
    report["npn_cold_start"] = record
    print(
        f"npn canonical map cold start: derive {record['map_derive_s']}s vs "
        f"committed-file load {record['map_load_s']}s ({record['map_speedup']}x)\n"
        f"npn db cold start: derive {record['derive_s']}s vs committed-file load "
        f"{record['load_s']}s ({record['speedup']}x)",
        flush=True,
    )

    _warmup()

    # --- lane 1: repeated-sweep rewriting (the budget lane) ----------- #
    # The AIG sweep runs gain-only: the zero-gain canonicalization policy
    # (ABC's rwz) intentionally keeps restructuring converged networks, so
    # repeated rwz rounds never reach a fixpoint — that is a policy
    # property, not an enumeration cost, and it would measure nothing
    # about the cut engine.
    aig_sweep = lambda net, incremental=True: rewrite_aig_inplace(  # noqa: E731
        net, allow_zero_gain=False, incremental=incremental
    )
    sweeps = [(Mig, rewrite_mig, 10000, 1)]
    if not args.smoke:
        sweeps += [(Mig, rewrite_mig, 10000, 3), (Aig, aig_sweep, 18000, 1)]
    report["repeated_sweep"] = []
    for cls, sweep, gates, seed in sweeps:
        record = bench_repeated_sweep(cls, sweep, gates, seed)
        report["repeated_sweep"].append(record)
        print(
            f"repeated-sweep {record['network']:3s} seed {seed}: "
            f"{record['gates_initial']} gates, {ROUNDS} rounds: "
            f"scratch {record['time_scratch_s']}s -> incremental "
            f"{record['time_incremental_s']}s ({record['speedup']}x, "
            f"{record['converged_skips']} sweeps skipped); cut store "
            f"{record['store_bytes_per_node']} B/node",
            flush=True,
        )

    # --- lane 2: sparse-edit re-enumeration --------------------------- #
    record = bench_incremental_enumeration(8000 if args.smoke else 10000, seed=5)
    report["incremental_enumeration"] = record
    print(
        f"re-enumeration after sparse edits: scratch {record['time_scratch_s']}s "
        f"-> incremental {record['time_incremental_s']}s ({record['speedup']}x)",
        flush=True,
    )

    # --- lane 3: Table I realism -------------------------------------- #
    names = TABLE1_BENCHMARKS[:2] if args.smoke else TABLE1_BENCHMARKS
    report["table1"] = []
    for name in names:
        record = bench_table1(name)
        report["table1"].append(record)
        print(
            f"table1 {name:8s} {record['gates']:5d} gates: enum "
            f"{record['enumeration_s']}s, {ROUNDS} rewrite rounds scratch "
            f"{record['rewrite_rounds_scratch_s']}s -> incremental "
            f"{record['rewrite_rounds_incremental_s']}s ({record['speedup']}x)",
            flush=True,
        )

    # One fingerprint over every lane's result fingerprint, in lane order.
    digest = hashlib.sha256()
    for record in (
        *report["repeated_sweep"], report["incremental_enumeration"], *report["table1"]
    ):
        digest.update(record["fingerprint"].encode())
    report["fingerprint"] = digest.hexdigest()
    print(f"result fingerprint {report['fingerprint']}")

    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2)
        print(f"report written to {args.json}")

    # --- budget assertions --------------------------------------------- #
    # Every lane record must clear a 2x hard floor (a regression to the
    # non-incremental ~1x immediately trips it), and the headline record
    # must demonstrate the >=3x target; the floor is deliberately below
    # the typical 3.3-4.5x measurements because the thinnest lane (an AIG
    # workload with several active rounds) sits near 3x and CI timing
    # noise must not flake the harness.
    lane = report["repeated_sweep"]
    worst = min(record["speedup"] for record in lane)
    headline = max(record["speedup"] for record in lane)
    assert worst >= 2.0, (
        f"repeated-sweep speedup regressed: {worst}x < 2x hard floor"
    )
    if not args.smoke:
        assert headline >= 3.0, (
            f"repeated-sweep headline speedup regressed: {headline}x < 3x target"
        )
    assert report["incremental_enumeration"]["speedup"] >= 3.0, (
        f"re-enumeration speedup regressed: "
        f"{report['incremental_enumeration']['speedup']}x < 3x target"
    )
    map_speedup = report["npn_cold_start"]["map_speedup"]
    assert map_speedup >= 10.0, (
        f"canonical-map load regressed: {map_speedup}x < 10x over deriving it"
    )
    store_bytes = max(record["store_bytes_per_node"] for record in lane)
    assert store_bytes <= STORE_BYTES_PER_NODE_MAX, (
        f"cut store grew: {store_bytes} B/node > {STORE_BYTES_PER_NODE_MAX} B/node ceiling"
    )
    print(
        f"budget ok: repeated-sweep speedups {worst}x..{headline}x "
        f"(floor 2x, headline target 3x); canonical-map load {map_speedup}x (floor 10x); "
        f"cut store {store_bytes} B/node (ceiling {STORE_BYTES_PER_NODE_MAX})"
    )


if __name__ == "__main__":
    main(sys.argv[1:])
