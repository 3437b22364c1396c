#!/usr/bin/env python3
"""Exact-synthesis acceptance lane: oracle cross-check + DB enrichment.

Two lanes over :mod:`repro.synth.exact` and the top-k structure database:

1. **Oracle lane** — every ≤3-variable NPN class is synthesized exactly
   and the claimed minimum is cross-checked against
   :func:`repro.synth.enumerate_minimum_sizes`, a breadth-first
   reachability oracle that shares no code with the CNF encoding.  The
   MIG frontier is complete at 4 gates; the AIG frontier needs 6 (the
   xor-heavy classes), which the full lane enumerates and the smoke lane
   skips per class (reported, not asserted).
2. **Enrichment lane** — the fast (decomposition) tier derives each
   shard class's Pareto front, then the budget-bounded exact tier
   searches strictly below its bounds.  Per class the lane records fast
   vs enriched front shapes, solver conflicts and wall time, and asserts
   the contract that makes enrichment safe to ship: **no class ever
   regresses above its old single-entry size** (the enriched head is
   never larger than the fast-tier head — UNSAT proves the fast tier
   optimal, UNKNOWN keeps it).  Enriched fronts are registered through
   :func:`repro.network.npn.register_structures` (full semantic
   validation, in memory only); ``benchmarks/regen_structure_db.py
   --exact`` is what ships an enriched database.

Results land in ``BENCH_exact.json`` (override with ``--json`` /
``REPRO_BENCH_EXACT_JSON``)::

    PYTHONPATH=src python benchmarks/bench_exact.py [--smoke] [--budget N]
"""

import argparse
import json
import os
import sys
import time

from repro.network import npn
from repro.network.npn import npn_representatives, register_structures
from repro.synth import SAT, UNSAT, enumerate_minimum_sizes, synthesize_exact
from repro.synth.exact import _compact_table, _support

#: Exact-tier conflict budget per search: the smoke lane stays tight (CI
#: runners; UNKNOWN is an acceptable outcome), the full lane matches the
#: offline enrichment default.
SMOKE_BUDGET = 500
FULL_BUDGET = 2_000

#: 4-variable classes of the smoke enrichment shard (beyond the 14
#: ≤3-variable classes, which are always included).
SMOKE_4VAR_CLASSES = 10


def _oracle_lane(kind, max_gates, budget):
    """Exact synthesis vs brute force over the ≤3-variable classes."""
    oracle = {n: enumerate_minimum_sizes(kind, n, max_gates) for n in (1, 2, 3)}
    rows = []
    skipped = 0
    for rep in npn_representatives():
        support = _support(rep)
        if len(support) > 3:
            continue
        if support:
            compact = _compact_table(rep, support)
            width = 1 << len(support)
            canon = min(compact, compact ^ ((1 << width) - 1))
            minimum = oracle[len(support)].get(canon)
        else:
            minimum = 0
        if minimum is None:
            # Oracle horizon too shallow for this class (AIG xor-ish
            # classes under --smoke): report, don't assert.
            skipped += 1
            rows.append({"class": f"{rep:#06x}", "oracle": None})
            continue
        t0 = time.perf_counter()
        result = synthesize_exact(rep, kind, budget=budget)
        wall = time.perf_counter() - t0
        assert result.status == SAT and result.optimal, (
            f"{kind} {rep:#06x}: exact synthesis did not prove optimality "
            f"(status={result.status}, budget={budget})"
        )
        assert result.gates == minimum, (
            f"{kind} {rep:#06x}: exact found {result.gates} gates, "
            f"oracle says {minimum}"
        )
        rows.append(
            {
                "class": f"{rep:#06x}",
                "support": len(support),
                "oracle": minimum,
                "gates": result.gates,
                "depth": result.entry.depth,
                "conflicts": result.conflicts,
                "solve_calls": result.solve_calls,
                "wall_s": round(wall, 4),
            }
        )
    checked = [r for r in rows if r["oracle"] is not None]
    return {
        "kind": kind,
        "oracle_max_gates": max_gates,
        "classes_checked": len(checked),
        "classes_beyond_horizon": skipped,
        "total_wall_s": round(sum(r["wall_s"] for r in checked), 3),
        "per_class": rows,
    }


def _enrichment_lane(kind, tables, budget, size_slack):
    """Fast-tier fronts vs exact-enriched fronts over one class shard."""
    rows = []
    improved_size = improved_depth = proven_optimal = 0
    for rep in tables:
        fast = npn._derive_structures(kind, rep)
        t0 = time.perf_counter()
        enriched = npn._exact_enrich(kind, rep, fast, budget, size_slack)
        wall = time.perf_counter() - t0
        # The shipping contract: enrichment never regresses a class above
        # its old single-entry (fast-tier head) size.
        assert enriched[0].size <= fast[0].size, (
            f"{kind} {rep:#06x}: enriched head {enriched[0].size} gates "
            f"exceeds fast-tier head {fast[0].size}"
        )
        assert enriched[-1].depth <= fast[-1].depth, (
            f"{kind} {rep:#06x}: enrichment lost the shallowest entry"
        )
        if enriched != fast:
            register_structures(kind, rep, list(enriched))
        size_gain = fast[0].size - enriched[0].size
        depth_gain = fast[-1].depth - enriched[-1].depth
        improved_size += 1 if size_gain else 0
        improved_depth += 1 if depth_gain else 0
        if fast[0].size > 1 and size_gain == 0:
            # A size search that came back UNSAT proved the fast head
            # minimal; re-run cheaply to classify (the solver is
            # deterministic, so this mirrors the enrichment's outcome).
            probe = synthesize_exact(
                rep, kind, max_gates=fast[0].size - 1, budget=budget
            )
            if probe.status == UNSAT:
                proven_optimal += 1
        rows.append(
            {
                "class": f"{rep:#06x}",
                "fast": [(e.size, e.depth) for e in fast],
                "enriched": [(e.size, e.depth) for e in enriched],
                "size_gain": size_gain,
                "depth_gain": depth_gain,
                "wall_s": round(wall, 4),
            }
        )
    return {
        "kind": kind,
        "classes": len(rows),
        "budget": budget,
        "size_slack": size_slack,
        "improved_size": improved_size,
        "improved_depth": improved_depth,
        "proven_optimal_heads": proven_optimal,
        "total_wall_s": round(sum(r["wall_s"] for r in rows), 3),
        "per_class": rows,
    }


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced CI workload (4-gate AIG oracle horizon, small shard)",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=None,
        help="exact-tier conflict budget (default: 500 smoke, 2000 full)",
    )
    parser.add_argument(
        "--json",
        default=os.environ.get("REPRO_BENCH_EXACT_JSON", "BENCH_exact.json"),
        help="output report path",
    )
    args = parser.parse_args(argv)
    budget = args.budget or (SMOKE_BUDGET if args.smoke else FULL_BUDGET)

    t0 = time.perf_counter()
    report = {
        "mode": "smoke" if args.smoke else "full",
        "budget": budget,
        "oracle": [],
        "enrichment": [],
    }

    # Lane 1: oracle cross-check (AIG horizon 6 only in the full lane —
    # the 6-gate frontier enumeration alone takes ~12 s).
    report["oracle"].append(_oracle_lane("mig", 4, budget))
    report["oracle"].append(_oracle_lane("aig", 4 if args.smoke else 6, budget))
    for lane in report["oracle"]:
        print(
            f"[oracle] {lane['kind']}: {lane['classes_checked']} classes "
            f"match brute force ({lane['classes_beyond_horizon']} beyond "
            f"horizon) in {lane['total_wall_s']}s"
        )

    # Lane 2: enrichment shard.  Smoke: the 14 small-support classes plus
    # the first few 4-variable classes; full: every class.
    reps = npn_representatives()
    if args.smoke:
        small = [t for t in reps if len(_support(t)) <= 3]
        wide = [t for t in reps if len(_support(t)) == 4][:SMOKE_4VAR_CLASSES]
        shard = small + wide
    else:
        shard = list(reps)
    for kind in ("mig", "aig"):
        lane = _enrichment_lane(kind, shard, budget, size_slack=2)
        report["enrichment"].append(lane)
        print(
            f"[enrich] {kind}: {lane['classes']} classes, "
            f"{lane['improved_size']} size-improved, "
            f"{lane['improved_depth']} depth-improved, "
            f"{lane['proven_optimal_heads']} heads proven optimal, "
            f"{lane['total_wall_s']}s"
        )

    report["wall_s"] = round(time.perf_counter() - t0, 3)

    with open(args.json, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
    print(f"[done] report -> {args.json} ({report['wall_s']}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
