"""The Table I row task and network fingerprints of the benchmark harness.

:func:`optimization_row` is one Table I row as plain data
(:meth:`repro.flows.table1.Table1Row.as_dict`), a pure function of one
benchmark name: it rebuilds the benchmark, touches no shared mutable
state and carries structural fingerprints of the optimized networks.
Being module-level, it ships to :func:`repro.parallel.parallel_map`
workers; the sharded sweep is
``parallel_map(functools.partial(optimization_row, **kw), names,
labels=names)``, bit-identical to a serial run at any worker count (the
contract of :mod:`repro.parallel`, asserted end-to-end by
``benchmarks/bench_parallel.py`` over sizes, depths, node-level
structural fingerprints and CEC verdicts).

:func:`structural_fingerprint` (exact node ids) and
:func:`canonical_fingerprint` (node-id-independent, the key of the
``optimize_many`` result cache) hash whole networks;
:func:`structural_row` strips the measured runtimes off a row.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List

__all__ = [
    "structural_fingerprint",
    "canonical_fingerprint",
    "structural_row",
    "optimization_row",
]


def structural_fingerprint(net) -> str:
    """SHA-256 over the exact live structure of a logic network.

    Covers node ids, fanin tuples (complement bits included), PI/PO
    names and PO signals — two networks fingerprint equal iff a serial
    and a sharded run produced literally the same graph.
    """
    payload = repr(
        (
            net.__class__.__name__,
            tuple(net.pi_nodes()),
            tuple(net._pi_names),
            tuple(net.po_signals()),
            tuple(net._po_names),
            tuple((node, net._fanins[node]) for node in net.topological_order()),
        )
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def canonical_fingerprint(net) -> str:
    """SHA-256 over a *node-id-independent* canonical form of a network.

    The content address of the ``optimize_many`` result cache
    (:mod:`repro.flows.result_cache`): two networks hash equal iff they
    are the same DAG up to node renaming — same network kind, PI count and
    names, PO order and names, gate structure, sharing and complement
    bits — regardless of raw node ids or construction order, while
    :func:`structural_fingerprint` (the bit-identity contract of the
    parallel layer) keys on exact node ids.  Both kernels store fully
    symmetric gates (majority, AND) whose fanin tuples are *sorted by
    raw signal value* at normalization time, so the canonical form must
    also be fanin-order-insensitive; it is computed in two phases:

    1. a bottom-up structure hash per node (Merkle-style: constant,
       PI index, or the sorted multiset of (fanin hash, complement)
       pairs) — a pure function of each node's cone shape;
    2. a post-order traversal from the POs in order that visits every
       gate's fanins sorted by (structure hash, complement) and assigns
       canonical ids in completion order.  Gates are recorded as sorted
       multisets of (canonical fanin id, complement) literals, so
       *sharing is visible* — a shared cone and its duplicated
       expansion record differently (they optimize differently and must
       never collide).

    The key deliberately covers the network kind (class name) and the
    PI arity even when no gate references some PI: a MIG and an AIG, or
    the same cone under different input arities, must never collide.
    """
    fanins = net._fanins
    # Phase 1: id-independent structure hash per node (iterative DFS).
    struct: Dict[int, str] = {0: "C"}
    for index, node in enumerate(net.pi_nodes()):
        struct[node] = f"P{index}"
    po_roots = [po >> 1 for po in net.po_signals()]
    for root in po_roots:
        if root in struct:
            continue
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if node in struct:
                continue
            if expanded:
                parts = sorted((struct[f >> 1], f & 1) for f in fanins[node])
                struct[node] = hashlib.sha256(repr(parts).encode()).hexdigest()
            else:
                stack.append((node, True))
                for f in fanins[node]:
                    if (f >> 1) not in struct:
                        stack.append((f >> 1, False))
    # Phase 2: canonical ids by deterministic post-order (fanins visited
    # in sorted structure-hash order), gates as sorted literal multisets.
    canonical: Dict[int, int] = {0: 0}
    for index, node in enumerate(net.pi_nodes()):
        canonical[node] = index + 1
    next_id = len(canonical)
    gate_records: List[tuple] = []
    for root in po_roots:
        if root in canonical:
            continue
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if node in canonical:
                continue
            if expanded:
                canonical[node] = next_id
                next_id += 1
                gate_records.append(
                    tuple(sorted((canonical[f >> 1], f & 1) for f in fanins[node]))
                )
            else:
                stack.append((node, True))
                ordered = sorted(
                    fanins[node], key=lambda f: (struct[f >> 1], f & 1)
                )
                for f in reversed(ordered):
                    if (f >> 1) not in canonical:
                        stack.append((f >> 1, False))
    payload = repr(
        (
            net.__class__.__name__,
            net.num_pis,
            tuple(net._pi_names),
            tuple(net._po_names),
            tuple((canonical[po >> 1], po & 1) for po in net.po_signals()),
            tuple(gate_records),
        )
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def structural_row(row: dict) -> dict:
    """A Table I row minus its measured runtimes.

    Wall time is a measurement, not a *result*: the determinism
    assertions (serial vs sharded rows bit-identical) compare rows
    through this projection.  One definition, shared by the benchmark
    and the tests, so a future non-deterministic row field is stripped
    in exactly one place.
    """
    stripped = dict(row)
    for flow in ("mig", "aig", "bdd"):
        metrics = stripped.get(flow)
        if isinstance(metrics, dict):
            stripped[flow] = {
                k: v for k, v in metrics.items() if k != "runtime_s"
            }
    return stripped


def optimization_row(name: str, rounds: int = 1, verify: bool = False) -> dict:
    """One Table I row as plain data, with structural fingerprints.

    ``verify=True`` additionally proves the row's optimized MIG
    equivalent to a fresh build of the benchmark through the full CEC
    dispatch and records the verdict (an exception on inequivalence — an
    optimizer that breaks logic must fail the sweep, not log a row).
    """
    from ..flows.table1 import table1_row

    result = table1_row(name, rounds=rounds)
    row = result.as_dict()
    if verify:
        from ..bench_circuits import build_benchmark
        from ..core.mig import Mig
        from ..verify import check_equivalence

        check = check_equivalence(
            build_benchmark(name, Mig), result.mig_network, num_random_vectors=256
        )
        if not check.equivalent:
            raise AssertionError(
                f"{name}: optimized MIG NOT equivalent (method={check.method})"
            )
        if not check.certified:
            raise AssertionError(
                f"{name}: optimized MIG NOT certified (budget-exhausted "
                f"{check.method} is not a proof)"
            )
        row["cec"] = {"equivalent": True, "method": check.method}
    return row
