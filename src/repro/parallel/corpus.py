"""Shared corpus runner of the benchmark harness (sharded Table I sweeps).

Every per-benchmark workload of ``benchmarks/`` — the Table I
optimization and synthesis rows, the cut-rewriting acceptance sweep, the
SAT-CEC proof sweep — is a pure function of one benchmark name.  This
module holds those task functions (importable, hence shippable to worker
processes), a thin :func:`run_corpus` wrapper over
:func:`repro.parallel.parallel_map`, row (de)serialisation for the
``flows.report`` dataclasses, and the :class:`RowChannel` the pytest
harness uses to accumulate rows crash-/shard-safely.

Row channel
-----------
``pytest-xdist`` workers and independently sharded pytest invocations
(one benchmark per process in CI) cannot share module globals — the bug
the channel replaces.  A :class:`RowChannel` stores one JSON file per
row, written atomically (temp file + ``os.replace``), so any number of
concurrent writers land complete rows and a summary step in *any*
process reads back exactly the rows that ran.

Determinism
-----------
Task functions rebuild their benchmark from its name, touch no shared
mutable state and return plain data; results are therefore bit-identical
to a serial run at any worker count (the contract of
:mod:`repro.parallel`, asserted end-to-end by
``benchmarks/bench_parallel.py`` over sizes, depths, node-level
structural fingerprints and CEC verdicts).
"""

from __future__ import annotations

import functools
import hashlib
import re
import time
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..cache import atomic_write_json, load_json
from .executor import ParallelReport, parallel_map

__all__ = [
    "run_corpus",
    "structural_fingerprint",
    "canonical_fingerprint",
    "structural_row",
    "optimization_row",
    "synthesis_row",
    "rewrite_acceptance_row",
    "cec_prove_row",
    "optimization_from_row",
    "synthesis_from_row",
    "RowChannel",
]


def run_corpus(
    task,
    names: Sequence[str],
    workers: Optional[int] = None,
    costs: Optional[Sequence[float]] = None,
    **task_kwargs,
) -> ParallelReport:
    """Run ``task(name, **task_kwargs)`` per benchmark, sharded over a pool.

    ``task`` must be a module-level function (the ones in this module
    qualify); results come back in ``names`` order.
    """
    names = list(names)
    fn = functools.partial(task, **task_kwargs) if task_kwargs else task
    return parallel_map(fn, names, workers=workers, costs=costs, labels=names)


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


# --------------------------------------------------------------------- #
# Table I task functions (one benchmark name -> one plain-data row)
# --------------------------------------------------------------------- #
def optimization_row(
    name: str,
    rounds: int = 1,
    depth_effort: int = 1,
    include_bdd: bool = True,
    verify: bool = False,
) -> dict:
    """One Table I (top) row plus structural fingerprints.

    ``verify=True`` additionally proves the optimized MIG equivalent to
    a fresh build of the benchmark through the full CEC dispatch and
    records the verdict (an exception on inequivalence — an optimizer
    that breaks logic must fail the sweep, not log a row).
    """
    from ..flows.optimize import compare_optimization

    result = compare_optimization(
        name,
        rounds=rounds,
        depth_effort=depth_effort,
        include_bdd=include_bdd,
        keep_networks=True,
    )
    row = _optimization_to_row(result)
    row["mig_fingerprint"] = structural_fingerprint(result.mig_network)
    row["aig_fingerprint"] = structural_fingerprint(result.aig_network)
    row["bdd_fingerprint"] = (
        structural_fingerprint(result.bdd_network)
        if result.bdd_network is not None
        else None
    )
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


def synthesis_row(name: str, rounds: int = 1, depth_effort: int = 1) -> dict:
    """One Table I (bottom) row as plain data."""
    from ..flows.synthesis import compare_synthesis

    result = compare_synthesis(name, rounds=rounds, depth_effort=depth_effort)
    return _synthesis_to_row(result)


def rewrite_acceptance_row(name: str) -> dict:
    """The per-benchmark body of the cut-rewriting acceptance sweep.

    Raises on any violated obligation (equivalence, no-regression); the
    returned row feeds the cross-benchmark "strictly better on >= 3"
    assertion of ``benchmarks/acceptance_cut_rewrite.py``.
    """
    from ..aig.aig import Aig
    from ..aig.rewrite import rewrite
    from ..bench_circuits import build_benchmark
    from ..core import Mig, rewrite_mig
    from ..flows.mighty import mighty_optimize
    from ..mapping import map_aig, map_mig
    from ..verify import check_equivalence

    def _check(first, second, label):
        result = check_equivalence(first, second, num_random_vectors=512)
        if not result.equivalent:
            raise AssertionError(f"{label}: NOT equivalent ({result.method})")
        if not result.certified:
            raise AssertionError(
                f"{label}: NOT certified (budget-exhausted {result.method})"
            )

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
    mighty_optimize(combined, rounds=1, depth_effort=1, boolean_rewrite=True)
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


def cec_prove_row(name: str, rounds: int = 1, depth_effort: int = 1) -> dict:
    """Prove one pre/post ``mighty_optimize`` pair end-to-end (SAT sweep).

    The per-benchmark proof obligation of
    ``benchmarks/acceptance_sat_cec.py``: the pair must come back
    ``method="sat-sweep"``, equivalent, with no counterexample.
    """
    from ..bench_circuits import build_benchmark
    from ..core import Mig
    from ..flows.mighty import mighty_optimize
    from ..verify import check_equivalence

    pre = build_benchmark(name, Mig)
    post = build_benchmark(name, Mig)
    t_opt = time.time()
    mighty_optimize(post, rounds=rounds, depth_effort=depth_effort)
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
    }


# --------------------------------------------------------------------- #
# Row (de)serialisation for the flows.report dataclasses
# --------------------------------------------------------------------- #
def _metrics_to_dict(metrics) -> Optional[dict]:
    return None if metrics is None else asdict(metrics)


def _optimization_to_row(result) -> dict:
    return {
        "name": result.name,
        "mig": _metrics_to_dict(result.mig),
        "aig": _metrics_to_dict(result.aig),
        "bdd": _metrics_to_dict(result.bdd),
    }


def optimization_from_row(row: dict):
    """Rebuild an :class:`~repro.flows.optimize.OptimizationComparison`.

    Pass traces and networks are not round-tripped — the summary tables
    only consume the metrics.
    """
    from ..analysis.metrics import NetworkMetrics
    from ..flows.optimize import OptimizationComparison

    def metrics(payload):
        return None if payload is None else NetworkMetrics(**payload)

    return OptimizationComparison(
        name=row["name"],
        mig=metrics(row["mig"]),
        aig=metrics(row["aig"]),
        bdd=metrics(row["bdd"]),
    )


def _synthesis_to_row(result) -> dict:
    def metrics(m) -> dict:
        payload = asdict(m)
        payload.pop("opt_passes", None)  # PassMetrics trace: not row data
        return payload

    return {
        "name": result.name,
        "mig": metrics(result.mig),
        "aig": metrics(result.aig),
        "cst": metrics(result.cst),
    }


def synthesis_from_row(row: dict):
    """Rebuild a :class:`~repro.flows.synthesis.SynthesisComparison`."""
    from ..flows.synthesis import SynthesisComparison, SynthesisMetrics

    def metrics(payload):
        return SynthesisMetrics(**payload)

    return SynthesisComparison(
        name=row["name"],
        mig=metrics(row["mig"]),
        aig=metrics(row["aig"]),
        cst=metrics(row["cst"]),
    )


# --------------------------------------------------------------------- #
# Crash-/shard-safe row accumulation
# --------------------------------------------------------------------- #
_SAFE_NAME = re.compile(r"[^-._A-Za-z0-9]")


class RowChannel:
    """One-JSON-file-per-row result store under a shared directory.

    Writers from any process (xdist workers, separately sharded pytest
    invocations pointed at one ``REPRO_BENCH_ROWS_DIR``) write rows
    atomically; a reader sees every complete row and never a torn one.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)

    def _suite_dir(self, suite: str) -> Path:
        return self.root / _SAFE_NAME.sub("_", suite)

    def _row_path(self, suite: str, name: str) -> Path:
        return self._suite_dir(suite) / f"{_SAFE_NAME.sub('_', name)}.json"

    def write(self, suite: str, name: str, payload: dict) -> Path:
        """Atomically persist one row; returns its path."""
        path = self._row_path(suite, name)
        if not atomic_write_json(path, payload):
            raise OSError(f"cannot persist row {suite}/{name} at {path}")
        return path

    def read_all(self, suite: str) -> Dict[str, dict]:
        """Every complete row of ``suite``, keyed by row name."""
        directory = self._suite_dir(suite)
        rows: Dict[str, dict] = {}
        if not directory.is_dir():
            return rows
        for path in sorted(directory.glob("*.json")):
            payload = load_json(path)
            if isinstance(payload, dict):
                rows[path.stem] = payload
            # torn/foreign files: skip, never crash the summary
        return rows

    def ordered(self, suite: str, order: Sequence[str]) -> List[dict]:
        """Rows of ``suite`` in canonical benchmark order.

        Rows named in ``order`` come first, in that order; rows the
        caller did not anticipate (custom benchmark subsets) follow,
        sorted by name.  Missing rows are skipped.
        """
        rows = self.read_all(suite)
        ordered: List[dict] = []
        seen = set()
        for name in order:
            key = _SAFE_NAME.sub("_", name)
            if key in rows:
                ordered.append(rows[key])
                seen.add(key)
        for key in sorted(rows):
            if key not in seen:
                ordered.append(rows[key])
        return ordered
