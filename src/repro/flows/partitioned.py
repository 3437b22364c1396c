"""Partition-parallel rewriting of one large network (windowed flows).

The process-parallel layer of PR 5 shards *across* circuits; this module
parallelizes *inside* one circuit: the network is decomposed into
bounded windows (:mod:`repro.parallel.partition`), each window is
extracted as a standalone sub-network and optimized in a worker process
(the MIGhty pipeline for MIGs, the ``resyn2`` script for AIGs), verified
against its pre-optimization self with the SAT-backed equivalence
dispatch — window miters stay small even when the network is not — and
stitched back through the kernel's substitution machinery
(:mod:`repro.parallel.window`).

Pipelined execution (the default, ``pipeline=True``) streams the three
phases instead of barriering between them:

* windows are extracted **lazily** by a bounded-lookahead producer
  (:func:`repro.parallel.executor.parallel_map_stream`) and submitted to
  the worker pool as they materialize — the first worker starts after
  the first extraction, and the parent never holds every extracted
  sub-network at once;
* results are committed through an **in-order stitch queue**
  (:class:`repro.parallel.executor.OrderedCommitQueue`): window *i* is
  stitched the moment *i* and all earlier windows have returned, while
  later windows are still optimizing in workers.

Why commits must wait for extraction to finish: stitching window *i*
substitutes its outputs, and substitution cascades rewire the fanout
cones — which are exactly the gates of *later* windows.  An extraction
that ran after such a commit would observe mutated structure (or dangling
window-gate ids) and diverge from the barrier path.  The producer
therefore holds the commit queue until the last window has been
extracted; from then on commits stream.  Extraction is cheap relative to
optimization, so in practice the first result is stitched long before
the last window returns.

Why streamed stitching cannot reorder substitutions: the stitched
structure is *not* order-independent — a cascade from window *i* decides
which nodes window *j* > *i*'s rebuild strash-hits, and the replacement
map entries window *j* resolves its pins through are written by window
*i*'s stitch.  The reorder buffer keyed on window index restores strict window
order at the commit boundary, which is what preserves the determinism
contract: stitched networks stay **bit-identical at any worker count**,
and bit-identical between the pipelined and the barrier
(``pipeline=False``) paths.

Boundary-shifted multi-sweep (``sweeps=N``): a window cannot rewrite
across its own frontier pins, so gains sitting on window boundaries are
invisible to one decomposition.  Sweep *k* re-partitions with the
deterministic boundary phase :func:`sweep_offset` (a golden-ratio
multiple of the window bound, so successive sweeps land on well-spread
distinct phases) — old frontier nodes become interior nodes of the next
sweep.  Sweeps run strictly one after the other (sweep *k*+1 partitions
the structure sweep *k* produced, which is itself bit-identical at any
worker count, so the whole multi-sweep is too), and the loop exits early
once a sweep improves nothing — a converged sweep performs no
substitution and leaves the network's mutation serial untouched.

:class:`PartitionedRewrite` is the flow-engine pass (per-window gains,
frontier pin counts, certification verdicts and the per-phase pipeline
metrics land in ``PassMetrics.details``);
:func:`repro.flows.batch.optimize_large` is the corresponding top-level
API.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from ..core.signal import make_signal
from ..parallel.executor import OrderedCommitQueue, parallel_map, parallel_map_stream
from ..parallel.partition import PartitionSpec, partition_network
from ..parallel.window import StitchStats, extract_window, release_pins, stitch_window
from .batch import resolve_flow, run_flow
from .engine import Pass

__all__ = [
    "PartitionedRewrite",
    "WindowVerificationError",
    "partitioned_rewrite",
    "sweep_offset",
]

#: Default per-window flow options for MIG windows: one light round —
#: windows are small, and the cross-window sweep is where the wall-clock
#: goes, so per-window effort trades off against whole-network latency.
_DEFAULT_MIG_WINDOW_KWARGS = {"rounds": 1, "depth_effort": 1}


class WindowVerificationError(AssertionError):
    """A window optimization broke (or could not certify) equivalence.

    Raised both on a proven mismatch and on an *uncertified* all-clear
    (the checker's budget ran out and only random simulation vouches for
    the window): a window is only ever stitched on a proof.
    """

    def __init__(self, window_label: str, result) -> None:
        self.window_label = window_label
        self.result = result
        if result.equivalent and not getattr(result, "certified", True):
            message = (
                f"window {window_label} could NOT be certified "
                f"(method={result.method} found no mismatch but is not a "
                f"proof; raise the certification budget via certify_options)"
            )
        else:
            message = (
                f"window {window_label} is NOT function-preserving "
                f"(method={result.method}, output index={result.failing_output}, "
                f"counterexample={result.counterexample})"
            )
        super().__init__(message)


def sweep_offset(sweep: int, max_window_gates: int) -> int:
    """Deterministic window-boundary phase of (0-based) sweep ``sweep``.

    Sweep 0 is unshifted; sweep *k* shifts the boundaries by *k* times a
    golden-ratio fraction of the window bound (mod the bound), which
    spreads successive sweeps over well-separated phases — consecutive
    sweeps never share a boundary set unless the bound is too small to
    express a shift (``max_window_gates <= 1``).
    """
    if sweep <= 0 or max_window_gates <= 1:
        return 0
    phase = max(1, (max_window_gates * 618) // 1000)
    return (sweep * phase) % max_window_gates


def _window_task(item):
    """Worker task: optimize (and certify) one extracted window.

    ``item`` is ``(sub, flow, flow_kwargs, certify, certify_options)``;
    ``sub`` is this process's private unpickled copy of the extracted
    sub-network and is kept as the certification reference.  Returns
    ``(optimized_or_None, info)`` — ``None`` when the optimizer did not
    strictly improve the ``(size, depth)`` order, so the stitch phase
    skips the window.  A failed *or uncertified* certification raises
    (fail-fast through the pool): an equivalence verdict that only means
    "random simulation found nothing" never counts as window
    certification.
    """
    sub, flow, flow_kwargs, certify, certify_options = item
    size_before, depth_before = sub.num_gates, sub.depth()
    # ``sub`` stays the certification reference: mighty optimizes in
    # place, so it runs on a copy; resyn2 leaves its input untouched.
    work = sub.copy() if flow == "mighty" else sub
    optimized, _, _ = run_flow(work, flow, flow_kwargs)
    info: Dict[str, object] = {
        "pins": sub.num_pis,
        "outputs": sub.num_pos,
        "size_before": size_before,
        "size_after": optimized.num_gates,
        "depth_before": depth_before,
        "depth_after": optimized.depth(),
    }
    if certify:
        from ..verify.equivalence import check_equivalence

        result = check_equivalence(sub, optimized, **(certify_options or {}))
        certified = getattr(result, "certified", True)
        info["certified"] = {
            "equivalent": result.equivalent,
            "method": result.method,
            "certified": certified,
        }
        if not result.equivalent or not certified:
            raise WindowVerificationError(sub.name, result)
    improved = (optimized.num_gates, optimized.depth()) < (size_before, depth_before)
    info["improved"] = improved
    return (optimized if improved else None, info)


def _empty_sweep_details(spec: PartitionSpec, wall_s: float) -> Dict[str, object]:
    return {
        "offset": spec.offset,
        "windows": 0,
        "frontier_pins": 0,
        "workers": 1,
        "parallel": False,
        "improved_windows": 0,
        "window_gain": 0,
        "stitch": {"substituted": 0, "unchanged": 0, "skipped_cycles": 0},
        "reclaimed": 0,
        "certified_windows": 0,
        "certified_methods": {},
        "optimize_wall_s": 0.0,
        "extract_wall_s": 0.0,
        "stitch_wall_s": 0.0,
        "parent_idle_s": 0.0,
        "commit_queue_peak": 0,
        "per_window": [],
        "wall_s": round(wall_s, 6),
    }


def _run_sweep(
    network,
    spec: PartitionSpec,
    sweep: int,
    workers: Optional[int],
    certify: bool,
    resolved: str,
    kwargs: Dict[str, object],
    certify_options: Optional[dict],
    pipeline: bool,
    lookahead: Optional[int],
) -> Dict[str, object]:
    """One extract → optimize → stitch sweep over the current structure."""
    sweep_start = time.perf_counter()
    network.cleanup()
    windows = partition_network(network, spec)
    if not windows:
        return _empty_sweep_details(spec, time.perf_counter() - sweep_start)

    timing = {"extract": 0.0, "stitch": 0.0}
    repl: Dict[int, int] = {}
    per_window: List[Optional[Dict[str, object]]] = [None] * len(windows)
    stitch_totals = {"substituted": 0, "unchanged": 0, "skipped_cycles": 0}

    # Pin every window output before any substitution: a cascade from an
    # early stitch may otherwise reclaim a later window's output while
    # that window's frontier pins still name it.  ``all_stats`` is the
    # pin ledger — every pin taken anywhere in this sweep is recorded on
    # an entry of it *before* the pinning mutation, so the ``finally``
    # below can always unwind to zero pins, whether the sweep succeeds,
    # a worker task raises, or a stitch dies halfway.
    upfront = StitchStats()
    all_stats: List[StitchStats] = [upfront]
    for window in windows:
        for output in window.outputs:
            network.pin_node(output)
            upfront.pinned.append(output)

    def _commit(index: int, result) -> None:
        commit_start = time.perf_counter()
        optimized, info = result
        window = windows[index]
        record: Dict[str, object] = {
            "sweep": sweep,
            "window": window.index,
            "gates": window.num_gates,
            "pins": len(window.inputs),
            "gain": info["size_before"] - info["size_after"],
            "improved": info["improved"],
        }
        if "certified" in info:
            record["certified"] = info["certified"]
        if optimized is None:
            # Unimproved window: outputs keep their identity (pinned
            # above, so they are still alive whatever earlier cascades
            # did around them).
            for output in window.outputs:
                repl[output] = make_signal(output)
            record["stitch"] = None
        else:
            stats = StitchStats()
            all_stats.append(stats)  # on the ledger before any pin lands
            stitch_window(network, window, optimized, repl, stats=stats)
            for key, value in stats.as_dict().items():
                stitch_totals[key] += value
            record["stitch"] = stats.as_dict()
        per_window[index] = record
        timing["stitch"] += time.perf_counter() - commit_start

    labels = [f"w{window.index}" for window in windows]
    try:
        if pipeline:
            queue = OrderedCommitQueue(_commit)
            queue.hold()

            def _produce():
                for window in windows:
                    extract_start = time.perf_counter()
                    sub = extract_window(network, window)
                    timing["extract"] += time.perf_counter() - extract_start
                    yield (sub, resolved, kwargs, certify, certify_options)
                # Every window is extracted (and submitted): in-order
                # commits may now mutate the parent — extraction had to
                # observe the pristine structure (see module docstring).
                queue.release()

            report = parallel_map_stream(
                _window_task,
                _produce(),
                workers=workers,
                lookahead=lookahead,
                labels=labels,
                on_result=lambda index, result, runtime_s, pid: queue.offer(
                    index, result
                ),
            )
            assert queue.committed == len(windows), (
                f"commit queue stalled: {queue.committed}/{len(windows)} "
                "windows committed"
            )
            commit_queue_peak = queue.peak
        else:
            extract_start = time.perf_counter()
            subs = [extract_window(network, window) for window in windows]
            timing["extract"] = time.perf_counter() - extract_start
            report = parallel_map(
                _window_task,
                [(sub, resolved, kwargs, certify, certify_options) for sub in subs],
                workers=workers,
                costs=[window.num_gates for window in windows],
                labels=labels,
            )
            for index, result in enumerate(report.results):
                _commit(index, result)
            # The barrier path holds every result until the whole pool
            # drains — its "queue" peak is the full window count.
            commit_queue_peak = len(windows)
    finally:
        # Success and failure share the unwind: every pin recorded on the
        # ledger is dropped and the dangling remains swept, so an aborted
        # sweep (worker exception, WindowVerificationError, mid-stitch
        # failure) leaves the caller's network pin-free and verifiable.
        reclaimed = release_pins(network, all_stats)

    certified = [r["certified"] for r in per_window if "certified" in r]
    methods: Dict[str, int] = {}
    for verdict in certified:
        methods[verdict["method"]] = methods.get(verdict["method"], 0) + 1
    if pipeline:
        # Streamed mode: the parent extracts and stitches *during* the
        # run; whatever is left of the wall is time spent blocked on
        # workers.  The serial fallback optimizes in-process (the parent
        # is never idle).
        parent_idle = (
            max(0.0, report.wall_s - timing["extract"] - timing["stitch"])
            if report.parallel
            else 0.0
        )
    else:
        # Barrier mode: the parent is blocked for the whole pool drain
        # (extraction before it, stitching after it).
        parent_idle = report.wall_s if report.parallel else 0.0
    return {
        "offset": spec.offset,
        "windows": len(windows),
        "frontier_pins": sum(len(w.inputs) for w in windows),
        "workers": report.workers,
        "parallel": report.parallel,
        "improved_windows": sum(1 for r in per_window if r["improved"]),
        "window_gain": sum(r["gain"] for r in per_window if r["improved"]),
        "stitch": stitch_totals,
        "reclaimed": reclaimed,
        "certified_windows": len(certified),
        "certified_methods": methods,
        "optimize_wall_s": round(report.wall_s, 6),
        "extract_wall_s": round(timing["extract"], 6),
        "stitch_wall_s": round(timing["stitch"], 6),
        "parent_idle_s": round(parent_idle, 6),
        "commit_queue_peak": commit_queue_peak,
        "per_window": per_window,
        "wall_s": round(time.perf_counter() - sweep_start, 6),
    }


def partitioned_rewrite(
    network,
    max_window_gates: int = 400,
    strategy: str = "topo",
    workers: Optional[int] = None,
    certify: bool = True,
    flow: str = "auto",
    flow_kwargs: Optional[dict] = None,
    certify_options: Optional[dict] = None,
    sweeps: int = 1,
    pipeline: bool = True,
    lookahead: Optional[int] = None,
) -> Dict[str, object]:
    """Windowed optimization of ``network`` in place; returns details.

    The phases per sweep: cleanup → partition (boundary phase
    :func:`sweep_offset` of the sweep index) → extract → optimize
    windows in worker processes → stitch in window order → release pins
    and sweep.  With ``pipeline=True`` (default) the phases are
    streamed: extraction feeds the pool lazily with ``lookahead``
    bounded in-flight windows, and an in-order commit queue stitches
    early windows while later ones still optimize — bit-identical to the
    ``pipeline=False`` barrier path at any worker count (see the module
    docstring for the argument).  ``sweeps`` > 1 re-partitions with
    shifted window boundaries between sweeps and stops early once a
    sweep improves no window (a converged sweep performs no substitution
    and leaves the mutation serial untouched).

    ``certify`` proves every window job function-preserving inside its
    worker (SAT-backed for wide windows); an uncertified verdict (budget
    exhausted, random fallback) rejects the window by raising
    :class:`WindowVerificationError` — it is never stitched as if
    proven.  ``certify_options`` is forwarded to
    :func:`~repro.verify.equivalence.check_equivalence` (e.g.
    ``{"sat_options": {...}}`` to size the per-window proof budget).
    On any failure the pin ledger is unwound before the exception
    propagates: the caller's network is left pin-free, structurally
    intact and still function-preserving (stitches are equivalence-
    preserving, so even a partially stitched network verifies).
    The stitched network additionally stays check-equivalence-able
    against the input as a whole, which the tests do on forged networks.
    """
    if sweeps < 1:
        raise ValueError(f"sweeps must be >= 1, got {sweeps}")
    start = time.perf_counter()
    resolved = resolve_flow(network, flow)
    if flow_kwargs is None:
        kwargs = dict(_DEFAULT_MIG_WINDOW_KWARGS) if resolved == "mighty" else {}
    else:
        if resolved == "resyn2" and flow_kwargs:
            raise ValueError(
                f"flow 'resyn2' takes no flow options, got {sorted(flow_kwargs)}"
            )
        kwargs = dict(flow_kwargs)

    sweep_details: List[Dict[str, object]] = []
    converged = False
    for sweep in range(sweeps):
        spec = PartitionSpec(
            max_window_gates=max_window_gates,
            strategy=strategy,
            offset=sweep_offset(sweep, max_window_gates),
        )
        record = _run_sweep(
            network,
            spec,
            sweep,
            workers,
            certify,
            resolved,
            kwargs,
            certify_options,
            pipeline,
            lookahead,
        )
        sweep_details.append(record)
        if record["improved_windows"] == 0:
            # Nothing improved: no substitutions ran, the structure (and
            # its mutation serial) is exactly what this sweep started
            # from, and a re-run at any boundary phase of the *same*
            # structure cannot do better than re-optimizing the same
            # cones — stop instead of burning the remaining sweeps.
            converged = True
            break

    methods: Dict[str, int] = {}
    for record in sweep_details:
        for method, count in record["certified_methods"].items():
            methods[method] = methods.get(method, 0) + count
    details: Dict[str, object] = {
        "strategy": strategy,
        "max_window_gates": max_window_gates,
        "pipeline": pipeline,
        "sweeps": sweeps,
        "sweeps_run": len(sweep_details),
        "converged": converged,
        "flow": resolved,
        "flow_kwargs": kwargs,
        "workers": max(r["workers"] for r in sweep_details),
        "parallel": any(r["parallel"] for r in sweep_details),
        "windows": sum(r["windows"] for r in sweep_details),
        "frontier_pins": sum(r["frontier_pins"] for r in sweep_details),
        "improved_windows": sum(r["improved_windows"] for r in sweep_details),
        "window_gain": sum(r["window_gain"] for r in sweep_details),
        "stitch": {
            key: sum(r["stitch"][key] for r in sweep_details)
            for key in ("substituted", "unchanged", "skipped_cycles")
        },
        "reclaimed": sum(r["reclaimed"] for r in sweep_details),
        "certified_windows": sum(r["certified_windows"] for r in sweep_details),
        "certified_methods": methods,
        "optimize_wall_s": round(sum(r["optimize_wall_s"] for r in sweep_details), 6),
        "extract_wall_s": round(sum(r["extract_wall_s"] for r in sweep_details), 6),
        "stitch_wall_s": round(sum(r["stitch_wall_s"] for r in sweep_details), 6),
        "parent_idle_s": round(sum(r["parent_idle_s"] for r in sweep_details), 6),
        "commit_queue_peak": max(r["commit_queue_peak"] for r in sweep_details),
        "per_window": [r for record in sweep_details for r in record["per_window"]],
        "per_sweep": [
            {
                key: record[key]
                for key in (
                    "offset",
                    "windows",
                    "frontier_pins",
                    "improved_windows",
                    "window_gain",
                    "stitch",
                    "optimize_wall_s",
                    "extract_wall_s",
                    "stitch_wall_s",
                    "parent_idle_s",
                    "commit_queue_peak",
                    "wall_s",
                )
            }
            for record in sweep_details
        ],
        "wall_s": round(time.perf_counter() - start, 6),
    }
    return details


class PartitionedRewrite(Pass):
    """Flow-engine pass wrapping :func:`partitioned_rewrite`.

    Per-window gains, frontier pin counts, stitch outcomes,
    certification verdicts and the per-phase pipeline metrics
    (``extract_wall_s``, ``stitch_wall_s``, ``commit_queue_peak``,
    ``parent_idle_s``, per-sweep records) land in
    ``PassMetrics.details`` through the standard
    :class:`~repro.flows.engine.Pipeline` metrics path.
    """

    name = "partitioned_rewrite"

    def __init__(
        self,
        max_window_gates: int = 400,
        strategy: str = "topo",
        workers: Optional[int] = None,
        certify: bool = True,
        flow: str = "auto",
        flow_kwargs: Optional[dict] = None,
        certify_options: Optional[dict] = None,
        sweeps: int = 1,
        pipeline: bool = True,
        lookahead: Optional[int] = None,
    ) -> None:
        self.max_window_gates = max_window_gates
        self.strategy = strategy
        self.workers = workers
        self.certify = certify
        self.flow = flow
        self.flow_kwargs = flow_kwargs
        self.certify_options = certify_options
        self.sweeps = sweeps
        self.pipeline = pipeline
        self.lookahead = lookahead

    def apply(self, network) -> Dict[str, object]:
        return partitioned_rewrite(
            network,
            max_window_gates=self.max_window_gates,
            strategy=self.strategy,
            workers=self.workers,
            certify=self.certify,
            flow=self.flow,
            flow_kwargs=self.flow_kwargs,
            certify_options=self.certify_options,
            sweeps=self.sweeps,
            pipeline=self.pipeline,
            lookahead=self.lookahead,
        )
