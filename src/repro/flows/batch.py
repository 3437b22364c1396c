"""Batch optimization: shard whole-network flows across worker processes.

:func:`optimize_many` is the public corpus API on top of
:mod:`repro.parallel`: give it a list of networks (MIGs, AIGs, or a mix)
and it runs one whole-network optimization job per item — the MIGhty
pipeline for MIGs, the ``resyn2``-style script for AIGs — sharded across
a process pool, and merges the flow engine's per-pass metrics traces
into one :class:`BatchReport`.

Determinism contract (inherited from :mod:`repro.parallel`): input
networks are never mutated — each one crosses the process boundary by
pickling, which preserves node ids exactly, so the optimized network
that comes back is **bit-identical** (same node ids, fanins, primary
outputs, sizes, depths) to running the flow in place on the original,
at any worker count.  ``tests/parallel/test_parallel.py`` asserts this
at 1, 2 and 4 workers over fuzzed corpora.

Example
-------
>>> from repro.bench_circuits import build_benchmark
>>> from repro.core import Mig
>>> report = optimize_many(
...     [build_benchmark(n, Mig) for n in ("b9", "count")], workers=2,
... )  # doctest: +SKIP
>>> [item.final_size for item in report.items]  # doctest: +SKIP
[...]
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..parallel.executor import ParallelReport, parallel_map
from .engine import PassMetrics

__all__ = [
    "BatchItem",
    "BatchReport",
    "optimize_many",
    "resolve_flow",
    "run_flow",
    "format_batch_report",
]

#: Flows understood by :func:`optimize_many`; "auto" picks by network type.
_FLOWS = ("auto", "mighty", "resyn2")


@dataclass
class BatchItem:
    """Result of one corpus item's optimization job."""

    index: int
    name: str
    flow: str
    initial_size: int
    initial_depth: int
    final_size: int
    final_depth: int
    runtime_s: float
    pass_metrics: List[PassMetrics] = field(default_factory=list)
    network: object = None

    def as_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "name": self.name,
            "flow": self.flow,
            "initial_size": self.initial_size,
            "initial_depth": self.initial_depth,
            "final_size": self.final_size,
            "final_depth": self.final_depth,
            "runtime_s": round(self.runtime_s, 6),
        }


@dataclass
class BatchReport:
    """Merged outcome of one :func:`optimize_many` run.

    ``items`` is in corpus order; ``items[i].network`` is the optimized
    network of ``corpus[i]`` (the input object is untouched).
    """

    items: List[BatchItem]
    workers: int
    wall_s: float
    parallel: bool
    execution: Optional[ParallelReport] = None

    @property
    def networks(self) -> List[object]:
        return [item.network for item in self.items]

    def totals(self) -> Dict[str, float]:
        """Corpus-wide aggregates of the per-item flow results."""
        return {
            "networks": len(self.items),
            "initial_size": sum(i.initial_size for i in self.items),
            "final_size": sum(i.final_size for i in self.items),
            "initial_depth": sum(i.initial_depth for i in self.items),
            "final_depth": sum(i.final_depth for i in self.items),
            "flow_runtime_s": round(sum(i.runtime_s for i in self.items), 6),
            "wall_s": round(self.wall_s, 6),
        }

    def merged_pass_metrics(self) -> List[Dict[str, object]]:
        """One record per pass name, aggregated across the whole corpus.

        Pass names keep first-appearance order, so a merged report reads
        like one flow trace: runs, total runtime, summed size/depth
        deltas per pass.  Composite records (a MIGhty round) are left
        out: they repeat their inner passes, so the rows' size deltas sum
        to the corpus's size change.
        """
        order: List[str] = []
        merged: Dict[str, Dict[str, object]] = {}
        for item in self.items:
            for m in item.pass_metrics:
                if m.composite:
                    continue
                record = merged.get(m.name)
                if record is None:
                    order.append(m.name)
                    record = merged[m.name] = {
                        "pass": m.name,
                        "runs": 0,
                        "runtime_s": 0.0,
                        "size_delta": 0,
                        "depth_delta": 0,
                    }
                record["runs"] += 1
                record["runtime_s"] += m.runtime_s
                record["size_delta"] += m.size_delta
                record["depth_delta"] += m.depth_delta
        for record in merged.values():
            record["runtime_s"] = round(record["runtime_s"], 6)
        return [merged[name] for name in order]

    def as_dict(self) -> Dict[str, object]:
        record = {
            "workers": self.workers,
            "parallel": self.parallel,
            "totals": self.totals(),
            "passes": self.merged_pass_metrics(),
            "items": [item.as_dict() for item in self.items],
        }
        if self.execution is not None:
            record["execution"] = self.execution.as_dict()
        return record


def resolve_flow(network, flow: str) -> str:
    """The flow that runs on ``network``: ``"auto"`` picks by type.

    AIGs take the ``resyn2`` script, MIGs the MIGhty pipeline; an
    explicit flow must be one of :data:`_FLOWS`.  A flow that cannot run
    on the network's type raises ``ValueError`` here, before any work
    starts, instead of failing inside a worker.
    """
    if flow not in _FLOWS:
        raise ValueError(f"unknown flow {flow!r} (expected one of {_FLOWS})")
    # Late import keeps batch importable without pulling both kernels.
    from ..aig.aig import Aig
    from ..core.mig import Mig

    resolved = flow
    if flow == "auto":
        resolved = "resyn2" if isinstance(network, Aig) else "mighty"
    kind = Mig if resolved == "mighty" else Aig
    if not isinstance(network, kind):
        raise ValueError(
            f"flow {flow!r} cannot run on a network of type "
            f"{type(network).__name__} ({resolved!r} takes {kind.__name__})"
        )
    return resolved


def run_flow(network, flow: str, options: Dict[str, object]):
    """Run a resolved flow; returns ``(optimized, FlowResult)``.

    ``options`` are the flow's keyword arguments.  ``mighty``
    (:func:`~repro.flows.mighty.mighty_optimize`) optimizes ``network``
    in place and returns it; ``resyn2`` takes no options and returns a
    new network, leaving ``network`` untouched.
    """
    if flow == "mighty":
        from .mighty import mighty_optimize

        return network, mighty_optimize(network, **options)
    if flow == "resyn2":
        from ..aig.resyn import resyn2

        return resyn2(network, **options)
    raise ValueError(f"unknown flow {flow!r} (expected 'mighty' or 'resyn2')")


def _optimize_task(item):
    """Worker task: one whole-network optimization job.

    ``item`` is ``(flow, network, options)``; the network is this
    process's private unpickled copy, so in-place flows are safe.
    Returns the :class:`BatchItem` (minus its index, patched by the
    caller).
    """
    flow, network, options = item
    optimized, result = run_flow(network, flow, options)
    return BatchItem(
        index=-1,
        name=getattr(network, "name", "network"),
        flow=flow,
        initial_size=result.initial_size,
        initial_depth=result.initial_depth,
        final_size=result.final_size,
        final_depth=result.final_depth,
        runtime_s=result.runtime_s,
        pass_metrics=result.pass_metrics,
        network=optimized,
    )


def optimize_many(
    corpus: Sequence[object],
    workers: Optional[int] = None,
    flow: str = "auto",
    costs: Optional[Sequence[float]] = None,
    cache_dir=None,
    **flow_kwargs,
) -> BatchReport:
    """Optimize a corpus of networks, sharded across worker processes.

    ``flow`` is ``"mighty"`` (MIGs), ``"resyn2"`` (AIGs) or ``"auto"``
    (per-item by network type); ``flow_kwargs`` are forwarded to
    ``mighty_optimize`` (``rounds=``, ``depth_effort=``,
    ``boolean_rewrite=``, ...) and must be empty for ``resyn2``.
    ``costs`` optionally supplies expected per-item runtimes (e.g. gate
    counts) for longest-first scheduling; sizes are used by default.
    ``workers=None`` uses :func:`repro.parallel.default_workers`;
    ``workers=1`` runs the identical jobs in-process.

    ``cache_dir`` enables the content-addressed result cache of
    :mod:`repro.flows.result_cache`: items whose (circuit, flow, options)
    computation is already stored there come back without running any
    pass — ``flow`` suffixed ``"+cached"``, ``runtime_s == 0``, no pass
    metrics — and only the misses reach the worker pool; their results
    are written back atomically.  A hit is bit-identical to re-running.

    Input networks are left untouched; the optimized results are in
    ``report.items[i].network``, bit-identical to in-place serial runs.
    """
    if flow == "resyn2" and flow_kwargs:
        raise ValueError(
            f"flow 'resyn2' takes no flow options, got {sorted(flow_kwargs)}"
        )
    corpus = list(corpus)
    # Flow options parameterize the MIGhty pipeline; resyn2 is the fixed
    # script, so under "auto" a mixed corpus simply does not forward them
    # to its AIG items.
    items = []
    for network in corpus:
        item_flow = resolve_flow(network, flow)
        items.append(
            (item_flow, network, dict(flow_kwargs) if item_flow == "mighty" else {})
        )
    if any(item_flow == "mighty" for item_flow, _, _ in items):
        from .mighty import mighty_pipeline

        # Builds nothing but the pass list: rejects bad options before any work.
        mighty_pipeline(**flow_kwargs)
    if costs is None:
        costs = [network.num_gates for network in corpus]
    labels = [getattr(network, "name", f"net{i}") for i, network in enumerate(corpus)]
    start = time.perf_counter()
    results: List[Optional[BatchItem]] = [None] * len(corpus)
    if cache_dir is not None:
        from . import result_cache

        keys = [result_cache.result_cache_key(n, f, o) for f, n, o in items]
        for index, key in enumerate(keys):
            hit = result_cache.cache_get(cache_dir, key)
            if hit is not None:
                network, initial = hit
                results[index] = BatchItem(
                    index=index,
                    name=labels[index],
                    flow=items[index][0] + "+cached",
                    initial_size=initial[0],
                    initial_depth=initial[1],
                    final_size=network.num_gates,
                    final_depth=network.depth(),
                    runtime_s=0.0,
                    network=network,
                )
    misses = [index for index, result in enumerate(results) if result is None]
    execution = parallel_map(
        _optimize_task,
        [items[i] for i in misses],
        workers=workers,
        costs=[costs[i] for i in misses],
        labels=[labels[i] for i in misses],
    )
    for index, item in zip(misses, execution.results):
        item.index = index
        results[index] = item
        if cache_dir is not None:
            result_cache.cache_put(cache_dir, keys[index], item)
    return BatchReport(
        items=results,
        workers=execution.workers,
        wall_s=time.perf_counter() - start,
        parallel=execution.parallel,
        execution=execution,
    )


def format_batch_report(report: BatchReport) -> str:
    """Render a :class:`BatchReport` as fixed-width text."""
    header = (
        f"{'Network':<12s} {'flow':<7s} {'size':>6s} {'->':>2s} {'size':>6s} "
        f"{'depth':>5s} {'->':>2s} {'depth':>5s} {'time[s]':>8s}"
    )
    lines = [header, "-" * len(header)]
    for item in report.items:
        lines.append(
            f"{item.name:<12s} {item.flow:<7s} {item.initial_size:>6d} {'':>2s} "
            f"{item.final_size:>6d} {item.initial_depth:>5d} {'':>2s} "
            f"{item.final_depth:>5d} {item.runtime_s:>8.3f}"
        )
    totals = report.totals()
    lines.append("-" * len(header))
    lines.append(
        f"{'Total':<12s} {'':<7s} {totals['initial_size']:>6d} {'':>2s} "
        f"{totals['final_size']:>6d} {totals['initial_depth']:>5d} {'':>2s} "
        f"{totals['final_depth']:>5d} {totals['flow_runtime_s']:>8.3f}"
    )
    lines.append(
        f"{len(report.items)} networks, {report.workers} workers"
        f"{' (parallel)' if report.parallel else ' (in-process)'}, "
        f"wall {report.wall_s:.3f}s"
    )
    for record in report.merged_pass_metrics():
        lines.append(
            f"  pass {record['pass']:<14s} runs {record['runs']:>3d}  "
            f"size {record['size_delta']:+6d}  depth {record['depth_delta']:+5d}  "
            f"time {record['runtime_s']:.3f}s"
        )
    return "\n".join(lines)
