"""Deterministic shard planner and chunked process-pool executor.

See the package docstring of :mod:`repro.parallel` for the
sharding/determinism contract.  The execution model:

1. :func:`plan_shards` orders item indices (longest-expected-first when
   per-item ``costs`` are given, original order otherwise) and groups
   them into contiguous chunks.  The plan is a pure function of
   ``(num_items, workers, costs)`` — no randomness, no wall-clock
   input — so repeated runs shard identically.
2. :func:`parallel_map` submits one future per chunk to a
   ``ProcessPoolExecutor``; the pool hands chunks to idle workers
   dynamically (which is what absorbs uneven task costs), and every
   result travels back tagged with its original index, so the returned
   list is always in input order no matter which worker finished first.
3. Worker warm-up: the ``warmup`` callable runs in the *parent* before
   the pool is created — under the default ``fork`` start method every
   worker inherits the hot caches (imported kernels, and the NPN
   canonical map and structure DB loaded from package data) for free —
   and is installed as the pool initializer as well, so
   ``spawn``/``forkserver`` platforms warm up explicitly.

``workers <= 1`` (or a single item, or running inside a pool worker)
degrades to an in-process loop over the *same* chunk runner, so the
serial fallback exercises the identical code path the workers run.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

__all__ = [
    "TaskRecord",
    "ParallelReport",
    "default_workers",
    "plan_shards",
    "parallel_map",
    "warm_worker",
]


def default_workers() -> int:
    """Worker count used when a caller passes ``workers=None``.

    ``REPRO_WORKERS`` overrides; otherwise the CPU count, floored at 1.
    """
    raw = os.environ.get("REPRO_WORKERS", "").strip()
    if raw:
        return max(1, int(raw))
    return max(1, os.cpu_count() or 1)


def warm_worker() -> None:
    """Preload the import-once kernels and the NPN rewriting database.

    Idempotent and cheap when already warm: the canonical map and the
    structure database are process-level caches of committed package
    files, each checked once on load.  Called in the parent
    before a pool forks, and as the pool initializer for non-fork start
    methods.
    """
    from ..aig import aig as _aig  # noqa: F401  (import-once kernels)
    from ..core import mig as _mig  # noqa: F401
    from ..network import npn

    npn.npn_canonical(0)  # load the 65,536-entry canonical map once
    npn.get_structures("mig", 0)  # the first lookup loads the whole database


@dataclass
class TaskRecord:
    """Per-task execution metrics of one :func:`parallel_map` item."""

    index: int
    label: str
    runtime_s: float
    worker_pid: int


@dataclass
class ParallelReport:
    """Outcome of one :func:`parallel_map` call.

    ``results[i]`` is the result of ``fn(items[i])`` — input order,
    independent of completion order.  ``tasks`` carries one
    :class:`TaskRecord` per item (sorted by index); ``busy_s`` is the sum
    of task runtimes, so ``busy_s / wall_s`` estimates pool utilization.
    """

    results: List[object]
    tasks: List[TaskRecord] = field(default_factory=list)
    workers: int = 1
    num_shards: int = 0
    wall_s: float = 0.0
    parallel: bool = False

    @property
    def busy_s(self) -> float:
        return sum(t.runtime_s for t in self.tasks)

    def as_dict(self) -> dict:
        return {
            "workers": self.workers,
            "num_shards": self.num_shards,
            "parallel": self.parallel,
            "wall_s": round(self.wall_s, 3),
            "busy_s": round(self.busy_s, 3),
            "tasks": [
                {
                    "index": t.index,
                    "label": t.label,
                    "runtime_s": round(t.runtime_s, 3),
                    "worker_pid": t.worker_pid,
                }
                for t in self.tasks
            ],
        }


def plan_shards(
    num_items: int,
    workers: Optional[int] = None,
    costs: Optional[Sequence[float]] = None,
) -> List[List[int]]:
    """Deterministic shard plan: a list of chunks of item indices.

    With ``costs`` (one expected cost per item) the indices are submitted
    longest-first (ties broken by index), the classical LPT heuristic —
    with dynamic chunk-to-worker assignment this bounds the makespan by
    ``max(longest_task, total/workers)`` instead of letting a heavy tail
    task start last.  Without costs the original order is kept.

    Chunks hold one item when costs are given (maximum balancing
    freedom) and ``ceil(num_items / (4 * workers))`` items otherwise,
    which caps scheduling overhead at ~4 round-trips per worker.
    """
    if num_items <= 0:
        return []
    workers = default_workers() if workers is None else max(1, workers)
    if costs is not None:
        if len(costs) != num_items:
            raise ValueError(
                f"expected {num_items} costs, got {len(costs)}"
            )
        order = sorted(range(num_items), key=lambda i: (-float(costs[i]), i))
    else:
        order = list(range(num_items))
    size = 1 if costs is not None else math.ceil(num_items / (4 * workers))
    return [order[i:i + size] for i in range(0, num_items, size)]


def _run_chunk(fn, chunk: List[Tuple[int, object]], labels: List[str]):
    """Worker-side chunk runner; returns ``(index, result, runtime, pid)``.

    Also the serial-fallback runner, so both paths execute identically.
    """
    pid = os.getpid()
    out = []
    for (index, item), label in zip(chunk, labels):
        start = time.perf_counter()
        try:
            result = fn(item)
        except Exception as exc:
            raise RuntimeError(
                f"parallel task {label!r} (item {index}) failed: {exc}"
            ) from exc
        out.append((index, result, time.perf_counter() - start, pid))
    return out


#: Environment marker set inside every pool worker (survives both fork
#: and spawn): ``ProcessPoolExecutor`` workers are *not* daemonic on
#: modern Pythons, so the daemon flag alone cannot detect them.
_WORKER_ENV_FLAG = "REPRO_IN_POOL_WORKER"


def _in_pool_worker() -> bool:
    """True inside a multiprocessing pool worker (no nested pools).

    A task that itself calls :func:`parallel_map` — e.g. one that runs
    ``optimize_many(workers=N)`` on its own sub-corpus — degrades to the
    in-process path instead of oversubscribing the host with
    ``workers**2`` processes.
    """
    return (
        multiprocessing.current_process().daemon
        or os.environ.get(_WORKER_ENV_FLAG) == "1"
    )


def parallel_map(
    fn: Callable,
    items: Sequence[object],
    workers: Optional[int] = None,
    costs: Optional[Sequence[float]] = None,
    labels: Optional[Sequence[str]] = None,
    warmup: Optional[Callable[[], None]] = warm_worker,
) -> ParallelReport:
    """Map ``fn`` over ``items`` on a process pool; results in input order.

    ``fn`` must be a picklable (module-level) callable and a pure
    function of its item.  ``warmup`` runs once in the parent before the
    pool starts (forked workers inherit its effect) and inside every
    worker as part of the pool initializer.  The first task exception
    cancels the chunks not yet started and propagates (fail fast).

    Degrades to an in-process loop — same chunk runner, same record
    shape, items still pickle-round-tripped into private copies,
    ``parallel=False`` — when ``workers <= 1``, there is at most one
    item, or the caller is itself a pool worker.
    """
    items = list(items)
    workers = default_workers() if workers is None else max(1, workers)
    if labels is None:
        labels = [f"task{i}" for i in range(len(items))]
    else:
        labels = [str(label) for label in labels]
        if len(labels) != len(items):
            raise ValueError(f"expected {len(items)} labels, got {len(labels)}")

    shards = plan_shards(len(items), workers, costs=costs)
    start = time.perf_counter()
    use_pool = workers > 1 and len(items) > 1 and not _in_pool_worker()

    if warmup is not None:
        warmup()

    raw: List[tuple] = []
    if not use_pool:
        for shard in shards:
            # Round-trip the items through pickle exactly like the pool
            # path does: tasks receive a private copy either way, so a
            # task that mutates its item (in-place optimization flows)
            # behaves identically at every worker count and the caller's
            # objects are never touched.
            raw.extend(
                _run_chunk(
                    fn,
                    [(i, pickle.loads(pickle.dumps(items[i]))) for i in shard],
                    [labels[i] for i in shard],
                )
            )
    else:
        with ProcessPoolExecutor(
            max_workers=min(workers, len(items)),
            initializer=_worker_init,
            initargs=(warmup,),
        ) as pool:
            futures = [
                pool.submit(
                    _run_chunk,
                    fn,
                    [(i, items[i]) for i in shard],
                    [labels[i] for i in shard],
                )
                for shard in shards
            ]
            # Chunks are consumed as they complete, so the first task
            # exception cancels pending chunks (fail fast) instead of
            # burning the rest of the corpus.
            try:
                for future in as_completed(futures):
                    raw.extend(future.result())
            except BaseException:
                for future in futures:
                    future.cancel()
                raise

    results: List[object] = [None] * len(items)
    tasks: List[TaskRecord] = []
    for index, result, runtime_s, pid in raw:
        results[index] = result
        tasks.append(TaskRecord(index, labels[index], runtime_s, pid))
    tasks.sort(key=lambda t: t.index)
    return ParallelReport(
        results=results,
        tasks=tasks,
        workers=workers,
        num_shards=len(shards),
        wall_s=time.perf_counter() - start,
        parallel=use_pool,
    )


def _worker_init(warmup) -> None:
    """Pool initializer: mark the worker and warm it."""
    os.environ[_WORKER_ENV_FLAG] = "1"
    if warmup is not None:
        warmup()
