"""Process-parallel execution layer: deterministic sharding over a pool.

The repository's heavyweight workloads — the Table I benchmark sweeps,
whole-corpus ``mighty_optimize``/``resyn2`` batches, the 222-class NPN
structure-database derivation behind the committed database file — are
embarrassingly parallel: independent tasks over a fixed item list.  This
package provides the one orchestration substrate they all share:

* :func:`~repro.parallel.executor.plan_shards` — a deterministic shard
  planner (contiguous chunks over a cost-ordered index list: one item
  per chunk when costs are given, about four chunks per worker
  otherwise; no chunk-size setting);
* :func:`~repro.parallel.executor.parallel_map` — a chunked process-pool
  executor with worker warm-up and per-task metric records, returning
  results in input order once the pool drains (the engine of
  :func:`repro.flows.batch.optimize_many`, whose ``cache_dir=`` result
  cache sends it only the cache misses);
* :func:`~repro.parallel.executor.warm_worker` — preloads the import-once
  network kernels, the NPN canonical map and the structure database
  (both committed package data) so forked workers inherit a hot process
  image instead of loading them per task;
* :mod:`repro.parallel.corpus` (imported separately — its row task
  pulls in the flow stack) — the Table I row task
  :func:`~repro.parallel.corpus.optimization_row` that the sharded
  sweep maps over benchmark names, and the structural / canonical
  network fingerprints.

No optimization flow splits a network across processes: each task
rewrites one whole network.

Sharding/determinism contract
-----------------------------
Results are **bit-identical to a serial run** regardless of worker
count: every task is a pure function of its item (networks cross the
process boundary by pickling, which preserves node ids exactly, and
every optimization flow is deterministic on identical structure), tasks
never share mutable state, and :func:`parallel_map` reassembles results
by original item index — OS scheduling only changes *when* a task runs,
never what it computes or where its result lands.  Parallelism is
therefore a pure wall-clock win; ``benchmarks/bench_parallel.py`` and
``tests/parallel/`` assert the contract (same node ids, sizes, depths
and CEC verdicts at 1, 2 and 4 workers).
"""

from .executor import (
    ParallelReport,
    TaskRecord,
    default_workers,
    parallel_map,
    plan_shards,
    warm_worker,
)

__all__ = [
    "ParallelReport",
    "TaskRecord",
    "default_workers",
    "parallel_map",
    "plan_shards",
    "warm_worker",
]
