"""Process-parallel execution layer: deterministic sharding over a pool.

The repository's heavyweight workloads — the Table I benchmark sweeps,
whole-corpus ``mighty_optimize``/``resyn2`` batches, the 222-class NPN
structure-database derivation, per-output final SAT calls — are
embarrassingly parallel: independent tasks over a fixed item list.  This
package provides the one orchestration substrate they all share:

* :func:`~repro.parallel.executor.plan_shards` — a deterministic shard
  planner (contiguous chunks over a cost-ordered index list);
* :func:`~repro.parallel.executor.parallel_map` — a chunked process-pool
  executor with worker warm-up and per-task metric records, returning
  results in input order once the pool drains (the engine of
  :func:`repro.flows.batch.optimize_many`, whose ``cache_dir=`` result
  cache sends it only the cache misses);
* :func:`~repro.parallel.executor.parallel_map_stream` /
  :class:`~repro.parallel.executor.OrderedCommitQueue` — the streaming
  variant over lazily produced items and its in-order commit buffer
  (see "In-order commit" below);
* :func:`~repro.parallel.executor.warm_worker` — preloads the import-once
  network kernels and the disk-cached NPN database so forked workers
  inherit a hot process image instead of re-deriving per task;
* :mod:`repro.parallel.partition` / :mod:`repro.parallel.window` — the
  partition-parallel layer *inside* one circuit: deterministic window
  decomposition (bounded topological chunks or level bands with
  frontier pins as window PIs/POs), extraction of windows as standalone
  sub-networks, and substitution-based stitching of optimized windows
  back into the parent (consumed by
  :class:`repro.flows.partitioned.PartitionedRewrite` and
  :func:`repro.flows.batch.optimize_large`);
* :mod:`repro.parallel.corpus` (imported separately — it pulls in the
  flow stack) — the shared corpus runner of the benchmark harness plus
  the crash-safe row channel used by the sharded Table I sweeps.

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

The contract extends to **windows inside one circuit**: for a fixed
:class:`~repro.parallel.partition.PartitionSpec`, the decomposition is
a pure function of the network structure, every window job is a pure
function of its extracted sub-network, and the stitch phase replays the
per-window results serially in window order — so the stitched network
is bit-identical (node ids, fanins, primary outputs, structural
fingerprint) at 1, 2 and 4 workers.  Worker count only decides *where*
a window is optimized, never what is stitched.
``benchmarks/bench_partition.py`` and
``tests/parallel/test_partition.py`` assert the window contract
end-to-end, including per-window SAT certification.

In-order commit (the pipelined window path)
-------------------------------------------
:func:`~repro.parallel.executor.parallel_map_stream` streams lazily
produced items through the pool with bounded lookahead, and
:class:`~repro.parallel.executor.OrderedCommitQueue` turns its
completion-order result stream back into strict index-order commits.
The ordering is load-bearing, not cosmetic: stitching window *i*
substitutes nodes whose cascades rewire the fanout cones — the gates of
later windows — so the committed structure depends on commit order, and
only strict window order reproduces the serial result.  Two rules keep
the streamed path on the contract above:

1. **Commits wait for extraction.**  Every window must be extracted
   from the *pristine* network before the first commit mutates it; the
   producer holds the queue (:meth:`OrderedCommitQueue.hold`) until its
   last extraction and releases it from the generator epilogue.  From
   then on window *i* is stitched the moment *i* and all earlier
   windows have returned, overlapping with still-running workers.
2. **Commit order is window order**, whatever the completion order —
   the reorder buffer parks early-returning later windows until the
   gap closes.

Under both rules the pipelined path is bit-identical to the barrier
path (and to serial) at any worker count.

Multi-sweep boundary offsets
----------------------------
A window never rewrites across its own frontier pins, so gains sitting
on one decomposition's boundaries are invisible to it.
``PartitionSpec.offset`` phase-shifts every boundary (the first chunk
shrinks to ``bound - offset % bound`` gates), and
:func:`repro.flows.partitioned.sweep_offset` derives sweep *k*'s offset
deterministically (a golden-ratio multiple of the bound, 0 for sweep
0) — so consecutive sweeps of
``partitioned_rewrite(..., sweeps=N)`` re-partition with well-separated
boundary phases, each sweep re-optimizing the (bit-identical) structure
the previous sweep produced.  A sweep that improves nothing performs no
substitution, leaves the mutation serial untouched, and ends the loop
early.
"""

from .executor import (
    OrderedCommitQueue,
    ParallelReport,
    TaskRecord,
    default_workers,
    parallel_map,
    parallel_map_stream,
    plan_shards,
    warm_worker,
)
from .partition import PartitionSpec, Window, partition_network
from .window import StitchStats, extract_window, release_pins, stitch_window

__all__ = [
    "OrderedCommitQueue",
    "ParallelReport",
    "PartitionSpec",
    "StitchStats",
    "TaskRecord",
    "Window",
    "default_workers",
    "extract_window",
    "parallel_map",
    "parallel_map_stream",
    "partition_network",
    "plan_shards",
    "release_pins",
    "stitch_window",
    "warm_worker",
]
