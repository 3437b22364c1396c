"""Tests of the streamed partition pipeline and multi-sweep rewriting.

Three layers under test:

* :class:`repro.parallel.executor.OrderedCommitQueue` — the reorder
  buffer that turns completion-order result streams back into strict
  index-order commits (with a hold gate for the extraction phase);
* :func:`repro.parallel.executor.parallel_map_stream` — the lazy
  bounded-lookahead producer/consumer over the process pool, equivalent
  to :func:`parallel_map` in results and report shape;
* the pipelined :func:`repro.flows.partitioned.partitioned_rewrite` —
  bit-identical to the barrier path at 1/2/4 workers, pin-leak-free on
  every failure path, instrumented with per-phase metrics, and the
  boundary-shifted multi-sweep mode on top of it.
"""

import pickle

import pytest

from repro.flows.partitioned import partitioned_rewrite, sweep_offset
from repro.parallel import PartitionSpec, partition_network
from repro.parallel.corpus import structural_fingerprint
from repro.parallel.executor import (
    OrderedCommitQueue,
    parallel_map,
    parallel_map_stream,
)
from repro.verify.equivalence import check_equivalence

WORKER_COUNTS = (1, 2, 4)
KINDS = ("mig", "aig")


def _forged(network_forge, kind, seed=3, num_gates=220):
    return network_forge(
        kind=kind,
        gate_mix="mixed" if kind == "mig" else "aoig",
        num_pis=8,
        num_gates=num_gates,
        num_pos=6,
        seed=seed,
    )


# --------------------------------------------------------------------- #
# OrderedCommitQueue
# --------------------------------------------------------------------- #
class TestOrderedCommitQueue:
    def test_in_order_offers_commit_immediately(self):
        committed = []
        queue = OrderedCommitQueue(lambda i, v: committed.append((i, v)))
        for index in range(4):
            queue.offer(index, index * 10)
            assert committed[-1] == (index, index * 10)
        assert queue.peak == 1
        assert queue.committed == 4
        assert queue.buffered == 0

    def test_out_of_order_offers_buffer_until_gap_fills(self):
        committed = []
        queue = OrderedCommitQueue(lambda i, v: committed.append(i))
        queue.offer(2, "c")
        queue.offer(1, "b")
        assert committed == []
        assert queue.buffered == 2
        queue.offer(0, "a")
        assert committed == [0, 1, 2]
        assert queue.peak == 3
        assert queue.next_index == 3

    def test_hold_gates_commits_until_release(self):
        committed = []
        queue = OrderedCommitQueue(lambda i, v: committed.append(i))
        queue.hold()
        queue.offer(0, "a")
        queue.offer(1, "b")
        assert committed == []
        assert queue.buffered == 2
        queue.release()
        assert committed == [0, 1]
        # Post-release offers flow straight through again.
        queue.offer(2, "c")
        assert committed == [0, 1, 2]

    def test_duplicate_or_stale_offer_raises(self):
        queue = OrderedCommitQueue(lambda i, v: None)
        queue.offer(0, "a")
        with pytest.raises(ValueError):
            queue.offer(0, "again")  # already committed
        queue.offer(2, "c")
        with pytest.raises(ValueError):
            queue.offer(2, "again")  # still buffered

    def test_start_index(self):
        committed = []
        queue = OrderedCommitQueue(lambda i, v: committed.append(i), start=5)
        queue.offer(6, "b")
        assert committed == []
        queue.offer(5, "a")
        assert committed == [5, 6]


# --------------------------------------------------------------------- #
# parallel_map_stream
# --------------------------------------------------------------------- #
def _square(x):
    return x * x


def _boom_on_three(x):
    if x == 3:
        raise ValueError("boom")
    return x


#: Event log for the serial-laziness test (in-process fallback only).
_EVENTS = []


def _record_run(x):
    _EVENTS.append(("run", x))
    return x


class TestParallelMapStream:
    @pytest.mark.parametrize("workers", (1, 2))
    def test_matches_parallel_map_results(self, workers):
        items = list(range(9))
        stream = parallel_map_stream(_square, iter(items), workers=workers)
        batch = parallel_map(_square, items, workers=workers)
        assert stream.results == batch.results
        assert stream.num_shards == len(items)
        assert stream.parallel == (workers > 1)
        assert len(stream.tasks) == len(items)
        assert [t.index for t in stream.tasks] == list(range(len(items)))

    def test_on_result_streams_every_item(self):
        seen = []
        parallel_map_stream(
            _square,
            iter(range(5)),
            workers=2,
            on_result=lambda i, r, runtime, pid: seen.append((i, r)),
        )
        assert sorted(seen) == [(i, i * i) for i in range(5)]

    def test_on_result_streams_every_record_once(self):
        # Every (index, result) pair arrives exactly once, before the call
        # returns, and matches the final in-order report at every worker
        # count.
        items = list(range(9))
        for workers in WORKER_COUNTS:
            seen = {}

            def _on_result(index, result, runtime_s, pid):
                assert index not in seen  # exactly once per item
                assert runtime_s >= 0 and isinstance(pid, int)
                seen[index] = result

            report = parallel_map_stream(
                _square, iter(items), workers=workers, on_result=_on_result
            )
            assert sorted(seen) == items
            assert [seen[i] for i in items] == report.results

    def test_on_result_serial_order_and_failure_cutoff(self):
        # The in-process fallback streams in producer order, and a failing
        # task stops the stream with the error (fail fast).
        streamed = []
        parallel_map_stream(
            _square,
            iter([3, 1, 2]),
            workers=1,
            on_result=lambda i, r, t, p: streamed.append((i, r)),
        )
        assert streamed == [(0, 9), (1, 1), (2, 4)]
        streamed.clear()
        with pytest.raises(RuntimeError, match="three"):
            parallel_map_stream(
                _boom_on_three,
                iter([1, 3, 2]),
                workers=1,
                labels=["one", "three", "two"],
                on_result=lambda i, r, t, p: streamed.append(i),
            )
        assert streamed == [0]  # nothing after the failing task

    def test_serial_fallback_pulls_producer_lazily(self):
        """The producer is consumed one item per finished task — the point
        of the streamed path (no upfront materialization)."""
        _EVENTS.clear()

        def produce():
            for i in range(4):
                _EVENTS.append(("yield", i))
                yield i

        parallel_map_stream(_record_run, produce(), workers=1)
        assert _EVENTS == [
            ("yield", 0), ("run", 0),
            ("yield", 1), ("run", 1),
            ("yield", 2), ("run", 2),
            ("yield", 3), ("run", 3),
        ]

    def test_producer_epilogue_runs_after_last_result(self):
        """Code after the generator's final yield sees every prior task
        finished in serial mode — the pipelined stitcher's release hook
        relies on a deterministic position of this epilogue."""
        _EVENTS.clear()

        def produce():
            for i in range(3):
                yield i
            _EVENTS.append(("epilogue", None))

        parallel_map_stream(_record_run, produce(), workers=1)
        assert _EVENTS.index(("epilogue", None)) == len(_EVENTS) - 1

    @pytest.mark.parametrize("workers", (1, 2))
    def test_task_failure_propagates(self, workers):
        with pytest.raises(RuntimeError, match="boom"):
            parallel_map_stream(_boom_on_three, iter(range(6)), workers=workers)

    def test_serial_failure_stops_pulling_producer(self):
        pulled = []

        def produce():
            for i in range(6):
                pulled.append(i)
                yield i

        with pytest.raises(RuntimeError):
            parallel_map_stream(_boom_on_three, produce(), workers=1)
        assert pulled == [0, 1, 2, 3]

    def test_labels_fall_back_past_list_end(self):
        report = parallel_map_stream(
            _square, iter(range(3)), workers=1, labels=["first"]
        )
        assert [t.label for t in report.tasks] == ["first", "task1", "task2"]


# --------------------------------------------------------------------- #
# Pipelined partitioned_rewrite: determinism + failure paths + metrics
# --------------------------------------------------------------------- #
class TestPipelinedRewrite:
    @pytest.mark.parametrize("kind", KINDS)
    def test_bit_identical_to_barrier_at_all_worker_counts(self, network_forge, kind):
        net = _forged(network_forge, kind, num_gates=220)
        fingerprints = {}
        for pipeline in (True, False):
            for workers in WORKER_COUNTS:
                work = pickle.loads(pickle.dumps(net))
                details = partitioned_rewrite(
                    work, max_window_gates=60, workers=workers, pipeline=pipeline
                )
                work.check_integrity()
                assert details["pipeline"] is pipeline
                fingerprints[(pipeline, workers)] = structural_fingerprint(work)
        assert len(set(fingerprints.values())) == 1, fingerprints

    def test_per_phase_metrics_present(self, network_forge):
        net = _forged(network_forge, "mig", num_gates=220)
        details = partitioned_rewrite(net, max_window_gates=60, workers=1)
        assert details["extract_wall_s"] > 0
        assert details["stitch_wall_s"] > 0
        assert details["parent_idle_s"] >= 0
        assert 1 <= details["commit_queue_peak"] <= details["windows"]
        assert details["sweeps"] == 1
        assert details["sweeps_run"] == 1
        assert len(details["per_sweep"]) == 1
        sweep = details["per_sweep"][0]
        assert sweep["offset"] == 0
        assert sweep["windows"] == details["windows"]

    def test_barrier_queue_peak_is_window_count(self, network_forge):
        net = _forged(network_forge, "mig", num_gates=220)
        details = partitioned_rewrite(
            net, max_window_gates=60, workers=1, pipeline=False
        )
        assert details["commit_queue_peak"] == details["windows"]

    @pytest.mark.parametrize("pipeline", (True, False))
    def test_failed_window_task_leaks_no_pins(self, network_forge, pipeline):
        """Satellite regression: a worker failure mid-run must unwind every
        stitch-phase pin — the network stays integrity-clean (pin leaks
        are refcount mismatches) and structurally untouched."""
        net = _forged(network_forge, "mig", num_gates=220)
        net.cleanup()
        before = structural_fingerprint(net)
        serial = net._mutation_serial
        with pytest.raises(RuntimeError, match="bogus_option"):
            partitioned_rewrite(
                net,
                max_window_gates=60,
                workers=1,
                flow_kwargs={"bogus_option": 1},
                pipeline=pipeline,
            )
        net.check_integrity()
        assert structural_fingerprint(net) == before
        assert net._mutation_serial == serial

    def test_mid_stitch_failure_leaks_no_pins(self, network_forge, monkeypatch):
        """A stitch that dies after partially committing must still unwind
        to zero pins, and the half-committed network stays verifiable
        (every completed stitch is function-preserving)."""
        import repro.flows.partitioned as mod
        from repro.parallel.window import stitch_window as real_stitch

        net = _forged(network_forge, "mig", num_gates=220)
        net.cleanup()
        reference = pickle.loads(pickle.dumps(net))
        calls = []

        def exploding_stitch(parent, window, optimized, repl, stats=None):
            result = real_stitch(parent, window, optimized, repl, stats=stats)
            calls.append(window.index)
            if len(calls) == 1:
                raise RuntimeError("stitch died after committing a window")
            return result

        monkeypatch.setattr(mod, "stitch_window", exploding_stitch)
        with pytest.raises(RuntimeError, match="stitch died"):
            partitioned_rewrite(net, max_window_gates=60, workers=1)
        assert calls  # at least one window actually stitched before the raise
        net.check_integrity()
        verdict = check_equivalence(reference, net)
        assert verdict.equivalent, verdict

    def test_sweeps_validation(self, network_forge):
        net = _forged(network_forge, "mig", num_gates=60)
        with pytest.raises(ValueError):
            partitioned_rewrite(net, sweeps=0)


# --------------------------------------------------------------------- #
# Boundary-shifted multi-sweep battery
# --------------------------------------------------------------------- #
class TestMultiSweep:
    @pytest.mark.parametrize("kind", KINDS)
    def test_sweeps_bit_identical_across_worker_counts(self, network_forge, kind):
        net = _forged(network_forge, kind, num_gates=220)
        fingerprints = []
        for workers in WORKER_COUNTS:
            work = pickle.loads(pickle.dumps(net))
            details = partitioned_rewrite(
                work, max_window_gates=60, workers=workers, sweeps=2
            )
            work.check_integrity()
            assert details["sweeps_run"] >= 1
            fingerprints.append(structural_fingerprint(work))
        assert len(set(fingerprints)) == 1

    def test_sweep_boundaries_differ_between_sweeps(self, network_forge):
        net = _forged(network_forge, "mig", num_gates=220)
        net.cleanup()
        bound = 60
        decompositions = [
            partition_network(
                net,
                PartitionSpec(
                    max_window_gates=bound, offset=sweep_offset(k, bound)
                ),
            )
            for k in range(2)
        ]
        boundaries = [
            {window.gates[-1] for window in windows}
            for windows in decompositions
        ]
        assert boundaries[0] != boundaries[1]

    def test_every_sweep_window_is_certified(self, network_forge):
        net = _forged(network_forge, "mig", num_gates=220)
        details = partitioned_rewrite(
            net, max_window_gates=60, workers=1, sweeps=2
        )
        assert details["certified_windows"] == details["windows"]
        sweeps_seen = {record["sweep"] for record in details["per_window"]}
        assert sweeps_seen == set(range(details["sweeps_run"]))
        for record in details["per_window"]:
            assert record["certified"]["equivalent"] is True
            assert record["certified"]["certified"] is True

    def test_converged_sweep_leaves_mutation_serial_untouched(self, network_forge):
        """Once no sweep improves anything, a multi-sweep call must be a
        structural no-op: early exit after one sweep, zero substitutions,
        mutation serial unchanged."""
        net = _forged(network_forge, "mig", num_gates=150)
        for _ in range(10):  # drive to the sweep-0 fixpoint
            details = partitioned_rewrite(net, max_window_gates=50, workers=1)
            if details["improved_windows"] == 0:
                break
        else:
            pytest.fail("partitioned_rewrite did not converge in 10 rounds")
        net.cleanup()
        before = structural_fingerprint(net)
        serial = net._mutation_serial
        details = partitioned_rewrite(
            net, max_window_gates=50, workers=1, sweeps=3
        )
        assert details["converged"] is True
        assert details["sweeps_run"] == 1
        assert details["stitch"]["substituted"] == 0
        assert net._mutation_serial == serial
        assert structural_fingerprint(net) == before
        net.check_integrity()

    def test_multi_sweep_never_worse_than_single(self, network_forge):
        net = _forged(network_forge, "mig", num_gates=260)
        single = pickle.loads(pickle.dumps(net))
        multi = pickle.loads(pickle.dumps(net))
        partitioned_rewrite(single, max_window_gates=60, workers=1)
        details = partitioned_rewrite(
            multi, max_window_gates=60, workers=1, sweeps=3
        )
        assert multi.num_gates <= single.num_gates
        assert details["window_gain"] >= 0
        verdict = check_equivalence(net, multi)
        assert verdict.equivalent, verdict
