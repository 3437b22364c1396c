"""Determinism and unit tests of the process-parallel execution layer.

The contract under test (see :mod:`repro.parallel`): sharded execution
is **bit-identical to serial** at any worker count — same node ids,
fanins, primary outputs, sizes, depths and verdicts — so parallelism is
a pure wall-clock property.  Worker counts 1, 2 and 4 are exercised
explicitly (1 is the in-process fallback, 2 and 4 real pools).
"""

import functools
import pickle

import pytest

from repro.core import Mig
from repro.flows import format_batch_report, mighty_optimize, optimize_many
from repro.parallel import default_workers, parallel_map, plan_shards
from repro.parallel.corpus import (
    optimization_row,
    structural_fingerprint,
    structural_row,
)

WORKER_COUNTS = (1, 2, 4)


def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError("three is right out")
    return x


def _append_marker(item):
    """Mutate the task's item; the caller's object must not see it."""
    item.append("touched")
    return len(item)


_CALLS = []


def _record_call(x):
    _CALLS.append(x)
    return _fail_on_three(x)


def _noop_warmup():
    """Cheap warm-up for executor unit tests (skips the NPN preload)."""


def _sweep_verdict(pair):
    """Run ``sat_sweep`` on one network pair; keep only the verdict."""
    from repro.verify.sweep import sat_sweep

    outcome = sat_sweep(*pair)
    return (outcome.status, outcome.failing_output, outcome.counterexample)


def _nested_map(x):
    """A task that itself calls parallel_map (nested-pool guard test)."""
    report = parallel_map(
        _square, [x, x + 1], workers=4, warmup=_noop_warmup
    )
    return (report.parallel, report.results)


# --------------------------------------------------------------------- #
# Shard planner / executor
# --------------------------------------------------------------------- #
class TestPlanner:
    def test_covers_every_index_exactly_once(self):
        for n in (1, 2, 7, 16):
            for workers in (1, 2, 4):
                plan = plan_shards(n, workers=workers)
                flat = [i for shard in plan for i in shard]
                assert sorted(flat) == list(range(n))

    def test_plan_is_deterministic(self):
        assert plan_shards(13, workers=3) == plan_shards(13, workers=3)
        costs = [5.0, 1.0, 9.0, 2.0]
        assert plan_shards(4, 2, costs=costs) == plan_shards(4, 2, costs=costs)

    def test_costs_give_longest_first_order(self):
        plan = plan_shards(4, workers=2, costs=[5.0, 1.0, 9.0, 2.0])
        assert plan[0] == [2]  # the 9.0-cost item is submitted first
        assert [i for shard in plan for i in shard] == [2, 0, 3, 1]

    def test_cost_ties_break_by_index(self):
        plan = plan_shards(3, workers=2, costs=[1.0, 1.0, 1.0])
        assert [i for shard in plan for i in shard] == [0, 1, 2]

    def test_empty_and_mismatched_costs(self):
        assert plan_shards(0) == []
        with pytest.raises(ValueError):
            plan_shards(3, costs=[1.0])


class TestParallelMap:
    def test_results_in_input_order_at_every_worker_count(self):
        items = list(range(11))
        expected = [x * x for x in items]
        for workers in WORKER_COUNTS:
            report = parallel_map(
                _square, items, workers=workers, warmup=_noop_warmup
            )
            assert report.results == expected
            assert report.parallel == (workers > 1)
            assert [t.index for t in report.tasks] == items

    def test_costs_do_not_change_results(self):
        items = list(range(8))
        report = parallel_map(
            _square,
            items,
            workers=2,
            costs=[8, 7, 6, 5, 4, 3, 2, 1][::-1],
            warmup=_noop_warmup,
        )
        assert report.results == [x * x for x in items]

    def test_exceptions_propagate_with_label(self):
        for workers in (1, 2):
            with pytest.raises(RuntimeError, match="bad3"):
                parallel_map(
                    _fail_on_three,
                    [1, 2, 3, 4],
                    workers=workers,
                    labels=["bad1", "bad2", "bad3", "bad4"],
                    warmup=_noop_warmup,
                )

    def test_task_records_carry_runtimes(self):
        report = parallel_map(_square, [1, 2, 3], workers=2, warmup=_noop_warmup)
        assert len(report.tasks) == 3
        assert all(t.runtime_s >= 0 for t in report.tasks)
        assert report.busy_s >= 0
        assert report.as_dict()["workers"] == 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_task_failure_names_item_and_cause(self, workers):
        # Default labels are task<index>; the task's own message survives
        # the trip back from a pool worker.
        with pytest.raises(
            RuntimeError, match=r"'task2' \(item 2\) failed: three is right out"
        ):
            parallel_map(
                _fail_on_three, [1, 2, 3], workers=workers, warmup=_noop_warmup
            )

    def test_serial_failure_stops_at_failing_item(self):
        _CALLS.clear()
        with pytest.raises(RuntimeError):
            parallel_map(
                _record_call, [1, 3, 5, 7], workers=1, warmup=_noop_warmup
            )
        assert _CALLS == [1, 3]

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="expected 2 labels"):
            parallel_map(
                _square, [1, 2], labels=["only"], warmup=_noop_warmup
            )

    def test_empty_items(self):
        report = parallel_map(_square, [], workers=2, warmup=_noop_warmup)
        assert report.results == [] and report.tasks == []
        assert report.num_shards == 0 and not report.parallel

    @pytest.mark.parametrize("workers", [1, 2])
    def test_tasks_receive_private_copies(self, workers):
        items = [[1], [2, 3]]
        report = parallel_map(
            _append_marker, items, workers=workers, warmup=_noop_warmup
        )
        assert report.results == [2, 3]
        assert items == [[1], [2, 3]]

    def test_default_workers_positive(self):
        assert default_workers() >= 1

    def test_no_nested_pools_inside_workers(self):
        # A task calling parallel_map from inside a pool worker must fall
        # back to the in-process path (and still compute correctly)
        # instead of spawning workers**2 processes.
        report = parallel_map(
            _nested_map, [10, 20], workers=2, warmup=_noop_warmup
        )
        assert report.parallel  # the outer map did use a pool
        assert report.results == [
            (False, [100, 121]),
            (False, [400, 441]),
        ]


# --------------------------------------------------------------------- #
# optimize_many: bit-identical across worker counts, totals consistent
# --------------------------------------------------------------------- #
def _corpus(network_forge):
    nets = [
        network_forge(kind="mig", gate_mix="mixed", num_pis=7, num_gates=45,
                      num_pos=3, seed=seed)
        for seed in (11, 12, 13)
    ]
    nets.append(
        network_forge(kind="aig", gate_mix="mixed", num_pis=7, num_gates=45,
                      num_pos=3, seed=14)
    )
    return nets


class TestOptimizeMany:
    def test_bit_identical_across_worker_counts(self, network_forge):
        corpus = _corpus(network_forge)
        before = [structural_fingerprint(n) for n in corpus]
        runs = {
            workers: optimize_many(corpus, workers=workers, rounds=1)
            for workers in WORKER_COUNTS
        }
        baseline = [structural_fingerprint(n) for n in runs[1].networks]
        for workers, report in runs.items():
            assert [
                structural_fingerprint(n) for n in report.networks
            ] == baseline, f"workers={workers} diverged"
        # The input corpus was never mutated, even by the in-process run.
        assert [structural_fingerprint(n) for n in corpus] == before

    def test_matches_in_place_serial_runs(self, network_forge):
        corpus = _corpus(network_forge)[:3]  # the MIG items
        report = optimize_many(corpus, workers=2, rounds=1)
        for net, item in zip(corpus, report.items):
            reference = pickle.loads(pickle.dumps(net))
            result = mighty_optimize(reference, rounds=1)
            assert structural_fingerprint(reference) == structural_fingerprint(
                item.network
            )
            assert (result.final_size, result.final_depth) == (
                item.final_size, item.final_depth,
            )

    def test_metric_aggregation_totals_match_per_network_runs(self, network_forge):
        corpus = _corpus(network_forge)[:3]
        report = optimize_many(corpus, workers=2, rounds=1)
        expected_results = [
            mighty_optimize(pickle.loads(pickle.dumps(net)), rounds=1)
            for net in corpus
        ]
        totals = report.totals()
        assert totals["networks"] == len(corpus)
        assert totals["initial_size"] == sum(r.initial_size for r in expected_results)
        assert totals["final_size"] == sum(r.final_size for r in expected_results)
        assert totals["initial_depth"] == sum(r.initial_depth for r in expected_results)
        assert totals["final_depth"] == sum(r.final_depth for r in expected_results)
        # The merged per-pass trace aggregates exactly the per-network
        # traces, composite records left out.
        merged = {m["pass"]: m for m in report.merged_pass_metrics()}
        expected_runs: dict = {}
        expected_size_delta: dict = {}
        for result in expected_results:
            for m in result.pass_metrics:
                if m.composite:
                    continue
                expected_runs[m.name] = expected_runs.get(m.name, 0) + 1
                expected_size_delta[m.name] = (
                    expected_size_delta.get(m.name, 0) + m.size_delta
                )
        assert {name: m["runs"] for name, m in merged.items()} == expected_runs
        assert {
            name: m["size_delta"] for name, m in merged.items()
        } == expected_size_delta

    def test_merged_rows_add_up_to_corpus_change(self, network_forge):
        """Regression: the composite ``mighty_round`` record was merged on
        top of its inner passes, so the rows counted every round twice."""
        report = optimize_many(_corpus(network_forge), workers=1, rounds=1)
        totals = report.totals()
        rows = report.merged_pass_metrics()
        assert "mighty_round" not in [row["pass"] for row in rows]
        assert sum(row["size_delta"] for row in rows) == (
            totals["final_size"] - totals["initial_size"]
        )
        assert sum(row["depth_delta"] for row in rows) == (
            totals["final_depth"] - totals["initial_depth"]
        )
        assert "mighty_round" not in format_batch_report(report)

    def test_rejects_unknown_flow(self, network_forge):
        with pytest.raises(ValueError):
            optimize_many([network_forge()], flow="no-such-flow")
        with pytest.raises(ValueError):
            optimize_many(
                [network_forge(kind="aig")], flow="resyn2", rounds=2
            )


# --------------------------------------------------------------------- #
# Parallel NPN structure-database derivation
# --------------------------------------------------------------------- #
class TestParallelNpnDerivation:
    def test_structurally_equal_to_serial(self):
        from repro.network import npn

        serial, serial_stats = npn.derive_structures_parallel(workers=1)
        sharded, stats = npn.derive_structures_parallel(workers=2)
        assert stats["classes"] == 222
        assert stats["kinds"] == ["mig", "aig"]
        assert len(serial) == 2 * 222
        assert stats["entries"] == serial_stats["entries"]
        assert sharded == serial


# --------------------------------------------------------------------- #
# Sharded Table I rows
# --------------------------------------------------------------------- #
class TestCorpusRows:
    @pytest.mark.parametrize("workers", (1, 2))
    def test_optimization_rows_identical_serial_vs_sharded(self, workers):
        names = ["b9", "alu4"]
        kwargs = {"rounds": 1}
        serial = [optimization_row(name, **kwargs) for name in names]
        sharded = parallel_map(
            functools.partial(optimization_row, **kwargs),
            names,
            workers=workers,
            labels=names,
        )
        assert sharded.parallel == (workers > 1)
        assert [structural_row(r) for r in serial] == [
            structural_row(r) for r in sharded.results
        ]


# --------------------------------------------------------------------- #
# sat_sweep inside pool workers (verify/sweep.py)
# --------------------------------------------------------------------- #
class TestSweepInPoolWorkers:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_verdicts_equal_in_process_sweep(self, network_forge, mutant_forge, workers):
        """The final per-output scan runs on the sweeper's own solver, so
        a sweep sharded into pool workers returns the in-process verdicts
        and counterexamples."""
        base = network_forge(kind="mig", gate_mix="mixed", num_pis=17,
                             num_gates=120, num_pos=8, seed=21)
        optimized = pickle.loads(pickle.dumps(base))
        mighty_optimize(optimized, rounds=1)
        mutant, _ = mutant_forge(base, seed=5)
        pairs = [(base, optimized), (base, mutant)]

        serial = [_sweep_verdict(pair) for pair in pairs]
        report = parallel_map(
            _sweep_verdict, pairs, workers=workers, warmup=_noop_warmup
        )
        assert report.parallel == (workers > 1)
        assert report.results == serial
        assert serial[0][0] == "equivalent"
        for (first, second), (status, index, counterexample) in zip(pairs, serial):
            if counterexample is not None:
                assert status == "inequivalent"
                assert first.simulate(counterexample)[index] != (
                    second.simulate(counterexample)[index]
                )
