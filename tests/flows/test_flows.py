"""Integration tests for the experiment flows (MIGhty, baselines, synthesis)."""

import pytest

from repro.bench_circuits import build_benchmark
from repro.core import Mig
from repro.flows import (
    compare_optimization,
    compare_synthesis,
    format_optimization_table,
    format_synthesis_table,
    mighty_optimize,
    optimization_space_points,
    run_bdd_optimization,
    run_optimization_experiment,
    run_synthesis_experiment,
    summarize_optimization,
    summarize_synthesis,
    synthesis_space_points,
)
from repro.flows.batch import resolve_flow, run_flow
from repro.parallel.corpus import structural_fingerprint
from repro.verify import check_equivalence

SMALL = ["alu4", "my_adder", "count"]


class TestMightyFlow:
    @pytest.mark.parametrize("name", SMALL)
    def test_flow_preserves_function(self, name):
        mig = build_benchmark(name, Mig)
        reference = build_benchmark(name, Mig)
        result = mighty_optimize(mig, rounds=1)
        assert check_equivalence(mig, reference, num_random_vectors=1024).equivalent
        assert result.final_depth == mig.depth()
        assert result.final_size == mig.num_gates

    def test_flow_never_deepens(self):
        for name in SMALL:
            mig = build_benchmark(name, Mig)
            before = mig.depth()
            mighty_optimize(mig, rounds=1)
            assert mig.depth() <= before

    @pytest.mark.parametrize("name", SMALL)
    def test_boolean_rewrite_never_worse_than_algebraic(self, name):
        """mighty + cut rewriting dominates the purely algebraic flow."""
        algebraic = build_benchmark(name, Mig)
        mighty_optimize(algebraic, rounds=1, depth_effort=1, boolean_rewrite=False)
        combined = build_benchmark(name, Mig)
        reference = build_benchmark(name, Mig)
        result = mighty_optimize(combined, rounds=1, boolean_rewrite=True)
        assert check_equivalence(combined, reference, num_random_vectors=1024).equivalent
        assert combined.depth() <= algebraic.depth()
        assert combined.num_gates <= algebraic.num_gates
        assert "mig_rewrite" in [m.name for m in result.pass_metrics]


class TestFlowDispatch:
    def test_resolve_flow_picks_by_type(self, network_forge):
        mig = network_forge(kind="mig", seed=1, num_gates=10)
        aig = network_forge(kind="aig", seed=1, num_gates=10)
        assert resolve_flow(mig, "auto") == "mighty"
        assert resolve_flow(aig, "auto") == "resyn2"
        assert resolve_flow(mig, "mighty") == "mighty"
        assert resolve_flow(aig, "resyn2") == "resyn2"
        with pytest.raises(ValueError):
            resolve_flow(mig, "no-such-flow")

    def test_flow_network_mismatch_rejected_before_work(
        self, network_forge, monkeypatch
    ):
        """A flow that cannot run on the network's type fails fast with a
        ``ValueError`` naming both, before a cache key or pool exists."""
        from repro.flows import batch, result_cache

        class Netlist:  # neither a Mig nor an Aig
            name = "netlist"
            num_gates = 0

        def _no_work(*args, **kwargs):
            raise AssertionError("work started before the flow was checked")

        monkeypatch.setattr(batch, "parallel_map", _no_work)
        monkeypatch.setattr(result_cache, "result_cache_key", _no_work)
        mig = network_forge(kind="mig", seed=1, num_gates=10)
        aig = network_forge(kind="aig", seed=1, num_gates=10)
        for network, flow, kind in (
            (aig, "mighty", "Aig"),
            (mig, "resyn2", "Mig"),
            (Netlist(), "auto", "Netlist"),
        ):
            with pytest.raises(ValueError, match=f"'{flow}'.*{kind}"):
                resolve_flow(network, flow)
            with pytest.raises(ValueError, match=f"'{flow}'.*{kind}"):
                batch.optimize_many([network], workers=2, flow=flow, cache_dir="x")

    def test_run_flow_input_ownership(self, network_forge):
        """``mighty`` optimizes in place and returns its input; ``resyn2``
        leaves its input untouched."""
        mig = network_forge(kind="mig", gate_mix="mixed", seed=4, num_gates=30)
        initial = (mig.num_gates, mig.depth())
        optimized, result = run_flow(mig, "mighty", {"rounds": 1})
        assert optimized is mig and result.pass_metrics
        assert (result.initial_size, result.initial_depth) == initial
        aig = network_forge(kind="aig", gate_mix="mixed", seed=4, num_gates=30)
        fingerprint = structural_fingerprint(aig)
        optimized, result = run_flow(aig, "resyn2", {})
        assert structural_fingerprint(aig) == fingerprint
        assert (result.initial_size, result.initial_depth) == (aig.num_gates, aig.depth())
        assert (result.final_size, result.final_depth) == (
            optimized.num_gates, optimized.depth(),
        )
        assert check_equivalence(aig, optimized).equivalent
        with pytest.raises(ValueError):
            run_flow(mig, "auto", {})


class TestOptimizationExperiment:
    def test_compare_optimization_row(self):
        row = compare_optimization("alu4", rounds=1)
        assert row.mig.size > 0 and row.aig.size > 0
        assert row.bdd is not None
        assert row.mig.depth <= row.bdd.depth

    def test_bdd_flow_skips_very_wide_networks(self):
        mig = build_benchmark("s38417", Mig)
        assert run_bdd_optimization(mig) is None

    def test_summary_and_table_formatting(self):
        rows = run_optimization_experiment(SMALL, rounds=1)
        summary = summarize_optimization(rows)
        assert summary.avg_depth["MIG"] > 0
        table = format_optimization_table(rows)
        assert "Average" in table and "MIG depth vs AIG" in table
        points = optimization_space_points(rows)
        assert set(points) == {"MIG", "AIG", "BDD"}


class TestSynthesisExperiment:
    def test_compare_synthesis_row(self):
        row = compare_synthesis("alu4", rounds=1)
        for metrics in (row.mig, row.aig, row.cst):
            assert metrics.area_um2 > 0
            assert metrics.delay_ns > 0
            assert metrics.power_uw > 0

    def test_summary_and_table_formatting(self):
        rows = run_synthesis_experiment(SMALL, rounds=1)
        summary = summarize_synthesis(rows)
        assert summary.avg_delay["MIG"] > 0
        table = format_synthesis_table(rows)
        assert "Average" in table and "MIG vs best counterpart" in table
        points = synthesis_space_points(rows)
        assert set(points) == {"MIG", "AIG", "CST"}

    def test_mig_flow_wins_delay_on_adder(self):
        row = compare_synthesis("my_adder", rounds=1)
        # The paper's flagship datapath result: the MIG flow yields the
        # fastest mapped netlist on the adder benchmark.
        assert row.mig.delay_ns <= row.aig.delay_ns
        assert row.mig.delay_ns <= row.cst.delay_ns
