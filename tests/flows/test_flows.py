"""Integration tests for the experiment flows (MIGhty, baselines, synthesis)."""

import json
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from repro.bench_circuits import build_benchmark
from repro.core import Mig
from repro.flows import (
    format_table1,
    mighty_optimize,
    run_table1,
    summarize_table1,
    table1_row,
)
from repro.flows.batch import resolve_flow, run_flow
from repro.mapping import map_aig, map_mig
from repro.parallel.corpus import structural_fingerprint, structural_row
from repro.verify import check_equivalence

REPORT = Path(__file__).resolve().parents[2] / "BENCH_table1.json"

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


class TestTable1:
    def test_row_measures_and_maps_every_flow(self):
        row = table1_row("alu4", rounds=1)
        assert row.mig.size > 0 and row.aig.size > 0
        assert row.bdd is not None and row.bdd_network is not None
        assert row.mig.depth <= row.bdd.depth
        assert (row.mig.size, row.mig.depth) == (
            row.mig_network.num_gates, row.mig_network.depth(),
        )
        for metrics in (row.mig_mapped, row.aig_mapped, row.cst_mapped):
            assert metrics.area_um2 > 0
            assert metrics.delay_ns > 0
            assert metrics.power_uw > 0

    def test_bdd_skipped_on_very_wide_networks(self):
        row = table1_row("s38417", rounds=1)
        assert row.bdd is None and row.bdd_network is None
        assert row.as_dict()["bdd_fingerprint"] is None

    def test_summary_and_table_formatting(self):
        rows = run_table1(SMALL, rounds=1)
        summary = summarize_table1(rows)
        assert summary.avg_depth["MIG"] > 0
        assert summary.avg_delay["MIG"] > 0
        assert set(summary.avg_depth) == {"MIG", "AIG", "BDD"}
        assert set(summary.avg_delay) == {"MIG", "AIG", "CST"}
        table = format_table1(rows)
        assert table.count("Average") == 2
        assert "MIG depth vs AIG" in table and "MIG vs best counterpart" in table

    def test_mig_flow_wins_delay_on_adder(self):
        row = table1_row("my_adder", rounds=1)
        # The paper's flagship datapath result: the MIG flow yields the
        # fastest mapped netlist on the adder benchmark.
        assert row.mig_mapped.delay_ns <= row.aig_mapped.delay_ns
        assert row.mig_mapped.delay_ns <= row.cst_mapped.delay_ns

    @pytest.mark.parametrize("name", ["my_adder", "b9"])
    def test_row_matches_committed_report(self, name):
        """A rebuilt row equals its committed ``BENCH_table1.json`` row,
        and its synthesis half is the mapping of its own networks."""
        committed = {
            row["name"]: row for row in json.loads(REPORT.read_text())["rows"]
        }
        row = table1_row(name, rounds=1)
        assert structural_row(row.as_dict()) == committed[name]
        for mapped, network, map_fn in (
            (row.mig_mapped, row.mig_network, map_mig),
            (row.aig_mapped, row.aig_network, map_aig),
        ):
            netlist = map_fn(network)
            assert asdict(mapped) == {
                "area_um2": netlist.area(),
                "delay_ns": netlist.delay(),
                "power_uw": netlist.power(),
                "num_cells": netlist.num_cells,
            }

    def test_summary_averages_bdd_only_where_it_ran(self):
        row = table1_row("alu4", rounds=1)
        wide = replace(row, name="no_bdd", bdd=None, bdd_network=None)
        summary = summarize_table1([row, wide])
        assert summary.avg_size["MIG"] == row.mig.size
        assert summary.avg_depth["BDD"] == row.bdd.depth
        assert summary.depth_improvement_vs_bdd == pytest.approx(
            100.0 * (row.bdd.depth - row.mig.depth) / row.bdd.depth
        )
        best_delay = min(row.aig_mapped.delay_ns, row.cst_mapped.delay_ns)
        assert summary.delay_improvement == pytest.approx(
            100.0 * (best_delay - row.mig_mapped.delay_ns) / best_delay
        )

    def test_committed_report_is_self_consistent(self):
        """The committed summary, headline and figure points are the
        averages and totals of the committed rows."""
        report = json.loads(REPORT.read_text())
        rows, summary = report["rows"], report["summary"]
        for flow, half, fields in (
            ("mig", "MIG", ("size", "depth", "activity")),
            ("aig", "AIG", ("size", "depth", "activity")),
            ("bdd", "BDD", ("size", "depth", "activity")),
            ("mig_mapped", "MIG", ("area_um2", "delay_ns", "power_uw")),
            ("aig_mapped", "AIG", ("area_um2", "delay_ns", "power_uw")),
            ("cst_mapped", "CST", ("area_um2", "delay_ns", "power_uw")),
        ):
            measured = [row[flow] for row in rows if row[flow] is not None]
            for field in fields:
                key = "avg_" + field.split("_")[0]
                values = [m[field] for m in measured]
                assert summary[key][half] == sum(values) / len(values)
        for half in ("MIG", "AIG", "BDD"):
            assert report["fig3_size_depth_activity"][half] == [
                summary[key][half] for key in ("avg_size", "avg_depth", "avg_activity")
            ]
        for half in ("MIG", "AIG", "CST"):
            assert report["fig4_area_delay_power"][half] == [
                summary[key][half] for key in ("avg_area", "avg_delay", "avg_power")
            ]
        headline = report["headline"]
        assert headline["mig_size"] == sum(row["mig"]["size"] for row in rows)
        assert headline["aig_depth"] == sum(row["aig"]["depth"] for row in rows)
        assert headline["percent"]["depth_vs_aig"]["measured"] == (
            -summary["depth_improvement_vs_aig"]
        )
        assert report["ablation_library"]["with_maj_cells"]["avg_area_um2"] == (
            summary["avg_area"]["MIG"]
        )
