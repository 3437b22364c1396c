"""Tests for the pass-manager flow engine."""

import json

import pytest

from repro.bench_circuits import build_benchmark
from repro.core.depth_opt import push_up
from repro.core.mig import Mig
from repro.core.reshape import reshape
from repro.core.rules import PUSH_UP_RULES, RESHAPE_RULES, rule_counts
from repro.core.signal import negate
from repro.flows import (
    Balance,
    Cleanup,
    DepthOpt,
    Eliminate,
    FunctionPass,
    PassMetrics,
    PassVerificationError,
    Pipeline,
    Repeat,
    Reshape,
    SizeOpt,
    format_pass_metrics,
    mighty_optimize,
    mighty_pipeline,
    pass_metrics_to_json,
)
from repro.verify import check_equivalence


def small_mig(name="alu4"):
    return build_benchmark(name, Mig)


class TestPipeline:
    def test_passes_run_in_order_with_metrics(self):
        mig = small_mig()
        result = Pipeline([Balance(), Eliminate(), Cleanup()], name="demo").run(mig)
        assert result.name == "demo"
        assert result.pass_names() == ["balance", "eliminate", "cleanup"]
        # Balance accepts only (depth, size)-lexicographic improvements and
        # the other passes never deepen, so depth is monotone here.
        assert result.final_depth <= result.initial_depth
        for metrics in result.passes:
            assert metrics.runtime_s >= 0.0
            assert metrics.size_after >= 0
        # Metrics chain: each pass starts where the previous one ended.
        for prev, cur in zip(result.passes, result.passes[1:]):
            assert cur.size_before == prev.size_after
            assert cur.depth_before == prev.depth_after

    def test_pipeline_preserves_function(self):
        mig = small_mig()
        reference = small_mig()
        Pipeline([Balance(), DepthOpt(effort=1), SizeOpt(effort=1), Eliminate()]).run(mig)
        assert check_equivalence(mig, reference, num_random_vectors=512).equivalent

    def test_function_pass(self):
        mig = small_mig()
        seen = []
        result = Pipeline(
            [FunctionPass("probe", lambda net: seen.append(net.num_gates))]
        ).run(mig)
        assert seen == [mig.num_gates]
        assert result.pass_names() == ["probe"]

    def test_measure_activity_opt_in(self):
        mig = small_mig("count")
        result = Pipeline([Eliminate()], measure_activity=True).run(mig)
        assert result.passes[0].activity_before is not None
        assert result.passes[0].activity_after is not None
        # Without the flag the engine skips the (expensive) measurement.
        result = Pipeline([Eliminate()]).run(small_mig("count"))
        assert result.passes[0].activity_before is None


class TestRepeat:
    def test_repeat_stops_when_no_improvement(self):
        mig = small_mig()
        result = Pipeline(
            [Repeat([Eliminate()], rounds=10, name="rounds")]
        ).run(mig)
        summary = result.passes[-1]
        assert summary.name == "rounds"
        # Elimination converges long before ten rounds.
        assert summary.details["rounds"] < 10

    def test_repeat_metrics_are_flattened(self):
        mig = small_mig()
        result = Pipeline([Repeat([Eliminate(), Cleanup()], rounds=1)]).run(mig)
        names = result.pass_names()
        assert names[:2] == ["eliminate", "cleanup"]
        assert names[-1] == "repeat"


class TestVerifyHook:
    def test_passes_self_certify(self):
        mig = small_mig()
        result = Pipeline(
            [Balance(), Eliminate()], name="certified", verify=True
        ).run(mig)
        for metrics in result.passes:
            verdict = metrics.details["verify"]
            assert verdict["equivalent"] is True
            assert verdict["method"] in ("exhaustive", "sat-sweep")

    def test_broken_pass_raises(self):
        def corrupt(net):
            net.set_po(0, negate(net.po_signals()[0]))

        mig = small_mig()
        with pytest.raises(PassVerificationError) as excinfo:
            Pipeline([FunctionPass("corrupt", corrupt)], verify=True).run(mig)
        assert excinfo.value.pass_name == "corrupt"
        assert excinfo.value.result.counterexample is not None

    def test_custom_verifier_callable(self):
        calls = []

        def checker(reference, network):
            calls.append((reference.num_gates, network.num_gates))
            return check_equivalence(reference, network, method="exhaustive")

        mig = small_mig()
        result = Pipeline([Eliminate()], verify=checker).run(mig)
        assert len(calls) == 1
        assert result.passes[0].details["verify"]["method"] == "exhaustive"

    def test_uncertified_verifier_verdict_is_rejected(self):
        """A verifier that can only say "random simulation found nothing"
        has not certified the pass — the pipeline must refuse to continue,
        exactly like a proven mismatch."""

        def checker(reference, network):
            return check_equivalence(reference, network, method="random")

        mig = small_mig()
        with pytest.raises(PassVerificationError) as excinfo:
            Pipeline([Eliminate()], verify=checker).run(mig)
        assert "NOT be certified" in str(excinfo.value)
        assert excinfo.value.result.equivalent is True

    def test_composite_passes_are_verified_as_a_unit(self):
        mig = small_mig()
        result = Pipeline(
            [Repeat([Eliminate()], rounds=2, name="rounds")], verify=True
        ).run(mig)
        summary = result.passes[-1]
        assert summary.name == "rounds"
        assert summary.details["verify"]["equivalent"] is True
        # Inner passes of the composite carry no verdict of their own.
        assert all("verify" not in m.details for m in result.passes[:-1])

    def test_mighty_self_certifies(self):
        mig = small_mig("count")
        result = mighty_optimize(mig, rounds=1, depth_effort=1, verify=True)
        verified = [
            m.details["verify"]
            for m in result.pass_metrics
            if "verify" in m.details
        ]
        assert verified, "verify= must annotate the top-level passes"
        assert all(v["equivalent"] for v in verified)


class TestBalanceAcceptance:
    def test_tie_is_rejected(self):
        """A balanced candidate that merely ties must not replace the network."""
        mig = small_mig()
        # Balance to a fixpoint first.
        Pipeline([Balance()]).run(mig)
        result = Pipeline([Balance()]).run(mig)
        assert result.passes[0].details == {"accepted": False}

    def test_improvement_is_accepted(self):
        mig = build_benchmark("my_adder", Mig)
        result = Pipeline([Balance()]).run(mig)
        metrics = result.passes[0]
        if metrics.details["accepted"]:
            assert (metrics.depth_after, metrics.size_after) < (
                metrics.depth_before,
                metrics.size_before,
            )


class TestMightyPipeline:
    def test_mighty_is_declarative(self):
        pipeline = mighty_pipeline(rounds=1, depth_effort=1)
        assert pipeline.name == "mighty"
        assert [p.name for p in pipeline.passes] == ["balance", "mighty_round"]

    def test_mighty_reports_pass_metrics(self):
        mig = small_mig()
        result = mighty_optimize(mig, rounds=1, depth_effort=1)
        names = [m.name for m in result.pass_metrics]
        assert names[0] == "balance"
        assert "depth_opt" in names and "size_opt" in names
        assert result.final_size == mig.num_gates
        assert result.final_depth == mig.depth()


def accepted(counts, step):
    return sum(c["accepted"] for c in counts[step].values())


class TestRuleCounts:
    """Per-rule counters: the rewrite counts the passes report add up."""

    def test_pass_details_add_up(self):
        mig = small_mig("my_adder")
        result = Pipeline(
            [DepthOpt(effort=1), SizeOpt(effort=1), Eliminate(), Reshape()]
        ).run(mig)
        depth, size, elim, resh = (m.details for m in result.passes)
        assert set(depth["rules"]) == {"push_up", "reshape", "eliminate"}
        assert list(depth["rules"]["push_up"]) == list(PUSH_UP_RULES)
        assert list(depth["rules"]["reshape"]) == list(RESHAPE_RULES)
        assert accepted(depth["rules"], "push_up") == depth["push_up_rewrites"] > 0
        assert accepted(depth["rules"], "reshape") == depth["reshape_rewrites"] > 0
        assert set(size["rules"]) == {"reshape", "eliminate"}
        assert accepted(size["rules"], "reshape") == size["reshape_rewrites"]
        assert set(elim["rules"]) == {"eliminate"}
        assert accepted(resh["rules"], "reshape") == resh["rewrites"] > 0
        for details in (depth, size, elim, resh):
            for per_rule in details["rules"].values():
                for count in per_rule.values():
                    assert 0 <= count["accepted"] <= count["tried"]

    def test_blocks_nest(self):
        mig = small_mig("C1908")
        with rule_counts() as outer:
            with rule_counts() as inner:
                pushed = push_up(mig)
            reshaped = reshape(mig)
        assert (pushed, reshaped) == (980, 657)  # test_level_snapshot's golden
        assert accepted(inner, "push_up") == pushed
        assert accepted(outer, "reshape") == reshaped
        # Only the innermost block counts.
        assert "push_up" not in outer and "reshape" not in inner
        # Substitution is tried on every 16th visited node only.
        visited = outer["reshape"]["Ω.A"]["tried"]
        assert outer["reshape"]["Ψ.S"]["tried"] <= visited // 16


class TestSerialisation:
    def _trace(self):
        mig = small_mig()
        return mighty_optimize(mig, rounds=1, depth_effort=1).pass_metrics

    def test_format_pass_metrics(self):
        table = format_pass_metrics(self._trace(), title="alu4 / MIGhty")
        assert "alu4 / MIGhty" in table
        assert "depth_opt" in table and "balance" in table
        assert "rules=" not in table  # per-rule counts stay in the JSON form

    def test_pass_metrics_to_json_roundtrip(self):
        trace = self._trace()
        records = json.loads(pass_metrics_to_json(trace, flow="MIG"))
        assert len(records) == len(trace)
        assert all(r["flow"] == "MIG" for r in records)
        assert records[0]["pass"] == "balance"
        assert {"size_before", "size_after", "depth_before", "depth_after", "runtime_s"} <= set(records[0])

    def test_pass_metrics_dataclass_helpers(self):
        metrics = PassMetrics(
            name="demo",
            size_before=10,
            size_after=8,
            depth_before=4,
            depth_after=3,
            runtime_s=0.1,
        )
        assert metrics.size_delta == -2
        assert metrics.depth_delta == -1
        assert metrics.as_dict()["pass"] == "demo"
