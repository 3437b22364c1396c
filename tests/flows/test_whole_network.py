"""Whole-network passes on the scaling families.

A large network runs the same whole-network passes as every other
network (see :mod:`repro.flows`); there is no windowed code path.  These
tests pin that contract on small instances of the three parametric
families behind the scalable presets (:mod:`repro.bench_circuits.generator`):
every pass is certified equivalent by the pipeline's verify hook, keeps
the network's bookkeeping and interface intact, and is deterministic;
the depth-safe passes never deepen a network; the MIGhty and ``resyn2``
flows certify end to end; and ``optimize_many`` over a family corpus is
bit-identical at 1 and 2 workers.
"""

import pytest

from repro.aig.aig import Aig
from repro.aig.resyn import resyn2
from repro.bench_circuits.generator import (
    gen_adder_tree,
    gen_multiplier,
    gen_random_logic,
)
from repro.core import Mig
from repro.core.reshape import reshape
from repro.flows import (
    Balance,
    DepthOpt,
    DepthRewrite,
    Eliminate,
    FunctionPass,
    MigRewrite,
    Pipeline,
    SizeOpt,
    mighty_optimize,
    optimize_many,
)
from repro.network.convert import aig_to_mig
from repro.parallel.corpus import structural_fingerprint
from repro.verify import check_equivalence

#: Small instances of each scaling family (same builders as the presets).
FAMILIES = {
    "multiplier": (gen_multiplier, {"width": 5}),
    "adder_tree": (gen_adder_tree, {"width": 4, "operands": 5}),
    "random_logic": (gen_random_logic, {"blocks": 12, "num_pis": 40}),
}

#: Every MIG pass of the engine, at the cheapest effort that exercises it.
MIG_PASSES = {
    "balance": Balance,
    "depth_opt": lambda: DepthOpt(effort=1),
    "depth_rewrite": DepthRewrite,
    "size_opt": lambda: SizeOpt(effort=1),
    "mig_rewrite": MigRewrite,
    "eliminate": Eliminate,
    "reshape": lambda: FunctionPass("reshape", reshape),
    "cleanup": lambda: FunctionPass("cleanup", lambda net: net.cleanup()),
}

#: Passes that promise never to increase depth.
DEPTH_SAFE = ("balance", "depth_opt", "depth_rewrite", "mig_rewrite")


def _build(family, network_cls=Mig):
    builder, params = FAMILIES[family]
    net = network_cls()
    net.name = family
    builder(net, **params)
    return net


#: MIG inputs of the pass tests: the preset builders' direct MIG, and the
#: AND-form MIG of the same circuit built as an AIG (where the Boolean
#: rewriter finds work on the arithmetic families too).
MIG_SOURCES = {
    "built_as_mig": _build,
    "converted_from_aig": lambda family: aig_to_mig(_build(family, Aig)),
}


def _interface(net):
    return (net.pi_names(), net.po_names())


class TestPassesOnScalingFamilies:
    @pytest.mark.parametrize("source", MIG_SOURCES)
    @pytest.mark.parametrize("pass_name", MIG_PASSES)
    @pytest.mark.parametrize("family", FAMILIES)
    def test_pass_is_certified_and_keeps_interface(self, family, pass_name, source):
        net = MIG_SOURCES[source](family)
        interface = _interface(net)
        # verify=True raises PassVerificationError unless the pass is
        # proven equivalent with a certified verdict.
        result = Pipeline([MIG_PASSES[pass_name]()], verify=True).run(net)
        assert result.pass_metrics[0].details["verify"]["certified"]
        net.check_integrity()
        assert _interface(net) == interface

    @pytest.mark.parametrize("pass_name", MIG_PASSES)
    @pytest.mark.parametrize("family", FAMILIES)
    def test_pass_is_deterministic(self, family, pass_name):
        first, second = _build(family), _build(family)
        Pipeline([MIG_PASSES[pass_name]()]).run(first)
        Pipeline([MIG_PASSES[pass_name]()]).run(second)
        assert structural_fingerprint(first) == structural_fingerprint(second)

    @pytest.mark.parametrize("pass_name", DEPTH_SAFE)
    @pytest.mark.parametrize("family", FAMILIES)
    def test_depth_safe_pass_never_deepens(self, family, pass_name):
        net = _build(family)
        depth = net.depth()
        Pipeline([MIG_PASSES[pass_name]()]).run(net)
        assert net.depth() <= depth


class TestFlowsOnScalingFamilies:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_mighty_certifies_and_never_worsens(self, family):
        original = _build(family)
        net = original.copy()
        result = mighty_optimize(net, rounds=1, verify=True)
        net.check_integrity()
        assert (result.final_depth, result.final_size) <= (
            result.initial_depth, result.initial_size,
        )
        check = check_equivalence(original, net)
        assert check.equivalent and check.certified

    @pytest.mark.parametrize("family", FAMILIES)
    def test_resyn2_certifies_and_leaves_input_untouched(self, family):
        aig = _build(family, Aig)
        fingerprint = structural_fingerprint(aig)
        optimized, _ = resyn2(aig)
        assert structural_fingerprint(aig) == fingerprint
        optimized.check_integrity()
        assert _interface(optimized) == _interface(aig)
        check = check_equivalence(aig, optimized)
        assert check.equivalent and check.certified

    @pytest.mark.parametrize("network_cls", [Mig, Aig], ids=["mig", "aig"])
    def test_optimize_many_bit_identical_across_worker_counts(self, network_cls):
        corpus = [_build(family, network_cls) for family in FAMILIES]
        before = [structural_fingerprint(n) for n in corpus]
        runs = [
            optimize_many(corpus, workers=workers, rounds=1)
            for workers in (1, 2)
        ]
        serial, pooled = (
            [structural_fingerprint(n) for n in run.networks] for run in runs
        )
        assert serial == pooled
        assert [structural_fingerprint(n) for n in corpus] == before
        for original, optimized in zip(corpus, runs[0].networks):
            assert check_equivalence(original, optimized).equivalent
