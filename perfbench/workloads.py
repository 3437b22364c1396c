"""The benchmark's four workloads: inputs, one timed pass, output checks.

Inputs come only from the ``bench_circuits`` generators and from
``random_network`` / ``mutate_network``; no optimizer pass ever builds
an input, so a change to an optimizer cannot change another workload's
inputs.  Every workload is a closed loop of one caller: the next
operation starts when the previous one returned.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

from repro.aig import Aig
from repro.bench_circuits import BENCHMARKS, benchmark_names, build_benchmark
from repro.bench_circuits.generator import gen_random_logic
from repro.core import Mig, mutate_network, random_network
from repro.flows import mighty_optimize, optimize_many
from repro.parallel.corpus import structural_fingerprint
from repro.verify import check_equivalence

#: Flow settings of every ROADMAP measurement.
FLOW = {"rounds": 1, "depth_effort": 1}

#: ``gen_random_logic`` blocks of the scale_rand MIG (15,704 gates, depth 9).
SCALE_BLOCKS = 500
#: ``gen_random_logic`` blocks of cec's seeded MIG-vs-AIG pair.
CEC_RAND_BLOCKS = 100
#: Oracle-witnessed clma mutants refuted per cec pass.
CEC_MUTANTS = 6
#: ``random_network`` MIGs per batch pass, and the pool size (= nproc).
BATCH_NETWORKS = 40
BATCH_WORKERS = 2
#: Random vectors of the uncompiled-oracle checks.
ORACLE_VECTORS = 1024

#: Reduced inputs of the self-check (``--tiny``).
TINY_TABLE1 = ("alu4", "count", "b9")


@dataclass
class Op:
    """One operation of a pass: an optimization job or one CEC verdict."""

    label: str
    output: object = None
    seconds: float = 0.0
    error: Optional[str] = None
    passes: list = field(default_factory=list)


@dataclass
class Pass:
    ops: List[Op]
    parallel: object = None  # batch: the ParallelReport of optimize_many


def clone(network):
    """A private copy with identical node ids (the parallel layer's copy)."""
    return pickle.loads(pickle.dumps(network))


def oracle_outputs(network, patterns, num_bits):
    """PO patterns from the uncompiled closure-program simulator."""
    return network.simulate_patterns_interpreted(patterns, num_bits)


def random_patterns(num_pis: int, num_bits: int, seed: int) -> List[int]:
    rng = random.Random(seed)
    return [rng.getrandbits(num_bits) for _ in range(num_pis)]


def _optimize_each(work) -> Pass:
    ops = []
    for net in work:
        start = time.perf_counter()
        try:
            result = mighty_optimize(net, **FLOW)
            ops.append(Op(net.name, net, time.perf_counter() - start, passes=result.pass_metrics))
        except Exception as exc:  # a failed job is counted, not fatal
            ops.append(Op(net.name, None, time.perf_counter() - start, repr(exc)))
    return Pass(ops)


def _io_error(source, output) -> Optional[str]:
    if output is None:
        return "no output"
    if (source.num_pis, source.num_pos) != (output.num_pis, output.num_pos):
        return f"PI/PO count changed: {source.num_pis}/{source.num_pos} -> {output.num_pis}/{output.num_pos}"
    return None


def _certify(source, output, seed: int) -> Optional[str]:
    """None when ``output`` is proved equivalent to ``source``."""
    error = _io_error(source, output)
    if error:
        return error
    verdict = check_equivalence(source, output, seed=seed)
    if not verdict.equivalent:
        return f"not equivalent ({verdict.method}, PO {verdict.failing_output})"
    if not verdict.certified:
        return f"equivalence not certified ({verdict.method})"
    return None


class Workload:
    name = ""

    def make_inputs(self, seed: int, tiny: bool):
        raise NotImplementedError

    def prepare(self, inputs):
        """Untimed per-pass preparation (fresh copies for in-place flows)."""
        return inputs

    def run(self, work) -> Pass:
        raise NotImplementedError

    def check(self, inputs, result: Pass, seed: int, state: Path) -> List[Optional[str]]:
        """One error (or None) per op: each output certified against its input."""
        return [op.error or _certify(src, op.output, seed) for src, op in zip(inputs, result.ops)]

    def quality(self, inputs, result: Pass):
        """``(size_out, depth_out)`` of a pass."""
        outputs = [op.output for op in result.ops if op.output is not None]
        return sum(n.num_gates for n in outputs), sum(n.depth() for n in outputs)


class Table1(Workload):
    """Serial ``mighty_optimize`` over the 14 Table I MIGs (fixed inputs)."""

    name = "table1"

    def make_inputs(self, seed, tiny):
        return [build_benchmark(n, Mig) for n in (TINY_TABLE1 if tiny else benchmark_names())]

    def prepare(self, inputs):
        return [clone(n) for n in inputs]

    def run(self, work):
        return _optimize_each(work)


class ScaleRand(Workload):
    """Whole-network ``mighty_optimize`` of one wide, shallow random MIG.

    The input is fixed (generator seed 7), so its optimized output is
    the same on every run of one commit; the slow certified proof runs
    once per distinct (input, output) pair and is remembered under the
    benchmark's state directory, while every run re-checks the output
    against the input on random vectors through the uncompiled oracle.
    """

    name = "scale_rand"

    def make_inputs(self, seed, tiny):
        net = Mig()
        net.name = "scale_rand"
        gen_random_logic(net, blocks=40 if tiny else SCALE_BLOCKS)
        return [net]

    def prepare(self, inputs):
        return [clone(n) for n in inputs]

    def run(self, work):
        return _optimize_each(work)

    def check(self, inputs, result, seed, state):
        errors = []
        for src, op in zip(inputs, result.ops):
            error = op.error or _io_error(src, op.output)
            if error is None:
                patterns = random_patterns(src.num_pis, ORACLE_VECTORS, seed)
                if oracle_outputs(src, patterns, ORACLE_VECTORS) != oracle_outputs(
                    op.output, patterns, ORACLE_VECTORS
                ):
                    error = "random simulation mismatch"
            if error is None:
                error = self._proved(src, op.output, seed, state)
            errors.append(error)
        return errors

    @staticmethod
    def _proved(src, output, seed, state: Path) -> Optional[str]:
        key = hashlib.sha256(
            (structural_fingerprint(src) + structural_fingerprint(output)).encode()
        ).hexdigest()
        record = state / "proofs" / f"{key}.json"
        if record.is_file():
            return None
        start = time.perf_counter()
        error = _certify(src, output, seed)
        if error is None:
            record.parent.mkdir(parents=True, exist_ok=True)
            record.write_text(json.dumps({"proved": True, "seconds": time.perf_counter() - start}))
        return error


class Cec(Workload):
    """Certified ``check_equivalence`` with no optimizer in the loop.

    Known answers come from construction: MIG and AIG builds of one
    generator are equivalent, and a mutant counts as inequivalent only
    when the uncompiled oracle simulator separates it from its base.
    """

    name = "cec"

    def make_inputs(self, seed, tiny):
        cases = []
        wide = [s.name for s in BENCHMARKS.values() if s.num_inputs > 16]
        for name in (wide[:2] if tiny else wide):
            cases.append((name, build_benchmark(name, Mig), build_benchmark(name, Aig), True))
        pair = []
        for cls in (Mig, Aig):
            net = cls()
            net.name = f"rand_{seed}"
            gen_random_logic(net, blocks=10 if tiny else CEC_RAND_BLOCKS, seed=seed)
            pair.append(net)
        cases.append((pair[0].name, pair[0], pair[1], True))
        base = build_benchmark("clma", Mig)
        rng = random.Random(seed)
        patterns = random_patterns(base.num_pis, 256, seed)
        reference = oracle_outputs(base, patterns, 256)
        mutants = 0
        while mutants < (2 if tiny else CEC_MUTANTS):
            mutant_seed = rng.randrange(1 << 30)
            mutant, _ = mutate_network(base, seed=mutant_seed)
            if oracle_outputs(mutant, patterns, 256) == reference:
                continue  # the oracle cannot separate it: redraw
            cases.append((f"clma~{mutant_seed}", base, mutant, False))
            mutants += 1
        return cases

    def prepare(self, inputs):
        """Fresh copies, so no pass inherits simulation kernels or
        encodings cached on the networks by an earlier one."""
        copies = {}

        def fresh(net):
            if id(net) not in copies:
                copies[id(net)] = clone(net)
            return copies[id(net)]

        return [(label, fresh(a), fresh(b), expected) for label, a, b, expected in inputs]

    def run(self, work):
        ops = []
        for label, first, second, expected in work:
            start = time.perf_counter()
            try:
                verdict = check_equivalence(
                    first, second, method="auto" if expected else "sat-sweep"
                )
                ops.append(Op(label, verdict, time.perf_counter() - start))
            except Exception as exc:
                ops.append(Op(label, None, time.perf_counter() - start, repr(exc)))
        return Pass(ops)

    def check(self, inputs, result, seed, state):
        errors = []
        for (label, first, second, expected), op in zip(inputs, result.ops):
            verdict = op.output
            if op.error:
                errors.append(op.error)
            elif verdict.equivalent != expected:
                errors.append(f"verdict {verdict.equivalent}, expected {expected}")
            elif not verdict.certified:
                errors.append(f"uncertified verdict ({verdict.method})")
            elif not expected and not self._replays(first, second, verdict):
                errors.append("counterexample does not replay on the oracle")
            else:
                errors.append(None)
        return errors

    @staticmethod
    def _replays(first, second, verdict) -> bool:
        vector = [1 if bit else 0 for bit in verdict.counterexample]
        index = verdict.failing_output
        return oracle_outputs(first, vector, 1)[index] != oracle_outputs(second, vector, 1)[index]

    def quality(self, inputs, result):
        """Summed size and depth of both sides of every check."""
        nets = [n for _, a, b, _ in inputs for n in (a, b)]
        return sum(n.num_gates for n in nets), sum(n.depth() for n in nets)


class Batch(Workload):
    """``optimize_many`` over random MIGs on a two-process pool.

    The corpus is fixed (``random_network`` seeds 0..N-1), so its summed
    size and depth are known answers; the workload seed only sets the
    order in which the networks are submitted.
    """

    name = "batch"

    def make_inputs(self, seed, tiny):
        corpus = [
            random_network(Mig, num_pis=24, num_gates=400, num_pos=8, gate_mix="mixed", seed=i)
            for i in range(4 if tiny else BATCH_NETWORKS)
        ]
        random.Random(seed).shuffle(corpus)
        return corpus

    def run(self, work):
        try:
            report = optimize_many(work, workers=BATCH_WORKERS, **FLOW)
        except Exception as exc:
            return Pass([Op(n.name, None, 0.0, repr(exc)) for n in work])
        ops = [Op(i.name, i.network, i.runtime_s, passes=i.pass_metrics) for i in report.items]
        return Pass(ops, report.execution)


WORKLOADS = {w.name: w for w in (Table1(), ScaleRand(), Cec(), Batch())}


def fingerprint(op: Op) -> str:
    """Structural fingerprint of an op's output (a verdict for cec)."""
    output = op.output
    if output is None:
        return "error"
    if hasattr(output, "num_pis"):
        return structural_fingerprint(output)
    payload = repr((output.equivalent, output.certified, output.method, output.failing_output))
    return hashlib.sha256(payload.encode()).hexdigest()
