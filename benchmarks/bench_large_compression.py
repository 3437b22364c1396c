"""E5 — the large logic-compression circuit (Section V-A.2).

The paper optimizes a 0.3M-node compression circuit: ABC produces 167k
nodes / 31 levels in 11.3 s, MIGhty 170k nodes (+1.7%) / 28 levels (−9.6%)
in 21.5 s.  This bench runs the scaled-down synthetic compression circuit
through both flows and reports the same three comparisons (relative size,
relative depth, relative runtime).
"""

import os
import time

import pytest

from repro.aig.aig import Aig
from repro.bench_circuits import build_compression_circuit
from repro.aig.resyn import resyn2
from repro.core.mig import Mig
from repro.flows import mighty_optimize


def _num_blocks() -> int:
    return int(os.environ.get("REPRO_BENCH_COMPRESSION_BLOCKS", "192"))


def test_large_compression_circuit(benchmark):
    """MIG vs AIG optimization of the compression circuit."""

    def run():
        mig = build_compression_circuit(_num_blocks(), Mig)
        aig = build_compression_circuit(_num_blocks(), Aig)

        t0 = time.perf_counter()
        optimized_aig, _ = resyn2(aig)
        aig_time = time.perf_counter() - t0

        t0 = time.perf_counter()
        mighty_optimize(mig, rounds=1)
        mig_time = time.perf_counter() - t0
        return mig, optimized_aig, mig_time, aig_time

    mig, aig, mig_time, aig_time = benchmark.pedantic(run, iterations=1, rounds=1)
    size_delta = 100.0 * (mig.num_gates - aig.num_gates) / aig.num_gates
    depth_delta = 100.0 * (mig.depth() - aig.depth()) / aig.depth()
    print()
    print("Large compression circuit (paper: MIG +1.7% size, -9.6% levels, ~2x runtime):")
    print(f"  AIG : {aig.num_gates} nodes, {aig.depth()} levels, {aig_time:.1f}s")
    print(f"  MIG : {mig.num_gates} nodes, {mig.depth()} levels, {mig_time:.1f}s")
    print(f"  MIG vs AIG: size {size_delta:+.1f}%, depth {depth_delta:+.1f}%")
    benchmark.extra_info["mig_size"] = mig.num_gates
    benchmark.extra_info["aig_size"] = aig.num_gates
    benchmark.extra_info["mig_depth"] = mig.depth()
    benchmark.extra_info["aig_depth"] = aig.depth()
    # Shape: the MIG result is at least as shallow as the AIG result.
    assert mig.depth() <= aig.depth()
