#!/usr/bin/env python3
"""Compose a custom optimization flow on the pass-manager engine.

The MIGhty flow shipped in :mod:`repro.flows.mighty` is just one pipeline;
the engine lets you assemble your own from the same building blocks:

1. declare a pipeline from named passes (``Balance``, ``DepthOpt``,
   ``SizeOpt``, ``Eliminate``, ``Repeat`` for effort rounds, or your own
   ``Pass`` subclass / ``FunctionPass``),
2. run it on a network — it returns a ``FlowResult`` whose
   ``pass_metrics`` measure every pass (size / depth / runtime),
3. print or serialise the per-pass metrics trace.

Run with ``python examples/custom_flow.py``.
"""

from repro.bench_circuits import build_benchmark
from repro.core import Mig
from repro.flows import (
    Balance,
    DepthOpt,
    Eliminate,
    FunctionPass,
    MigRewrite,
    Pipeline,
    Repeat,
    SizeOpt,
    format_pass_metrics,
    pass_metrics_to_json,
)
from repro.verify import check_equivalence


def main() -> None:
    mig = build_benchmark("my_adder", Mig)
    reference = build_benchmark("my_adder", Mig)
    print(f"initial network : {mig.num_gates} majority nodes, depth {mig.depth()}")

    # A delay-first flow with a custom probe pass in the middle: two
    # balance-framed depth rounds, then an area phase that interleaves the
    # algebraic size recovery with Boolean cut rewriting (NPN-database
    # matching over 4-feasible cuts — depth-safe, so it composes with the
    # delay rounds without undoing them).
    def probe(net):
        return {"critical_gates": len(net.critical_nodes())}

    flow = Pipeline(
        [
            Balance(),
            Repeat([DepthOpt(effort=2), Balance()], rounds=2, name="delay_rounds"),
            FunctionPass("probe", probe),
            Repeat(
                [SizeOpt(effort=1), MigRewrite(), Eliminate()],
                rounds=1,
                name="area_rounds",
            ),
        ],
        name="custom_delay_flow",
    )

    result = flow.run(mig)
    print(
        f"optimized       : {result.final_size} majority nodes, "
        f"depth {result.final_depth} (was {result.initial_size} / "
        f"{result.initial_depth}) in {result.runtime_s:.2f}s"
    )

    # 3a. Human-readable per-pass trace.
    print()
    print(format_pass_metrics(result.pass_metrics, title=f"{flow.name} on my_adder"))

    # 3b. Machine-readable trace (what the benchmark harness persists).
    print()
    print("first two JSON records:")
    print(pass_metrics_to_json(result.pass_metrics[:2], flow=flow.name, indent=2))

    # The engine never changes what a flow computes — only how it is run.
    outcome = check_equivalence(mig, reference, num_random_vectors=1024)
    print()
    print(f"equivalent to reference: {outcome.equivalent}")


if __name__ == "__main__":
    main()
