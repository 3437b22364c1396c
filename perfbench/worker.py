"""One fresh benchmark process: set up, run timed passes, check outputs.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src`` and ``REPRO_NPN_CACHE_DIR`` at the benchmark's own state
directory.  Prints one ``{"ready": ...}`` line as soon as set-up is
done (the parent times process start to that line) and, unless
``--setup-only``, one ``{"result": ...}`` line at the end.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

#: Passes reported under ``flows.<pass>.*``.
FLOW_PASSES = ("balance", "depth_opt", "size_opt", "mig_rewrite", "eliminate")


def peak_rss_mb(children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def setup(workload: str, seed: int, tiny: bool):
    timings = {}
    start = time.perf_counter()
    import repro  # noqa: F401
    from repro.network import npn
    from repro.parallel.executor import warm_worker

    import workloads

    timings["setup.import_s"] = time.perf_counter() - start
    start = time.perf_counter()
    npn.npn_canonical(0)
    timings["npn.canonical_map.s"] = time.perf_counter() - start
    start = time.perf_counter()
    warm_worker()
    timings["npn.structure_db.s"] = time.perf_counter() - start
    wl = workloads.WORKLOADS[workload]
    start = time.perf_counter()
    inputs = wl.make_inputs(seed, tiny)
    timings["setup.inputs_s"] = time.perf_counter() - start
    return wl, inputs, timings


def flow_metrics(result):
    """``flows.*`` rows from the PassMetrics the flows return."""
    metrics = {}
    for name in FLOW_PASSES:
        runs = [m for op in result.ops for m in op.passes if m.name == name]
        useful = [m for m in runs if m.size_delta or m.depth_delta]
        metrics[f"flows.{name}.useful_frac"] = len(useful) / len(runs) if runs else 0.0
        metrics[f"flows.{name}.zero_change_s"] = sum(
            m.runtime_s for m in runs if not (m.size_delta or m.depth_delta)
        )
    return metrics


def span_metrics(tracer, traced_wall: float, wall: float):
    totals = tracer.totals()
    counters = tracer.counters

    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    def seconds(name):
        return totals.get(name, (0, 0.0))[1]

    sat_s = seconds("verify.sat")
    cec_calls = calls("verify.cec")
    metrics = {
        "network.levels.calls": calls("network.levels"),
        "network.levels.s": seconds("network.levels"),
        "network.substitute.calls": calls("network.substitute"),
        "network.substitute.s": seconds("network.substitute"),
        "network.copy_assign.s": seconds("network.copy_assign"),
        "network.simulate.s": seconds("network.simulate"),
        "network.pickle.s": seconds("network.pickle"),
        "rewrite.s": seconds("rewrite"),
        "core.balance.s": seconds("core.balance"),
        "core.depth_opt.s": seconds("core.depth_opt"),
        "core.size_opt.s": seconds("core.size_opt"),
        "core.reshape.calls": calls("core.reshape"),
        "core.reshape.s": seconds("core.reshape"),
        "core.eliminate.s": seconds("core.eliminate"),
        "verify.cec.calls": cec_calls,
        "verify.cec.s": seconds("verify.cec"),
        "verify.cec.certified_frac": counters["verify.cec.certified"] / cec_calls if cec_calls else 0.0,
        "verify.sweep.s": seconds("verify.sweep"),
        "verify.sat.props_per_s": counters["verify.sat.propagations"] / sat_s if sat_s else 0.0,
        "verify.cnf.s": seconds("verify.cnf"),
        "codegen.compile.s": seconds("codegen.compile"),
        "codegen.sim.s": seconds("codegen.sim"),
        "trace.overhead_s": traced_wall - wall,
        "trace.overhead_frac": (traced_wall - wall) / wall if wall else 0.0,
    }
    for name in (
        "rewrite.cuts_recomputed", "rewrite.cuts_reused", "rewrite.converged_skips",
        "rewrite.accepted", "core.depth_opt.push_up", "core.depth_opt.reshape_rewrites",
        "core.size_opt.eliminations", "verify.sat.conflicts", "verify.sat.propagations",
        "network.pickle_bytes",
    ):
        metrics[name] = counters[name]
    from tracer import LAYERS, SWEEP_STATS

    for stat in SWEEP_STATS:
        metrics[f"verify.sweep.{stat}"] = counters[f"verify.sweep.{stat}"]
    layers = tracer.self_times()
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = layers.get(layer, 0.0)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--state", type=Path, required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    wl, inputs, timings = setup(args.workload, args.seed, args.tiny)
    print(json.dumps({"ready": timings}), flush=True)
    if args.setup_only:
        return 0

    from workloads import fingerprint

    # Timed passes: whole passes only, the next one started only if it
    # is expected to end within --seconds (at least one always runs).
    passes, walls = [], []
    while True:
        work = wl.prepare(inputs)
        start = time.perf_counter()
        result = wl.run(work)
        walls.append(time.perf_counter() - start)
        passes.append(result)
        if len(passes) == 1:
            # Later passes run while this one's outputs are held (and
            # forked into pool workers), so only the first is measured.
            rss = peak_rss_mb(children=result.parallel is not None)
        if sum(walls) + walls[-1] > args.seconds:
            break
    wall = statistics.median(walls)

    metrics, wrapped_calls = {}, {}
    if args.trace:
        from tracer import TARGETS, Tracer

        tracer = Tracer()
        work = wl.prepare(inputs)
        tracer.install(TARGETS)
        token = tracer.begin("bench.pass")
        start = time.perf_counter()
        try:
            traced = wl.run(work)
        finally:
            traced_wall = time.perf_counter() - start
            tracer.end(token)
            tracer.uninstall()
        passes.append(traced)
        metrics.update(span_metrics(tracer, traced_wall, wall))
        tracer.dump(args.state / f"trace-{args.workload}-{args.seed}.json")
        wrapped_calls = dict(tracer.calls)

    first = passes[0]
    start = time.perf_counter()
    errors = wl.check(inputs, first, args.seed, args.state)
    check_s = time.perf_counter() - start
    prints = [fingerprint(op) for op in first.ops]
    for later in passes[1:]:
        for index, op in enumerate(later.ops):
            if op.error:
                errors.append(op.error)
            elif fingerprint(op) != prints[index]:
                errors.append(f"{op.label}: output differs between passes")
            else:
                errors.append(None)
    size_out, depth_out = wl.quality(inputs, first)

    if args.trace:
        metrics.update(flow_metrics(first))
        if wl.name == "table1":
            for op in first.ops:
                metrics[f"flows.circuit.{op.label}.s"] = op.seconds
        report = first.parallel
        if report is not None:
            metrics["parallel.busy_s"] = report.busy_s
            metrics["parallel.efficiency"] = report.busy_s / (walls[0] * report.workers)
            metrics["parallel.max_task_s"] = max(t.runtime_s for t in report.tasks)
            metrics["parallel.shards"] = report.num_shards
        metrics["verify.check_outputs.s"] = check_s

    failures = [e for e in errors if e]
    print(json.dumps({"result": {
        "attempted": len(errors),
        "failed": len(failures),
        "errors": failures[:10],
        "wall_s": wall,
        "walls": walls,
        "size_out": size_out,
        "depth_out": depth_out,
        "peak_rss_mb": rss,
        "check_s": check_s,
        "fingerprints": {op.label: p for op, p in zip(first.ops, prints)},
        "metrics": metrics,
        "wrapped_calls": wrapped_calls,
    }}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
