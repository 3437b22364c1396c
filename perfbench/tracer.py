"""In-memory span tracer and the layer wrappers of the traced run.

The traced run times calls into each layer's public functions by
replacing them, in the benchmark process only, with thin wrappers that
open a span.  Nothing under ``src/`` changes.  A function imported by
name (``from .size_opt import eliminate``) is bound in the importing
module too, so :meth:`Tracer.install` replaces every binding of the
original object in every loaded module (the benchmark's own included),
not only the one in the defining module; a wrapper no caller reaches
would read zero.

A span is ``(name, start, end, parent, thread)``; ``parent`` is the
index of the enclosing span on the same thread, or -1.  Spans stay in
memory and are written as JSON by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from multiprocessing.reduction import ForkingPickler
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Layers whose self time is reported, in report order.
LAYERS = ("network", "npn", "rewrite", "core", "flows", "verify", "codegen", "parallel")


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float, int, int]] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: List[Tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------- #
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Tuple[str, float, int]:
        stack = self._stack()
        with self._lock:
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, stack[-1] if stack else -1, threading.get_ident()))
        stack.append(index)
        return name, time.perf_counter(), index

    def end(self, token: Tuple[str, float, int]) -> None:
        end = time.perf_counter()
        name, start, index = token
        self._stack().pop()
        _, _, _, parent, thread = self.spans[index]
        self.spans[index] = (name, start, end, parent, thread)

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] += value

    # -- wrappers ----------------------------------------------------- #
    def wrapper(self, fn: Callable, name: str, key: str, on_call=None) -> Callable:
        """``fn`` inside a span; ``on_call(args, result)`` adds counters."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(token)
                with tracer._lock:
                    tracer.calls[key] += 1
            if on_call is not None:
                on_call(tracer, args, result)
            return result

        return traced

    def install(self, targets: Sequence["Target"]) -> None:
        """Replace every binding of each target in every loaded module."""
        for target in targets:
            module = importlib.import_module(target.module)
            owner_name, _, attr = target.attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attr]
            self.calls[target.key] = 0
            traced = target.make(self, original)
            self._bind(owner, attr, original, traced)
            if owner_name:
                continue
            for other in list(sys.modules.values()):
                if other is module:
                    continue
                for name, value in list(getattr(other, "__dict__", {}).items()):
                    if value is original:
                        self._bind(other, name, original, traced)

    def _bind(self, owner, attr: str, original, traced) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- reports ------------------------------------------------------ #
    def totals(self) -> Dict[str, Tuple[int, float]]:
        """``name -> (calls, inclusive seconds)``; a span nested inside a
        span of the same name (``assign_from`` calling ``copy``) counts
        as a call but not again as time."""
        spans = self.spans
        calls: Dict[str, int] = defaultdict(int)
        seconds: Dict[str, float] = defaultdict(float)
        for name, start, end, parent, _ in spans:
            calls[name] += 1
            nested = False
            while parent >= 0:
                if spans[parent][0] == name:
                    nested = True
                    break
                parent = spans[parent][3]
            if not nested:
                seconds[name] += end - start
        return {name: (calls[name], seconds[name]) for name in calls}

    def self_times(self) -> Dict[str, float]:
        """Self time per layer: span time not covered by child spans."""
        children = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        layers: Dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            layers[name.split(".", 1)[0]] += end - start - children[index]
        return layers

    def dump(self, path) -> None:
        records = [
            {"name": n, "start": s, "end": e, "parent": p, "thread": t}
            for n, s, e, p, t in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"spans": records, "counters": dict(self.counters)}, handle)


class Target:
    """One wrapped function: where it lives, its span, and its workloads.

    ``workloads`` names the workloads meant to exercise it; the
    self-check fails when a traced run of one of them records no call.
    """

    def __init__(self, module: str, attr: str, span: str, workloads: Sequence[str],
                 on_call=None, make: Optional[Callable] = None) -> None:
        self.module = module
        self.attr = attr
        self.span = span
        self.workloads = tuple(workloads)
        self.on_call = on_call
        self._make = make

    @property
    def key(self) -> str:
        return f"{self.module}.{self.attr}"

    def make(self, tracer: Tracer, original: Callable) -> Callable:
        if self._make is not None:
            return self._make(tracer, original, self)
        return tracer.wrapper(original, self.span, self.key, self.on_call)


def _add_stats(prefix: str, fields: Dict[str, str]):
    """Counter hook: add ``result.<attr>`` (or ``result[key]``) per call."""

    def hook(tracer: Tracer, args, result) -> None:
        for key, metric in fields.items():
            value = result[key] if isinstance(result, dict) else getattr(result, key)
            tracer.count(f"{prefix}.{metric}", value)

    return hook


def _sweep_hook(tracer: Tracer, args, result) -> None:
    for key, value in result.stats.items():
        if key in SWEEP_STATS:
            tracer.count(f"verify.sweep.{key}", value)


def _solve_wrapper(tracer: Tracer, solve: Callable, target: Target) -> Callable:
    """``SatSolver.solve`` with the solver's counter deltas per call."""
    traced = tracer.wrapper(solve, target.span, target.key)

    @functools.wraps(solve)
    def counted(self, *args, **kwargs):
        conflicts, propagations = self.num_conflicts, self.num_propagations
        try:
            return traced(self, *args, **kwargs)
        finally:
            tracer.count("verify.sat.conflicts", self.num_conflicts - conflicts)
            tracer.count("verify.sat.propagations", self.num_propagations - propagations)

    return counted


def _pickler_wrapper(tracer: Tracer, descriptor, target: Target) -> staticmethod:
    """``ForkingPickler.dumps``/``loads``, counting the bytes they move.

    This is where the parent pickles pool tasks and unpickles results
    (``LogicNetwork.__getstate__`` only copies a dict; the bytes are
    produced here), so the span covers the whole boundary crossing.
    """
    fn = descriptor.__get__(None, ForkingPickler) if hasattr(descriptor, "__get__") else descriptor

    def count_bytes(tracer, args, result):
        tracer.count("network.pickle_bytes", len(result if target.attr.endswith("dumps") else args[0]))

    return staticmethod(tracer.wrapper(fn, target.span, target.key, count_bytes))


#: ``SweepOutcome.stats`` counters reported as ``verify.sweep.<name>``.
SWEEP_STATS = ("sat_calls", "merges", "refinements", "unresolved")

OPT = ("table1", "scale_rand")

TARGETS = (
    Target("repro.network.base", "LogicNetwork.levels", "network.levels", OPT),
    Target("repro.network.base", "LogicNetwork.substitute", "network.substitute", OPT),
    Target("repro.network.base", "LogicNetwork.copy", "network.copy_assign", OPT),
    Target("repro.network.base", "LogicNetwork.assign_from", "network.copy_assign", ("table1",)),
    Target("repro.network.base", "LogicNetwork.simulate_patterns", "network.simulate", ("cec",)),
    Target("multiprocessing.reduction", "ForkingPickler.dumps", "network.pickle", ("batch",),
           make=_pickler_wrapper),
    Target("multiprocessing.reduction", "ForkingPickler.loads", "network.pickle", ("batch",),
           make=_pickler_wrapper),
    Target("repro.core.rewrite", "rewrite_mig", "rewrite", OPT,
           on_call=_add_stats("rewrite", {
               "cut_nodes_recomputed": "cuts_recomputed",
               "cut_nodes_reused": "cuts_reused",
               "converged_skip": "converged_skips",
               "rewrites": "accepted",
           })),
    Target("repro.core.balance", "balance_mig", "core.balance", OPT),
    Target("repro.core.depth_opt", "optimize_depth", "core.depth_opt", OPT,
           on_call=_add_stats("core.depth_opt", {
               "push_up_rewrites": "push_up", "reshape_rewrites": "reshape_rewrites",
           })),
    Target("repro.core.size_opt", "optimize_size", "core.size_opt", OPT,
           on_call=_add_stats("core.size_opt", {"eliminations": "eliminations"})),
    Target("repro.core.reshape", "reshape", "core.reshape", OPT),
    Target("repro.core.size_opt", "eliminate", "core.eliminate", OPT),
    Target("repro.flows.mighty", "mighty_optimize", "flows.mighty", OPT),
    Target("repro.flows.batch", "optimize_many", "flows.optimize_many", ("batch",)),
    Target("repro.parallel.executor", "parallel_map", "parallel.map", ("batch",)),
    Target("repro.verify.equivalence", "check_equivalence", "verify.cec", ("cec",),
           on_call=_add_stats("verify.cec", {"certified": "certified"})),
    Target("repro.verify.sweep", "sat_sweep", "verify.sweep", ("cec",), on_call=_sweep_hook),
    Target("repro.verify.sat", "SatSolver.solve", "verify.sat", ("cec",), make=_solve_wrapper),
    Target("repro.verify.cnf", "encode_network", "verify.cnf", ("cec",)),
    Target("repro.codegen.simgen", "compile_network_kernel", "codegen.compile", ("cec",)),
    Target("repro.codegen.simgen", "SimKernel.simulate", "codegen.sim", ("cec",)),
    Target("repro.codegen.graphsim", "GraphSimKernel.eval_into", "codegen.sim", ("cec",)),
)
