"""Pass-manager flow engine: named, composable optimization passes.

The experiment flows of the paper — MIGhty (Section V-A), the resyn2-style
AIG baseline, the ablations — are all sequences of optimization passes
with accept/reject policies and per-phase measurements.  This module
factors that structure out of the individual flow functions:

* a :class:`Pass` is a named transformation of a logic network (MIG or
  AIG — anything built on :class:`repro.network.base.LogicNetwork`);
* a :class:`Pipeline` runs passes in order, recording a
  :class:`PassMetrics` snapshot (size / depth / runtime) around every
  pass, and returns them in one :class:`FlowResult`, the record of a
  flow run that every flow of the package reports;
* :class:`Repeat` composes a sub-pipeline into effort rounds with
  early exit when a round stops improving, the loop structure shared by
  Algorithms 1 and 2 and the MIGhty flow;
* :class:`RebuildPass` adapts rebuild-style passes (balancing, AIG
  rewriting) that return a new network instead of mutating in place,
  committing the candidate through ``assign_from`` only when its
  acceptance policy holds.

Flows declare *what* runs (``Pipeline([Balance(), DepthOpt(effort=2),
SizeOpt(), Eliminate()])``); the engine owns *how*: measurement,
acceptance, rollback and reporting.  Per-pass metrics are serialised for
the benchmark harness by :func:`repro.flows.report.format_pass_metrics`
and :func:`repro.flows.report.pass_metrics_to_json`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..core.balance import balance_mig
from ..core.rules import RESHAPE_RULES, rule_counts
from ..core.size_opt import eliminate

__all__ = [
    "PassMetrics",
    "FlowResult",
    "PassVerificationError",
    "Pass",
    "FunctionPass",
    "RebuildPass",
    "Pipeline",
    "Repeat",
    "run_rebuild_chain",
    "Balance",
    "DepthOpt",
    "DepthRewrite",
    "SizeOpt",
    "MigRewrite",
    "Eliminate",
]


class PassVerificationError(AssertionError):
    """A pass broke functional equivalence (per-pass ``verify=`` hook).

    Also raised when the checker could not *certify* equivalence (an
    uncertified ``equivalent=True``, e.g. a budget-exhausted SAT sweep
    falling back to random simulation): self-certification must never
    report a pass as verified on a non-proof.
    """

    def __init__(self, pass_name: str, result) -> None:
        self.pass_name = pass_name
        self.result = result
        if result.equivalent and not getattr(result, "certified", True):
            message = (
                f"pass {pass_name!r} could NOT be certified "
                f"(method={result.method} found no mismatch but is not a "
                f"proof; raise the verification budget)"
            )
        else:
            message = (
                f"pass {pass_name!r} is NOT function-preserving "
                f"(method={result.method}, output index={result.failing_output}, "
                f"counterexample={result.counterexample})"
            )
        super().__init__(message)


# --------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------- #
@dataclass
class PassMetrics:
    """Size / depth / runtime snapshot around one pass run.

    ``composite`` marks the record of a composite pass (:class:`Repeat`):
    its deltas and runtime repeat those of the inner records listed
    before it, so sums over a trace leave it out.
    """

    name: str
    size_before: int
    size_after: int
    depth_before: int
    depth_after: int
    runtime_s: float
    details: Dict[str, object] = field(default_factory=dict)
    composite: bool = False

    @property
    def size_delta(self) -> int:
        return self.size_after - self.size_before

    @property
    def depth_delta(self) -> int:
        return self.depth_after - self.depth_before

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form used by the JSON serialisation hook."""
        record: Dict[str, object] = {
            "pass": self.name,
            "size_before": self.size_before,
            "size_after": self.size_after,
            "depth_before": self.depth_before,
            "depth_after": self.depth_after,
            "runtime_s": round(self.runtime_s, 6),
        }
        if self.details:
            record["details"] = self.details
        if self.composite:
            record["composite"] = True
        return record


@dataclass
class FlowResult:
    """Outcome of one flow run: a :meth:`Pipeline.run` or a rebuild chain.

    ``pass_metrics`` is the flat, ordered trace of every pass the run
    executed; a composite pass (:class:`Repeat`) follows its inner
    passes' records, marked ``composite``.  ``runtime_s`` is the run's
    wall time.
    """

    name: str
    initial_size: int
    initial_depth: int
    final_size: int
    final_depth: int
    runtime_s: float
    pass_metrics: List[PassMetrics] = field(default_factory=list)

    def pass_names(self) -> List[str]:
        return [m.name for m in self.pass_metrics]


# --------------------------------------------------------------------- #
# Pass protocol
# --------------------------------------------------------------------- #
class Pass:
    """A named in-place transformation of a logic network.

    Subclasses implement :meth:`apply` and may return a detail dictionary
    (rewrite counts, acceptance decisions, ...) that lands in
    :attr:`PassMetrics.details`.

    Composite passes (those that run inner passes and want their inner
    measurements merged into the caller's flat trace) set
    ``composite = True`` and accept ``apply(network, collect=None)``,
    like :class:`Repeat` does.
    """

    name = "pass"
    composite = False

    def apply(self, network) -> Optional[Dict[str, object]]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.__class__.__name__}(name={self.name!r})"


class FunctionPass(Pass):
    """Wrap a plain ``fn(network) -> details-or-None`` as a pass."""

    def __init__(self, name: str, fn: Callable) -> None:
        self.name = name
        self._fn = fn

    def apply(self, network) -> Optional[Dict[str, object]]:
        result = self._fn(network)
        return result if isinstance(result, dict) else None


class RebuildPass(Pass):
    """Adapter for rebuild-style passes returning a fresh network.

    ``builder(network)`` produces a candidate; ``accept(candidate,
    network)`` decides whether it replaces the original (through
    ``assign_from``).  The default policy accepts only candidates that are
    strictly better in the ``(depth, size)`` lexicographic order — a
    candidate that merely ties does not clobber the original structure.
    """

    def __init__(
        self,
        name: str,
        builder: Callable,
        accept: Optional[Callable] = None,
    ) -> None:
        self.name = name
        self._builder = builder
        self._accept = accept if accept is not None else self._strictly_better

    @staticmethod
    def _strictly_better(candidate, network) -> bool:
        return (candidate.depth(), candidate.num_gates) < (
            network.depth(),
            network.num_gates,
        )

    def build(self, network):
        """Produce the candidate network for ``network``."""
        return self._builder(network)

    def accepts(self, candidate, network) -> bool:
        """Whether ``candidate`` should replace ``network``."""
        return bool(self._accept(candidate, network))

    def apply(self, network) -> Optional[Dict[str, object]]:
        candidate = self.build(network)
        accepted = self.accepts(candidate, network)
        if accepted:
            # assign_from compacts and renumbers the adopted candidate in
            # topological order, which also conditions the network for the
            # index-ordered sweeps of the follow-up passes.
            network.assign_from(candidate)
        return {"accepted": accepted}


# --------------------------------------------------------------------- #
# Composition
# --------------------------------------------------------------------- #
class Pipeline:
    """Run a sequence of passes over a network, measuring each one.

    Example
    -------
    >>> from repro.core.mig import Mig
    >>> mig = Mig()
    >>> a, b, c = (mig.add_pi(n) for n in "abc")
    >>> _ = mig.add_po(mig.maj(a, b, c))
    >>> result = Pipeline([Eliminate()]).run(mig)
    >>> result.pass_names()
    ['eliminate']
    """

    def __init__(
        self, passes: Sequence[Pass], name: str = "pipeline", verify=None
    ) -> None:
        self.passes = list(passes)
        self.name = name
        # ``verify`` is the opt-in per-pass self-certification hook:
        # ``True`` checks every pass with the default equivalence dispatch
        # (exhaustive / SAT-sweep depending on width); a callable
        # ``f(reference, network) -> EquivalenceResult`` substitutes its
        # own checker (e.g. a budgeted SAT sweep for very large networks).
        self.verify = verify

    def _verifier(self):
        if not self.verify:
            return None
        if callable(self.verify):
            return self.verify
        from ..verify.equivalence import check_equivalence

        return check_equivalence

    def run(self, network, collect: Optional[List[PassMetrics]] = None) -> FlowResult:
        """Run every pass in order on ``network`` (modified in place).

        ``collect`` lets composite passes (``Repeat``) append their inner
        measurements onto the caller's list so a nested flow yields one
        flat, ordered metrics trace.
        """
        metrics: List[PassMetrics] = collect if collect is not None else []

        def apply(pass_, network):
            if pass_.composite:
                return network, pass_.apply(network, collect=metrics)
            return network, pass_.apply(network)

        _, result = _run_passes(
            self.name, network, self.passes, apply, metrics, self._verifier()
        )
        return result


class Repeat(Pass):
    """Run a sub-pipeline for up to ``rounds`` effort rounds (at least 1,
    ``ValueError`` otherwise).

    After each round the ``(depth, size)`` pair is compared against the
    round's starting point; when neither improved the loop exits early —
    the shared stopping rule of Algorithms 1/2 and the MIGhty flow.
    """

    composite = True

    def __init__(
        self, passes: Sequence[Pass], rounds: int = 1, name: str = "repeat"
    ) -> None:
        if rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {rounds}")
        self.name = name
        self.rounds = rounds
        self._pipeline = Pipeline(passes, name=name)

    def apply(
        self, network, collect: Optional[List[PassMetrics]] = None
    ) -> Dict[str, object]:
        executed = 0
        for _ in range(self.rounds):
            executed += 1
            depth_before = network.depth()
            size_before = network.num_gates
            self._pipeline.run(network, collect=collect)
            if network.depth() >= depth_before and network.num_gates >= size_before:
                break
        return {"rounds": executed}


def run_rebuild_chain(
    network, passes: Sequence[RebuildPass], name: str = "chain"
):
    """Run a chain of rebuild passes *without* mutating ``network``.

    Each pass builds a candidate from the current network; accepted
    candidates become the new current network (the original object is
    never modified, matching the rebuild-based AIG scripts).  Returns
    ``(final_network, FlowResult)``.
    """

    def adopt(pass_, current):
        candidate = pass_.build(current)
        accepted = pass_.accepts(candidate, current)
        return (candidate if accepted else current), {"accepted": accepted}

    return _run_passes(name, network, passes, adopt, [])


def _run_passes(name, network, passes, step, metrics, verifier=None):
    """The measuring loop shared by :class:`Pipeline` and rebuild chains.

    ``step(pass_, network)`` runs one pass and returns ``(network,
    details)``: the network the flow continues with (the same object for
    in-place passes) and the pass's detail dictionary or ``None``.  Every
    pass gets a :class:`PassMetrics` record appended to ``metrics``; with
    a ``verifier`` it is first proven function-preserving against a copy
    of its input (outside its runtime).  Returns ``(network, FlowResult)``.
    """
    initial_size = network.num_gates
    initial_depth = network.depth()
    start = time.perf_counter()
    for pass_ in passes:
        size_before = network.num_gates
        depth_before = network.depth()
        reference = network.copy() if verifier is not None else None
        pass_start = time.perf_counter()
        network, details = step(pass_, network)
        runtime_s = time.perf_counter() - pass_start
        details = details or {}
        if verifier is not None:
            check = verifier(reference, network)
            certified = getattr(check, "certified", True)
            details["verify"] = {
                "equivalent": check.equivalent,
                "method": check.method,
                "certified": certified,
            }
            if not check.equivalent or not certified:
                raise PassVerificationError(pass_.name, check)
        metrics.append(
            PassMetrics(
                name=pass_.name,
                size_before=size_before,
                size_after=network.num_gates,
                depth_before=depth_before,
                depth_after=network.depth(),
                runtime_s=runtime_s,
                details=details,
                composite=pass_.composite,
            )
        )
    return network, FlowResult(
        name=name,
        initial_size=initial_size,
        initial_depth=initial_depth,
        final_size=network.num_gates,
        final_depth=network.depth(),
        runtime_s=time.perf_counter() - start,
        pass_metrics=metrics,
    )


# --------------------------------------------------------------------- #
# The concrete MIG passes of the paper's flows
# --------------------------------------------------------------------- #
class Balance(RebuildPass):
    """Associative Ω.A tree balancing (rebuild-based, strict acceptance).

    The candidate replaces the network only when it strictly improves the
    ``(depth, size)`` order; a tie keeps the existing structure (and skips
    a full network copy).
    """

    def __init__(self) -> None:
        super().__init__("balance", balance_mig)


class DepthOpt(Pass):
    """Algorithm 2: majority-specific depth optimization.

    Its details carry the rule counts of :func:`repro.core.rules.rule_counts`
    under ``"rules"``, as do those of :class:`SizeOpt` and
    :class:`Eliminate`.
    """

    name = "depth_opt"

    def __init__(
        self, effort: int = 3, reshape_rules: Sequence[str] = RESHAPE_RULES
    ) -> None:
        self.effort = effort
        self.reshape_rules = reshape_rules

    def apply(self, network) -> Dict[str, object]:
        from ..core.depth_opt import optimize_depth

        with rule_counts() as rules:
            stats = optimize_depth(
                network, effort=self.effort, reshape_rules=self.reshape_rules
            )
        return {
            "cycles": stats.cycles,
            "push_up_rewrites": stats.push_up_rewrites,
            "reshape_rewrites": stats.reshape_rewrites,
            "rules": rules,
        }


class DepthRewrite(Pass):
    """Boolean depth rewriting along the critical path.

    Runs :func:`repro.core.rewrite.rewrite_mig` in depth mode
    (``max_level_growth=-1``: each move must lower its root's level and
    may add no more nodes than it frees) for up to :attr:`SWEEPS` sweeps,
    stopping after a sweep that applies no rewrite.  Each sweep visits
    only the nodes critical at its start.  Letting a move spend one extra
    node leaves perfbench's 40-MIG ``batch`` corpus larger (9,755 gates)
    than spending none (9,680) or Algorithm 2 (9,710).  :attr:`SWEEPS`
    is a termination guard: over Table I, ``batch`` and ``scale_rand``
    (``rounds=1``) one run of 55 reached it with rewrites still applying,
    and running to convergence left every total unchanged.  The sweeps
    share the network's cut manager with :class:`MigRewrite`, which reuses
    the cuts the last sweep left up to date; the details sum the sweeps'
    rewrite and cut-reuse counters.
    """

    name = "depth_rewrite"
    SWEEPS = 4

    def apply(self, network) -> Dict[str, object]:
        from ..core.rewrite import rewrite_mig

        summed = ("rewrites", "gain", "zero_gain", "aliased",
                  "cut_nodes_recomputed", "cut_nodes_reused")
        totals = dict.fromkeys(summed, 0)
        totals["sweeps"] = 0
        for _ in range(self.SWEEPS):
            stats = rewrite_mig(network, max_level_growth=-1)
            totals["sweeps"] += 1
            for key in summed:
                totals[key] += stats[key]
            if not stats["rewrites"]:
                break
        return totals


class SizeOpt(Pass):
    """Algorithm 1: majority-specific size optimization."""

    name = "size_opt"

    def __init__(
        self, effort: int = 2, reshape_rules: Sequence[str] = RESHAPE_RULES
    ) -> None:
        self.effort = effort
        self.reshape_rules = reshape_rules

    def apply(self, network) -> Dict[str, object]:
        from ..core.size_opt import optimize_size

        with rule_counts() as rules:
            stats = optimize_size(
                network, effort=self.effort, reshape_rules=self.reshape_rules
            )
        return {
            "cycles": stats.cycles,
            "eliminations": stats.eliminations,
            "reshape_rewrites": stats.reshape_rewrites,
            "rules": rules,
        }


class MigRewrite(Pass):
    """Boolean cut rewriting against the NPN structure database.

    The Boolean counterpart of the algebraic Ω/Ψ passes: 4-feasible cuts
    are enumerated, NPN-canonicalized and replaced by precomputed optimal
    MIG structures when the shared-logic-aware gain is positive (see
    :func:`repro.core.rewrite.rewrite_mig`).  Depth-safe by default, so it
    can be interleaved anywhere in a MIGhty-style pipeline without
    breaking the flow's depth monotonicity.  It runs ``rewrite_mig`` with
    its defaults; a non-default sweep is
    ``FunctionPass("mig_rewrite", lambda n: rewrite_mig(n, ...))``.  It
    shares the network's cut manager with :class:`DepthRewrite`: run right
    after it, as in the MIGhty round, it re-enumerates no cut.
    """

    name = "mig_rewrite"

    def apply(self, network) -> Dict[str, object]:
        from ..core.rewrite import rewrite_mig

        # The returned stats carry the incremental cut engine's per-sweep
        # reuse counters (cut_nodes_recomputed / cut_nodes_reused /
        # converged_skip), which land in PassMetrics.details verbatim.
        return rewrite_mig(network)


class Eliminate(Pass):
    """The elimination step of Algorithm 1 (Ω.M L→R plus Ω.D R→L)."""

    name = "eliminate"

    def apply(self, network) -> Dict[str, object]:
        with rule_counts() as rules:
            removed = eliminate(network)
        return {"removed": removed, "rules": rules}
