"""Pass-manager flow engine: named, composable optimization passes.

The experiment flows of the paper — MIGhty (Section V-A), the resyn2-style
AIG baseline, the ablations — are all sequences of optimization passes
with accept/reject policies and per-phase measurements.  This module
factors that structure out of the individual flow functions:

* a :class:`Pass` is a named transformation of a logic network (MIG or
  AIG — anything built on :class:`repro.network.base.LogicNetwork`);
* a :class:`Pipeline` runs passes in order, recording a
  :class:`PassMetrics` snapshot (size / depth / optional switching
  activity / runtime) around every pass;
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
from ..core.reshape import reshape
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
    "SizeOpt",
    "MigRewrite",
    "Eliminate",
    "Reshape",
    "ActivityOpt",
    "Cleanup",
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
    """Size / depth / activity / runtime snapshot around one pass run."""

    name: str
    size_before: int
    size_after: int
    depth_before: int
    depth_after: int
    runtime_s: float
    activity_before: Optional[float] = None
    activity_after: Optional[float] = None
    details: Dict[str, object] = field(default_factory=dict)

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
        if self.activity_before is not None:
            record["activity_before"] = round(self.activity_before, 4)
        if self.activity_after is not None:
            record["activity_after"] = round(self.activity_after, 4)
        if self.details:
            record["details"] = self.details
        return record


@dataclass
class FlowResult:
    """Outcome of one :meth:`Pipeline.run` invocation."""

    name: str
    initial_size: int
    initial_depth: int
    final_size: int
    final_depth: int
    runtime_s: float
    passes: List[PassMetrics] = field(default_factory=list)

    def pass_names(self) -> List[str]:
        return [m.name for m in self.passes]


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
        self,
        passes: Sequence[Pass],
        name: str = "pipeline",
        measure_activity: bool = False,
        verify=None,
    ) -> None:
        self.passes = list(passes)
        self.name = name
        self.measure_activity = measure_activity
        # ``verify`` is the opt-in per-pass self-certification hook:
        # ``True`` checks every pass with the default equivalence dispatch
        # (exhaustive / SAT-sweep depending on width); a callable
        # ``f(reference, network) -> EquivalenceResult`` substitutes its
        # own checker (e.g. a budgeted SAT sweep for very large networks).
        self.verify = verify

    def _activity(self, network) -> Optional[float]:
        if not self.measure_activity:
            return None
        from ..analysis.metrics import measure_activity

        return measure_activity(network)

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
        initial_size = network.num_gates
        initial_depth = network.depth()
        start = time.perf_counter()
        verifier = self._verifier()
        # One pass's activity_after is the next pass's activity_before, so
        # the (expensive) measurement runs once per boundary, not twice.
        activity = self._activity(network)
        for pass_ in self.passes:
            size_before = network.num_gates
            depth_before = network.depth()
            activity_before = activity
            reference = network.copy() if verifier is not None else None
            pass_start = time.perf_counter()
            if pass_.composite:
                details = pass_.apply(network, collect=metrics)
            else:
                details = pass_.apply(network)
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
            activity = self._activity(network)
            metrics.append(
                PassMetrics(
                    name=pass_.name,
                    size_before=size_before,
                    size_after=network.num_gates,
                    depth_before=depth_before,
                    depth_after=network.depth(),
                    runtime_s=runtime_s,
                    activity_before=activity_before,
                    activity_after=activity,
                    details=details,
                )
            )
        return FlowResult(
            name=self.name,
            initial_size=initial_size,
            initial_depth=initial_depth,
            final_size=network.num_gates,
            final_depth=network.depth(),
            runtime_s=time.perf_counter() - start,
            passes=metrics,
        )


class Repeat(Pass):
    """Run a sub-pipeline for up to ``rounds`` effort rounds.

    After each round the ``(depth, size)`` pair is compared against the
    round's starting point; when neither improved the loop exits early —
    the shared stopping rule of Algorithms 1/2 and the MIGhty flow.
    """

    composite = True

    def __init__(
        self, passes: Sequence[Pass], rounds: int = 1, name: str = "repeat"
    ) -> None:
        self.name = name
        self.rounds = max(1, rounds)
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
    metrics: List[PassMetrics] = []
    current = network
    initial_size = current.num_gates
    initial_depth = current.depth()
    start = time.perf_counter()
    for pass_ in passes:
        size_before = current.num_gates
        depth_before = current.depth()
        pass_start = time.perf_counter()
        candidate = pass_.build(current)
        accepted = pass_.accepts(candidate, current)
        if accepted:
            current = candidate
        metrics.append(
            PassMetrics(
                name=pass_.name,
                size_before=size_before,
                size_after=current.num_gates,
                depth_before=depth_before,
                depth_after=current.depth(),
                runtime_s=time.perf_counter() - pass_start,
                details={"accepted": accepted},
            )
        )
    result = FlowResult(
        name=name,
        initial_size=initial_size,
        initial_depth=initial_depth,
        final_size=current.num_gates,
        final_depth=current.depth(),
        runtime_s=time.perf_counter() - start,
        passes=metrics,
    )
    return current, result


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
    under ``"rules"``, as do those of :class:`SizeOpt`, :class:`Eliminate`
    and :class:`Reshape`.
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
    ``FunctionPass("mig_rewrite", lambda n: rewrite_mig(n, ...))``.
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


class Reshape(Pass):
    """One reshape sweep (Ω.A / Ψ.C / Ψ.R / Ψ.S) over the whole network."""

    name = "reshape"

    def apply(self, network) -> Dict[str, object]:
        with rule_counts() as rules:
            rewrites = reshape(network)
        return {"rewrites": rewrites, "rules": rules}


class ActivityOpt(Pass):
    """Section IV-C switching-activity optimization."""

    name = "activity_opt"

    def __init__(self, effort: int = 2, pi_probabilities=None) -> None:
        self.effort = effort
        self.pi_probabilities = pi_probabilities

    def apply(self, network) -> Dict[str, object]:
        from ..core.activity_opt import optimize_activity

        stats = optimize_activity(
            network, effort=self.effort, pi_probabilities=self.pi_probabilities
        )
        return {
            "relevance_rewrites": stats.relevance_rewrites,
            "initial_activity": stats.initial_activity,
            "final_activity": stats.final_activity,
        }


class Cleanup(Pass):
    """Reclaim dangling nodes left behind by rejected rewrites."""

    name = "cleanup"

    def apply(self, network) -> Dict[str, object]:
        return {"removed": network.cleanup()}
