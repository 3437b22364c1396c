"""Combinational equivalence checking: the dispatch front-end.

Every optimization pass in this library claims function preservation;
this module is how the test-suite, the flows (``Pipeline(verify=...)``)
and the acceptance harnesses *prove* it on concrete instances.  The
checker is a dispatcher over four backends:

============== ============ ================= ==============================
method         completeness input width       notes
============== ============ ================= ==============================
``exhaustive`` complete     ``num_pis <= 16`` chunked bit-parallel
                                              simulation (2^16-minterm
                                              blocks); default for narrow
                                              networks
``random``     falsifier    any               ``num_random_vectors`` random
                                              patterns; finds bugs fast,
                                              proves nothing
``sat-sweep``  complete*    any               simulation-guided SAT
                                              sweeping over a shared-PI
                                              miter (:mod:`.sweep`);
                                              default proof engine for
                                              wide networks; *within its
                                              conflict budget — reports
                                              *unknown* when exceeded
``bdd``        complete     memory-bound      canonical ROBDDs of all
                                              outputs; run explicitly when
                                              the SAT budget blows
============== ============ ================= ==============================

The automatic dispatch (``method="auto"``) runs, in order:

1. a 64-vector **random prefilter** (fail fast on inequivalent pairs);
2. ``num_pis <= EXHAUSTIVE_LIMIT`` → **exhaustive** simulation;
3. otherwise **SAT sweeping**, seeded with ``num_random_vectors`` random
   patterns: its first step simulates both networks on them, which is
   the random check (same seed, same vectors, same counterexample as
   ``method="random"``), and the same simulation values start its
   candidate signatures, so few SAT calls go to refuting false
   candidates.  If the SAT budget was exhausted the verdict comes back
   as ``random-simulation``, equivalent and uncertified (the patterns
   showed no mismatch); a caller may then run ``method="bdd"``.

``sat-sweep``, auto-dispatched or explicit, refutes on its initial random
patterns before it encodes anything: a pair whose outputs differ there
costs one simulation per network, no CNF and no SAT call.  An explicit
``method="sat-sweep"`` starts from ``sat_sweep``'s own default of 128
patterns unless ``sat_options`` says otherwise.

Every backend that reports inequivalence returns a *replayable*
counterexample, and every counterexample is validated by a one-vector
simulation of both networks before it is returned — a bug in a proof
engine can surface as a :class:`CounterexampleError`, never as a spurious
verdict.  The two networks may be of different types (MIG vs AIG vs
mapped netlist): anything exposing ``num_pis / num_pos /
simulate_patterns()`` works, and the SAT backend additionally understands
all three through the CNF encoder.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence

__all__ = [
    "EquivalenceResult",
    "CounterexampleError",
    "check_equivalence",
    "assert_equivalent",
    "EXHAUSTIVE_LIMIT",
]

#: Networks with at most this many primary inputs are checked exhaustively.
#: Chunked simulation keeps the per-block patterns at 2^16 bits, so the
#: limit is bounded by runtime (2^(n-16) simulation sweeps), not memory.
EXHAUSTIVE_LIMIT = 16

#: Exhaustive simulation runs in blocks of at most this many minterms.
_BLOCK_BITS = 16

#: Width of the fail-fast random pre-filter run before any complete check.
_PREFILTER_VECTORS = 64

#: Method names accepted by :func:`check_equivalence`.
_METHODS = ("auto", "exhaustive", "random", "bdd", "sat-sweep")


class CounterexampleError(RuntimeError):
    """A backend produced a counterexample that does not replay.

    Raised instead of returning an inequivalence verdict that the
    networks' own simulators contradict — a solver or encoder bug can
    never masquerade as a refutation.
    """


@dataclass(frozen=True)
class EquivalenceResult:
    """Outcome of an equivalence check.

    ``certified`` distinguishes a *proof* from a mere failure to refute:
    it is ``True`` for complete backends (exhaustive, BDD, an in-budget
    SAT sweep) and for every refutation (counterexamples are replayed
    before being returned), but ``False`` when an ``equivalent=True``
    verdict only means "random simulation found no mismatch" — notably
    the auto dispatch's best-effort answer after the SAT sweep exhausted
    its conflict budget.  Consumers that certify anything
    (:func:`assert_equivalent`, pipeline self-verification, the corpus
    runner's CEC rows) must reject uncertified verdicts rather than treat
    them as a pass.

    ``stats`` carries the :class:`~repro.verify.sweep.SweepOutcome`
    counters (SAT calls, merges, solver conflicts, decisions and
    propagations) when a SAT sweep produced the verdict, else ``None``;
    it takes no part in comparisons.
    """

    equivalent: bool
    method: str
    counterexample: Optional[List[bool]] = None
    failing_output: Optional[int] = None
    certified: bool = True
    stats: Optional[dict] = field(default=None, compare=False, repr=False)

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.equivalent


def check_equivalence(
    first,
    second,
    num_random_vectors: int = 4096,
    seed: int = 7,
    method: str = "auto",
    sat_options: Optional[dict] = None,
) -> EquivalenceResult:
    """Check whether two combinational networks compute the same functions.

    Inputs are matched by position (both networks must have the same number
    of PIs and POs; names are not required to coincide because the baseline
    flows rename internal signals).

    ``method`` selects a specific backend (see the module docstring's
    dispatch table) or ``"auto"`` for the layered default.  ``sat_options``
    is forwarded to :func:`repro.verify.sweep.sat_sweep` (budgets, pattern
    counts).

    ``num_random_vectors`` is the width of the random backend and, on the
    auto path past :data:`EXHAUSTIVE_LIMIT` inputs, the sweep's initial
    signature width (``initial_patterns``, unless ``sat_options`` sets
    it).  An auto refutation there is labelled ``sat-sweep`` whether the
    random patterns or a SAT query found it.  When that sweep runs out of
    budget, the verdict is ``method="random-simulation"``, equivalent,
    with ``certified=False``.
    """
    if first.num_pis != second.num_pis:
        raise ValueError(
            f"PI count mismatch: {first.num_pis} vs {second.num_pis}"
        )
    if first.num_pos != second.num_pos:
        raise ValueError(
            f"PO count mismatch: {first.num_pos} vs {second.num_pos}"
        )
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {_METHODS}")

    if method == "exhaustive":
        return _validated(first, second, _check_exhaustive(first, second))
    if method == "random":
        return _validated(
            first, second, _check_random(first, second, num_random_vectors, seed)
        )
    if method == "bdd":
        return _validated(first, second, _check_bdd(first, second))
    if method == "sat-sweep":
        result = _check_sat_sweep(first, second, seed, sat_options)
        if result is None:
            raise RuntimeError(
                "SAT sweep exhausted its conflict budget; raise the budget "
                "via sat_options or use method='bdd'"
            )
        return _validated(first, second, result)

    # --- automatic dispatch ------------------------------------------- #
    # The prefilter only pays off in front of the exhaustive backend (the
    # wide-network path below starts by simulating the sweep's initial
    # patterns, which subsume it — same seed, more vectors), and only when
    # the exhaustive sweep it precedes is actually wider than the
    # prefilter itself.
    if _PREFILTER_VECTORS < (1 << first.num_pis) and first.num_pis <= EXHAUSTIVE_LIMIT:
        prefilter = _check_random(
            first, second, _PREFILTER_VECTORS, seed, method="random-prefilter"
        )
        if not prefilter.equivalent:
            return _validated(first, second, prefilter)

    if first.num_pis <= EXHAUSTIVE_LIMIT:
        return _validated(first, second, _check_exhaustive(first, second))

    # One stage: the sweep's initial patterns are the random vectors, so
    # its pre-encode simulation is the random check and its signatures
    # start that wide.
    options = {"initial_patterns": num_random_vectors, **(sat_options or {})}
    proof = _check_sat_sweep(first, second, seed, options)
    if proof is not None:
        return _validated(first, second, proof)
    # SAT budget exhausted: the sweep's patterns showed no mismatch, which
    # is the random verdict — ``certified=False`` is what tells certifying
    # consumers this is *not* a proof.
    return EquivalenceResult(
        equivalent=True, method="random-simulation", certified=False
    )


def assert_equivalent(first, second, **kwargs) -> None:
    """Raise ``AssertionError`` with a readable message if not equivalent.

    An *uncertified* all-clear (the auto dispatch ran out of SAT budget
    and fell back to random simulation) also raises — unless the caller
    explicitly asked for the random backend, in which case the sampling
    verdict is exactly what was requested.
    """
    result = check_equivalence(first, second, **kwargs)
    if not result.equivalent:
        raise AssertionError(
            "networks are NOT equivalent "
            f"(method={result.method}, output index={result.failing_output}, "
            f"counterexample={result.counterexample})"
        )
    if not result.certified and kwargs.get("method", "auto") != "random":
        raise AssertionError(
            "equivalence NOT certified: the complete backends ran out of "
            f"budget and only {result.method} found no mismatch — raise the "
            "budget via sat_options or use method='bdd'"
        )


# --------------------------------------------------------------------- #
# Counterexample validation (all refuting backends route through this)
# --------------------------------------------------------------------- #
def _simulate_single(network, assignment: Sequence[bool]) -> List[bool]:
    patterns = [1 if bit else 0 for bit in assignment]
    return [bool(v & 1) for v in network.simulate_patterns(patterns, 1)]


def _validated(first, second, result: EquivalenceResult) -> EquivalenceResult:
    """Replay a refuting counterexample on both networks before returning it.

    Guarantees the advertised failing output really differs under the
    advertised input vector; a backend whose counterexample does not
    replay raises :class:`CounterexampleError` instead of polluting the
    verdict stream.
    """
    if result.equivalent or result.counterexample is None:
        return result
    out_first = _simulate_single(first, result.counterexample)
    out_second = _simulate_single(second, result.counterexample)
    mismatches = [
        index for index, (a, b) in enumerate(zip(out_first, out_second)) if a != b
    ]
    if not mismatches:
        raise CounterexampleError(
            f"backend {result.method!r} reported a counterexample that does "
            f"not replay to any PO mismatch: {result.counterexample}"
        )
    if result.failing_output not in mismatches:
        return replace(result, failing_output=mismatches[0])
    return result


# --------------------------------------------------------------------- #
# Backends
# --------------------------------------------------------------------- #
def _input_patterns_block(num_pis: int, start: int, block_bits: int) -> List[int]:
    """Simulation patterns covering minterms ``start .. start + block_bits``.

    Inputs whose period fits inside the block get the usual alternating
    projection pattern; higher inputs are constant across the whole block
    (their value is the corresponding bit of ``start``, which is always a
    multiple of the block size).
    """
    mask = (1 << block_bits) - 1
    patterns = []
    for i in range(num_pis):
        period_half = 1 << i
        if period_half >= block_bits:
            patterns.append(mask if (start >> i) & 1 else 0)
            continue
        block = (1 << period_half) - 1
        pattern = 0
        for offset in range(period_half, block_bits, period_half << 1):
            pattern |= block << offset
        patterns.append(pattern)
    return patterns


def _check_exhaustive(first, second) -> EquivalenceResult:
    num_pis = first.num_pis
    total = 1 << num_pis
    block_bits = min(total, 1 << _BLOCK_BITS)
    for start in range(0, total, block_bits):
        patterns = _input_patterns_block(num_pis, start, block_bits)
        out_first = first.simulate_patterns(patterns, block_bits)
        out_second = second.simulate_patterns(patterns, block_bits)
        for index, (a, b) in enumerate(zip(out_first, out_second)):
            if a != b:
                diff = a ^ b
                minterm = start + (diff & -diff).bit_length() - 1
                counterexample = [bool((minterm >> k) & 1) for k in range(num_pis)]
                return EquivalenceResult(
                    equivalent=False,
                    method="exhaustive",
                    counterexample=counterexample,
                    failing_output=index,
                )
    return EquivalenceResult(equivalent=True, method="exhaustive")


def _check_random(
    first, second, num_vectors: int, seed: int, method: str = "random-simulation"
) -> EquivalenceResult:
    rng = random.Random(seed)
    num_pis = first.num_pis
    patterns = [rng.getrandbits(num_vectors) for _ in range(num_pis)]
    out_first = first.simulate_patterns(patterns, num_vectors)
    out_second = second.simulate_patterns(patterns, num_vectors)
    for index, (a, b) in enumerate(zip(out_first, out_second)):
        if a != b:
            diff = a ^ b
            bit = (diff & -diff).bit_length() - 1
            counterexample = [bool((patterns[k] >> bit) & 1) for k in range(num_pis)]
            return EquivalenceResult(
                equivalent=False,
                method=method,
                counterexample=counterexample,
                failing_output=index,
            )
    # Random simulation proves nothing: an all-clear is explicitly not a
    # certificate (refutations above are, once validated).
    return EquivalenceResult(equivalent=True, method=method, certified=False)


def _check_sat_sweep(
    first, second, seed: int, sat_options: Optional[dict]
) -> Optional[EquivalenceResult]:
    """SAT-sweeping backend; ``None`` when the conflict budget ran out."""
    from .sweep import sat_sweep

    outcome = sat_sweep(first, second, seed=seed, **(sat_options or {}))
    if outcome.status == "equivalent":
        return EquivalenceResult(
            equivalent=True, method="sat-sweep", stats=outcome.stats
        )
    if outcome.status == "inequivalent":
        return EquivalenceResult(
            equivalent=False,
            method="sat-sweep",
            counterexample=outcome.counterexample,
            failing_output=outcome.failing_output,
            stats=outcome.stats,
        )
    return None


def _check_bdd(first, second) -> EquivalenceResult:
    from ..bdd.bdd import BddManager, build_output_bdds

    manager = BddManager()
    # Both networks must use the same variable order for node identity to
    # mean functional equality (PIs are matched by position).
    order = list(range(first.num_pis))
    bdds_first = build_output_bdds(manager, first, order)
    bdds_second = build_output_bdds(manager, second, order)
    for index, (a, b) in enumerate(zip(bdds_first, bdds_second)):
        if a != b:
            counterexample = _bdd_counterexample(
                manager, a, b, order, first.num_pis
            )
            return EquivalenceResult(
                equivalent=False,
                method="bdd",
                counterexample=counterexample,
                failing_output=index,
            )
    return EquivalenceResult(equivalent=True, method="bdd")


def _bdd_counterexample(
    manager, a: int, b: int, variable_order: Sequence[int], num_pis: int
) -> List[bool]:
    """Extract a distinguishing assignment from the XOR of two BDDs.

    ``a != b`` implies ``a XOR b`` is not the zero function; in a canonical
    ROBDD every non-zero node has a path to the ONE terminal, so a single
    top-down walk (preferring any non-zero child) finds a satisfying
    assignment.  Unconstrained inputs default to 0.
    """
    # BDD level of PI k is variable_order[k]; invert for the walk.
    pi_of_level = {level: k for k, level in enumerate(variable_order)}
    node = manager.xor_(a, b)
    assignment = [False] * num_pis
    while not manager.is_terminal(node):
        level = manager.variable_of(node)
        high = manager.high(node)
        if high != manager.zero():
            assignment[pi_of_level[level]] = True
            node = high
        else:
            node = manager.low(node)
    return assignment
