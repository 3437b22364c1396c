"""Simulation-guided SAT sweeping: the complete CEC backend for wide circuits.

The classical FRAIG recipe (Mishchenko et al.) as a pure-python engine
over the :mod:`repro.verify.cnf` gate graph and the
:mod:`repro.verify.sat` CDCL solver.  As in ABC's ``cec``, simulation
refutes what it can before any SAT work starts: both networks are first
simulated on the sweep's initial random patterns (through their cached
``simulate_patterns`` kernels), and the first primary-output pair that
differs there is refuted at once, with the primary-input values at its
lowest differing bit as the counterexample — nothing is encoded and the
solver is never called.  Pairs that agree on every initial pattern are
encoded — in topological order, over shared primary-input variables —
through one *proving* gate constructor:

1. Every gate is first **strashed** against everything encoded so far;
   structure shared between (or within) the two sides never even reaches
   the solver.
2. A genuinely new gate variable is simulated against the accumulated
   random patterns and looked up in the **candidate equivalence classes**
   (signatures normalized up to complementation, so antivalent nodes land
   in one class).
3. A signature collision is first tried as a **local proof**, in the
   spirit of BDD sweeping (Kuehlmann et al., TCAD 2002): every variable
   keeps one cut of at most four leaves with its truth table — the
   union of its fanins' cuts when that has at most four leaves, else
   its own fanin variables with its gate function — and a candidate
   whose leaf tuple and phase-adjusted table both equal its
   representative's is merged without SAT (equal functions of the same
   variables are equal on every input).  Unequal tables refute nothing,
   because the leaves may be correlated, so every other pair is discharged
   by **incremental SAT under assumptions** — two queries per candidate
   pair, ``(a, ¬b)`` and ``(¬a, b)``, on one solver.  Each query is
   **cone-scoped**: the solver decides only the variables of the pair's
   transitive fanin cone and answers SAT once they are all assigned, so
   a query costs the size of its cone, not of everything encoded so far
   (see the scope contract in :mod:`repro.verify.sat`).  The CNF is
   **lazy**: a gate's Tseitin clauses reach the solver only when the
   cone of a query first reaches the gate (as in ABC's FRAIG sweeping),
   so gates no query looks at — most of them, when cut tables prove the
   merges — are never encoded as clauses at all.  A *proven*
   pair is merged **by substitution**: the new gate's literal is
   replaced by its representative, so the entire downstream cone
   re-converges onto the representative's logic and the CNF stays the
   size of roughly one network (this, not equality clauses, is what
   keeps propagation local).  A *refuted* pair yields a distinguishing
   input pattern that is **queued for the simulator**; the primary
   inputs outside the cone, which the scoped model leaves unassigned,
   are filled with random bits (from an RNG seeded by the sweep
   ``seed``), so the pattern also splits unrelated false candidates
   instead of setting those inputs to zero.  Queued patterns are folded
   into the signatures lazily, ``probe_flush_bits`` at a time, in one sub-word
   vectorized pass through the graph kernel (see
   :meth:`_Sweeper.flush_refinements`).  Between flushes, lookups probe
   the *stale* candidate classes — sound, because signatures only ever
   extend (a refinement splits classes, never re-joins them), so a stale
   bucket is a superset of its refined descendants: equal functions are
   never missed, and a spurious stale collision costs one budgeted SAT
   refutation, never a wrong merge.  Queries that exhaust their conflict
   budget leave the candidate unmerged — soundness never depends on a
   merge.
4. After both networks are encoded, each primary-output pair is either
   already the *same literal* (proved structurally/by merge), or is
   decided by a final budgeted, cone-scoped SAT call per output on the
   same incremental solver, whose learned clauses make later pairs
   cheaper (a counterexample's inputs outside the cone are random):
   UNSAT proves the pair, SAT yields a counterexample, a blown budget
   reports *unknown*, and a caller may then run
   ``check_equivalence(method="bdd")``.

The entry point :func:`sat_sweep` works for any pair of same-interface
networks the CNF encoder understands (MIG, AIG, mapped netlist, mixed).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..codegen.graphsim import GraphSimKernel
from ..codegen.simgen import gate_function
from ..network.cuts import _TABLE_MASKS, _expand_positions
from .cnf import TRUE_LIT, GateGraph, encode_network, gate_clauses
from .sat import SAT, UNKNOWN, UNSAT, SatSolver

__all__ = ["SweepOutcome", "sat_sweep"]

#: Sweep verdicts.
EQUIVALENT = "equivalent"
INEQUIVALENT = "inequivalent"

#: Default refutation-batch width: flush queued counterexample patterns
#: into the signatures only once this many have accumulated, so each
#: flush is one sub-word vectorized kernel pass amortized over the batch
#: instead of a per-probe evaluation (``probe_flush_bits=1``).  Larger
#: batches cut flushes further but widen the staleness window — refuted
#: representatives linger in their candidate buckets and draw duplicate
#: budgeted SAT probes from later sig-identical candidates.  On the
#: refinement-heavy lane of ``benchmarks/bench_codegen.py`` (full size,
#: 2-CPU host, mean of two runs) widths 1 / 2 / 4 / 8 / 16 / 32 / 64
#: took 11.7 / 7.8 / 6.1 / 5.5 / 5.7 / 5.5 / 6.2 s.  Past 4 the curve is
#: flat within run-to-run noise (five alternating runs of 4 and 8: medians
#: 6.3 and 6.1 s, inside the 6.2-6.8 s range of 4's own runs), and 64
#: already spends the whole 512-refinement budget (1,308 SAT calls
#: against 1,155 at 4).  4 is the smallest width on the plateau.
_DEFAULT_PROBE_FLUSH_BITS = 4

#: Literals ``0, 2, 4, 6`` select operands ``0..3`` of a ``gate_function``
#: applied to a list of fanin cut tables.
_OPERAND_LITS = tuple(i << 1 for i in range(4))


@dataclass
class SweepOutcome:
    """Result of one :func:`sat_sweep` run."""

    status: str  # "equivalent" | "inequivalent" | "unknown"
    counterexample: Optional[List[bool]] = None
    failing_output: Optional[int] = None
    stats: dict = field(default_factory=dict)

    @property
    def proved(self) -> bool:
        return self.status == EQUIVALENT


class _Sweeper:
    """Encoding-time proving context shared by both networks."""

    def __init__(
        self,
        num_pis: int,
        seed: int,
        initial_patterns: int,
        merge_conflict_budget: int,
        max_refinements: int,
        probe_flush_bits: int = _DEFAULT_PROBE_FLUSH_BITS,
    ) -> None:
        if probe_flush_bits < 1:
            raise ValueError(f"probe_flush_bits must be >= 1, got {probe_flush_bits}")
        self.graph = GateGraph(num_pis)
        self.solver = SatSolver()
        self.solver.ensure_vars(self.graph.num_vars)
        self.solver.add_clause([TRUE_LIT])
        self.merge_conflict_budget = merge_conflict_budget
        self.max_refinements = max_refinements
        self.probe_flush_bits = probe_flush_bits

        #: Draws the initial patterns, then the free PIs of every model.
        self.rng = rng = random.Random(seed)
        self.num_bits = max(64, initial_patterns)
        self.pi_patterns = [rng.getrandbits(self.num_bits) for _ in range(num_pis)]
        self.mask = (1 << self.num_bits) - 1
        self.values: List[int] = [0] + [
            p & self.mask for p in self.pi_patterns
        ]

        #: Per variable: one cut of at most four leaves (sorted variable
        #: ids) and its truth table over them (see :meth:`_add_cut`).
        self.cut_leaves: List[Tuple[int, ...]] = [()] + [
            (var,) for var in range(1, 1 + num_pis)
        ]
        self.cut_tables: List[int] = [0] + [0b10] * num_pis

        #: signature -> list of phase-normalized representative literals.
        self.table: Dict[int, List[int]] = {}
        self.reps: List[int] = []
        for var in range(self.graph.num_vars):
            self._register(var)

        #: Refuted-pair distinguishing assignments awaiting simulation.
        #: Folding one counterexample at a time would cost a full-graph
        #: pass plus a table rebuild per refutation; queued columns are
        #: simulated together in one word-parallel pass (word width =
        #: batch size) through the graph kernel.
        self._pending: List[List[bool]] = []
        self._kernel = GraphSimKernel(self.graph)
        #: Per-variable visit stamps of the cone walk (see :meth:`load_cone`).
        self._stamp: List[int] = []
        self._epoch = 0
        #: Per variable: 1 once its gate's clauses are in the solver.
        self._loaded = bytearray()

        self.stats = {
            "sat_calls": 0,
            "merges": 0,
            "local_merges": 0,
            "refinements": 0,
            "batched_flushes": 0,
            "unresolved": 0,
        }

    # -- solver bookkeeping -------------------------------------------- #
    def model_assignment(self) -> List[bool]:
        """PI values of the last model; PIs it left unassigned are random."""
        num_pis = self.graph.num_pis
        fill = self.rng.getrandbits(num_pis)
        assignment = []
        for i in range(num_pis):
            value = self.solver.model_value((1 + i) << 1)
            assignment.append(bool(fill >> i & 1) if value is None else value)
        return assignment

    def load_cone(self, a: int, b: int) -> List[int]:
        """Variables of the transitive fanin cone of literals ``a`` and ``b``.

        The scope of a query on the pair: closed under fanins by
        construction, as :meth:`SatSolver.solve` requires.  The walk
        also loads the clauses of every cone gate the solver does not
        hold yet, so a gate's clauses reach the solver only once some
        query needs them.  Visits are marked with a per-walk epoch, so
        no walk clears the marks.
        """
        graph = self.graph
        num_vars = graph.num_vars
        solver = self.solver
        solver.ensure_vars(num_vars)
        stamp = self._stamp
        loaded = self._loaded
        if len(stamp) < num_vars:
            stamp.extend([0] * (num_vars - len(stamp)))
            loaded.extend(bytes(num_vars - len(loaded)))
        self._epoch += 1
        epoch = self._epoch
        gates = graph.gates
        first_gate = 1 + graph.num_pis
        add_clause = solver.add_clause
        cone = []
        stack = [a, b]
        while stack:
            var = stack.pop() >> 1
            if stamp[var] != epoch:
                stamp[var] = epoch
                cone.append(var)
                if var >= first_gate:
                    gate = gates[var - first_gate]
                    stack.extend(gate[2])
                    if not loaded[var]:
                        loaded[var] = 1
                        for clause in gate_clauses(*gate):
                            add_clause(clause)
        return cone

    def decide_pair(self, a: int, b: int, budget: int) -> str:
        """Decide ``a == b`` by two budgeted queries on the pair's cone.

        The solver holds the clauses of every gate some query's cone has
        reached, this one's included (:meth:`load_cone`): all the scope
        contract of :meth:`SatSolver.solve` asks for.

        :data:`SAT` (a distinguishing model is loaded), :data:`UNSAT`
        (proved equal) or :data:`UNKNOWN` (a query ran out of budget).
        """
        scope = self.load_cone(a, b)
        verdict = UNSAT
        for assumptions in ([a, b ^ 1], [a ^ 1, b]):
            self.stats["sat_calls"] += 1
            res = self.solver.solve(assumptions, max_conflicts=budget, scope=scope)
            if res == SAT:
                return SAT
            if res == UNKNOWN:
                verdict = UNKNOWN
        return verdict

    # -- candidate classes --------------------------------------------- #
    def _register(self, var: int) -> None:
        sig = self.values[var]
        phase = sig & 1
        key = sig ^ (self.mask if phase else 0)
        self.table.setdefault(key, []).append((var << 1) | phase)
        self.reps.append(var)

    def _learn_pattern(self) -> None:
        """Queue the solver model as a refuting simulation pattern.

        The column is *not* simulated here: patterns accumulate in
        ``_pending`` and are folded into the signatures by
        :meth:`flush_refinements` in one word-parallel batch.  Deferring
        is sound because signatures are only a merge *heuristic* — every
        merge is proved by SAT regardless of how stale the candidate
        classes are.
        """
        self._pending.append(self.model_assignment())
        self.stats["refinements"] += 1

    def flush_refinements(self) -> None:
        """Fold all queued refuting patterns into the signatures at once.

        One batch costs a single pass over the gate list — word-parallel
        across the queued columns, through the graph kernel — and a
        single candidate-table rebuild, where the
        one-at-a-time protocol paid both per refutation.  Bit order
        matches sequential folding: the oldest queued pattern lands on the
        highest of the new low bits, the newest on bit 0.
        """
        pending = self._pending
        if not pending:
            return
        self._pending = []
        self.stats["batched_flushes"] += 1
        width = len(pending)
        num_pis = self.graph.num_pis
        batch_mask = (1 << width) - 1
        columns = [0] * (1 + num_pis)
        for shift, assignment in zip(range(width - 1, -1, -1), pending):
            for i in range(num_pis):
                if assignment[i]:
                    columns[1 + i] |= 1 << shift
        for i in range(num_pis):
            self.pi_patterns[i] = (self.pi_patterns[i] << width) | columns[1 + i]
        self.num_bits += width
        self.mask = (1 << self.num_bits) - 1

        num_vars = self.graph.num_vars
        columns.extend([0] * (num_vars - len(columns)))
        self._kernel.eval_into(columns, batch_mask)
        values = self.values
        for var in range(num_vars):
            values[var] = (values[var] << width) | columns[var]
        mask = self.mask
        table: Dict[int, List[int]] = {}
        for var in self.reps:
            sig = values[var]
            if sig & 1:
                table.setdefault(sig ^ mask, []).append((var << 1) | 1)
            else:
                table.setdefault(sig, []).append(var << 1)
        self.table = table

    # -- the proving gate constructor ---------------------------------- #
    def add_gate(self, tt: int, in_lits) -> int:
        before = self.graph.num_vars
        lit = self.graph.add_gate(tt, in_lits)
        if self.graph.num_vars == before:
            return lit  # constant-folded or structural hit: already canonical
        var, gate_tt, gate_lits = self.graph.gates[-1]
        out_flip = lit & 1
        evaluate = gate_function(gate_tt, len(gate_lits))
        self.values.append(evaluate(self.values, gate_lits, self.mask))
        self._add_cut(gate_tt, gate_lits, evaluate)

        # Threshold flush: queued refutations reach the signatures only
        # once a full sub-word batch has accumulated, so each flush is a
        # single vectorized kernel pass amortized over ``probe_flush_bits``
        # probes.  The lookup below then scans the (possibly stale) bucket
        # exactly once — a stale bucket is a superset of its refined
        # descendants (signatures only extend, so refinement splits
        # classes, never re-joins them), which means a rep provable equal
        # under fully refined signatures is necessarily in this bucket,
        # and any stale impostor costs one budgeted SAT refutation, never
        # a wrong merge.
        if len(self._pending) >= self.probe_flush_bits:
            self.flush_refinements()
        sig = self.values[var]
        phase = sig & 1
        key = sig ^ (self.mask if phase else 0)
        cand = (var << 1) | phase
        for rep_lit in self.table.get(key, ()):
            refine = self.stats["refinements"] < self.max_refinements
            verdict = self._prove_pair(rep_lit, cand, refine)
            if verdict == "equal":
                self.stats["merges"] += 1
                # Substitution: the caller wires its cone to the
                # representative; ``var`` becomes a dangling alias.
                return rep_lit ^ phase ^ out_flip
        self._register(var)
        return lit

    def _add_cut(self, tt: int, lits, evaluate) -> None:
        """Record the cut of the gate variable just added.

        The union of the fanins' cuts when it has at most four leaves,
        with the gate function applied to their tables re-expressed over
        it; otherwise the gate's own fanin variables with its table
        (stored gates have uncomplemented, sorted inputs, so ``tt`` is
        already the function of those variables in leaf order).  Gates
        have at most three inputs: MIG, AIG and library cells.
        """
        cut_leaves = self.cut_leaves
        cut_tables = self.cut_tables
        fanins = [lit >> 1 for lit in lits]
        union = set()
        for fanin in fanins:
            union.update(cut_leaves[fanin])
        if len(union) <= 4:
            leaves = tuple(sorted(union))
            size = len(leaves)
            tables = []
            for fanin in fanins:
                child = cut_leaves[fanin]
                table = cut_tables[fanin]
                if child != leaves:
                    table = _expand_positions(
                        table, tuple([leaves.index(leaf) for leaf in child]), size
                    )
                tables.append(table)
            table = evaluate(tables, _OPERAND_LITS, _TABLE_MASKS[size])
        else:
            leaves, table = tuple(fanins), tt
        cut_leaves.append(leaves)
        cut_tables.append(table)

    def _prove_pair(self, rep_lit: int, cand_lit: int, refine: bool) -> str:
        rep, cand = rep_lit >> 1, cand_lit >> 1
        leaves = self.cut_leaves[cand]
        if leaves == self.cut_leaves[rep]:
            # Same leaves: equal phase-adjusted tables prove the pair.
            flip = _TABLE_MASKS[len(leaves)] if (rep_lit ^ cand_lit) & 1 else 0
            if self.cut_tables[cand] ^ self.cut_tables[rep] == flip:
                self.stats["local_merges"] += 1
                return "equal"
        verdict = self.decide_pair(rep_lit, cand_lit, self.merge_conflict_budget)
        if verdict == SAT:
            if refine:
                self._learn_pattern()
            return "refuted"
        if verdict == UNSAT:
            return "equal"
        self.stats["unresolved"] += 1
        return "unknown"


def sat_sweep(
    first,
    second,
    seed: int = 7,
    initial_patterns: int = 128,
    merge_conflict_budget: int = 2_000,
    output_conflict_budget: int = 200_000,
    max_refinements: int = 512,
    probe_flush_bits: int = _DEFAULT_PROBE_FLUSH_BITS,
) -> SweepOutcome:
    """Decide equivalence of ``first`` and ``second`` by SAT sweeping.

    ``initial_patterns`` random patterns (at least 64) are drawn from
    ``random.Random(seed)``, one ``getrandbits`` per primary input in
    order, as ``check_equivalence(method="random")`` draws its vectors;
    they also start the candidate signatures, so wider patterns leave
    fewer false candidates for SAT to refute.  The default of 128 is
    this function's own; ``check_equivalence``'s auto dispatch passes
    its ``num_random_vectors`` (4,096 by default) instead.

    The first step simulates both networks on the initial random
    patterns and returns ``inequivalent`` at the first primary-output
    pair that differs on them, before any gate is encoded (its ``stats``
    carry every key of a full sweep, with no gate encoded or loaded and
    no SAT call made).  Otherwise the sweep is complete up to
    ``output_conflict_budget``: every primary-output pair
    is either merged during encoding, proved by a final SAT call, refuted
    with a counterexample, or — only if that final call blows its budget —
    reported as ``status="unknown"``.  Internal merge queries are budgeted
    separately (``merge_conflict_budget``) because a failed merge only
    costs later queries some sharing, never soundness.

    ``probe_flush_bits`` sets the refutation-batch width: queued
    counterexample patterns are folded into the simulation signatures in
    sub-word vectorized batches of this size (``1`` recovers the
    per-probe flushing baseline; the verdict is identical either way —
    only the flush count and wall clock change).
    """
    if first.num_pis != second.num_pis:
        raise ValueError(
            f"PI count mismatch: {first.num_pis} vs {second.num_pis}"
        )
    if first.num_pos != second.num_pos:
        raise ValueError(
            f"PO count mismatch: {first.num_pos} vs {second.num_pos}"
        )

    sweeper = _Sweeper(
        first.num_pis,
        seed,
        initial_patterns,
        merge_conflict_budget,
        max_refinements,
        probe_flush_bits,
    )
    graph = sweeper.graph
    stats = sweeper.stats

    def finish(outcome: SweepOutcome) -> SweepOutcome:
        solver = sweeper.solver
        stats["gates"] = len(graph.gates)
        stats["vars"] = graph.num_vars
        stats["conflicts"] = solver.num_conflicts
        stats["decisions"] = solver.num_decisions
        stats["propagations"] = solver.num_propagations
        stats["patterns"] = sweeper.num_bits
        stats["loaded_gates"] = sweeper._loaded.count(1)
        outcome.stats = stats
        return outcome

    def mismatch(outputs_first, outputs_second) -> Optional[SweepOutcome]:
        """Refutation from the first PO pair that differs on the patterns."""
        for index, (a, b) in enumerate(zip(outputs_first, outputs_second)):
            diff = a ^ b
            if diff:
                bit = (diff & -diff).bit_length() - 1
                counterexample = [
                    bool((pattern >> bit) & 1) for pattern in sweeper.pi_patterns
                ]
                return finish(SweepOutcome(INEQUIVALENT, counterexample, index))
        return None

    # Most inequivalent pairs already differ on the initial patterns:
    # refute them before encoding anything.
    num_bits = sweeper.num_bits
    refuted = mismatch(
        first.simulate_patterns(sweeper.pi_patterns, num_bits),
        second.simulate_patterns(sweeper.pi_patterns, num_bits),
    )
    if refuted is not None:
        return refuted

    pos_first = encode_network(graph, first, add_gate=sweeper.add_gate)
    pos_second = encode_network(graph, second, add_gate=sweeper.add_gate)
    # Patterns queued by the last candidate lookups must reach the
    # signatures before the simulated-mismatch scan below can trust them.
    sweeper.flush_refinements()

    # Simulated mismatches on the accumulated patterns are counterexamples.
    mask = sweeper.mask
    values = sweeper.values
    refuted = mismatch(
        (graph.lit_value(values, a, mask) for a in pos_first),
        (graph.lit_value(values, b, mask) for b in pos_second),
    )
    if refuted is not None:
        return refuted

    # Final, complete decision per unmerged primary-output pair.
    unknown = False
    for index, (a, b) in enumerate(zip(pos_first, pos_second)):
        if a == b:
            continue  # merged during encoding: already proved
        verdict = sweeper.decide_pair(a, b, output_conflict_budget)
        if verdict == SAT:
            return finish(
                SweepOutcome(INEQUIVALENT, sweeper.model_assignment(), index)
            )
        if verdict == UNKNOWN:
            # Budget blown on this pair: keep scanning the remaining
            # outputs — a later pair may still yield a cheap refutation.
            unknown = True
    if unknown:
        return finish(SweepOutcome(UNKNOWN))
    return finish(SweepOutcome(EQUIVALENT))
