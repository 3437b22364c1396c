"""A small CDCL SAT solver (the decision engine behind the SAT-based CEC).

This is a classic conflict-driven clause-learning solver in the MiniSat
lineage, self-contained and pure python so the equivalence checker has a
*complete* decision procedure with no external dependencies:

* **two-watched-literal** propagation (clauses are only touched when one of
  their two watched literals becomes false);
* **first-UIP conflict analysis** producing one asserting learned clause
  per conflict, with non-chronological backjumping;
* **VSIDS-style variable activity** (bump on conflict participation,
  exponential decay via an increasing increment, lazy max-heap decisions)
  with **phase saving**;
* **Luby restarts**;
* **incremental solving under assumptions**: assumptions are enqueued as
  the first decisions of every :meth:`SatSolver.solve` call, so learned
  clauses are sound across calls and the sweeping engine can discharge
  thousands of candidate-equivalence queries against one clause database;
* **scoped decisions**: a :meth:`SatSolver.solve` call may name the
  query's variable set (``scope``).  Only scope variables are then
  decision candidates, and the call answers SAT as soon as every scope
  variable is assigned without conflict — other variables are assigned
  only by propagation.  The contract: the clauses are per-gate Tseitin
  clauses of a gate graph (plus clauses they imply); the scope is closed
  under fanins in that graph; and before the query, the clauses of
  every gate in the scope have been loaded.  Gates outside the scope may
  be loaded or not.  Every loaded clause outside the scope can then be
  satisfied by evaluating the remaining gates from any values of the
  remaining inputs, and learned clauses are implied by the formula, so
  UNSAT is sound (it is derived from a subset of the graph's true
  constraints) and a SAT model's values on the scope's inputs are a
  real witness.  An equivalence query thus decides only the fanin cone
  of its two literals, however many other networks the clause database
  holds (the decision-flag mechanism of MiniSat, Eén & Sörensson, SAT
  2003);
* a **conflict budget** per call — :data:`UNKNOWN` is a first-class
  answer, letting callers fall back to another proof engine instead of
  hanging on a hard instance;
* **LBD-based learned-clause database reduction** (Glucose-style): each
  learned clause records its literal-block distance — the number of
  distinct decision levels among its literals at learning time — and
  when the database exceeds a geometrically growing limit the worst
  (highest-LBD, then longest) half of the deletable clauses is dropped.
  Glue clauses (LBD ≤ 2) and clauses currently acting as propagation
  reasons are never deleted, so the reduction is sound mid-search.
  Long-lived incremental sessions — a sweeping worker discharging
  thousands of queries against one solver — therefore hold memory
  roughly constant instead of growing without bound; deletions are
  visible in :attr:`SatSolver.stats` (``clauses_deleted``).

Literal encoding follows the network-signal convention of
:mod:`repro.core.signal`: literal ``2*v`` is variable ``v``, literal
``2*v + 1`` is its negation, so ``lit ^ 1`` negates a literal.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Iterable, List, Optional, Sequence

__all__ = ["SatSolver", "SAT", "UNSAT", "UNKNOWN"]

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"

#: Sentinel for an unassigned literal value (values are 0 / 1 / _UNASSIGNED).
_UNASSIGNED = -1


def _luby(i: int) -> int:
    """The ``i``-th element (1-based) of the Luby restart sequence."""
    x = i - 1
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x %= size
    return 1 << seq


class SatSolver:
    """An incremental CDCL solver over clauses of integer literals."""

    def __init__(
        self, reduce_base: int = 4000, reduce_growth: float = 1.3
    ) -> None:
        self._num_vars = 0
        # Per-literal truth value (index = literal); per-variable metadata.
        self._value: List[int] = []
        self._watches: List[List[list]] = []
        self._level: List[int] = []
        self._reason: List[Optional[list]] = []
        self._activity: List[float] = []
        self._phase: List[int] = []
        self._seen: List[int] = []
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._qhead = 0
        self._heap: List[tuple] = []
        # Decision scope of the last solve (``None``: every variable).  The
        # heap holds every unassigned scope variable and nothing else, so
        # a solve over an equal scope reuses it.
        self._scope: Optional[set] = None
        self._var_inc = 1.0
        self._var_decay = 1.0 / 0.95
        self._ok = True
        self._model: Optional[List[int]] = None
        # Learned-clause database: the clause lists plus their LBD scores
        # (keyed by clause identity — clauses are mutable lists, equal
        # contents must not alias).  ``_reduce_limit`` grows geometrically
        # so reductions stay rare on easy runs.
        self._learnts: List[list] = []
        self._lbd: dict = {}
        self._reduce_limit = max(100, int(reduce_base))
        self._reduce_growth = max(1.01, float(reduce_growth))
        # Statistics (exposed read-only through :attr:`stats`).
        self.num_conflicts = 0
        self.num_decisions = 0
        self.num_propagations = 0
        self.num_solve_calls = 0
        self.num_reductions = 0
        self.num_clauses_deleted = 0

    # ------------------------------------------------------------------ #
    # Problem construction
    # ------------------------------------------------------------------ #
    def new_var(self) -> int:
        """Allocate a fresh variable; returns its index."""
        v = self._num_vars
        self._num_vars += 1
        self._value.extend((_UNASSIGNED, _UNASSIGNED))
        self._watches.extend(([], []))
        self._level.append(0)
        self._reason.append(None)
        self._activity.append(0.0)
        self._phase.append(1)  # default polarity: negative (lit 2v+1 true)
        self._seen.append(0)
        if self._scope is None:
            heappush(self._heap, (0.0, v))
        return v

    def ensure_vars(self, count: int) -> None:
        """Grow the variable pool so indices ``0 .. count-1`` are valid.

        Leaves the same state as ``count - num_vars`` :meth:`new_var`
        calls, built in bulk.
        """
        start = self._num_vars
        if count <= start:
            return
        n = count - start
        self._num_vars = count
        self._value.extend([_UNASSIGNED] * (2 * n))
        self._watches.extend([] for _ in range(2 * n))
        self._level.extend([0] * n)
        self._reason.extend([None] * n)
        self._activity.extend([0.0] * n)
        self._phase.extend([1] * n)
        self._seen.extend([0] * n)
        if self._scope is None:
            # Activities are never negative and ``v`` exceeds every queued
            # variable, so each ``(0.0, v)`` is >= every entry already in
            # the heap: ``heappush`` would never sift it, and appending
            # yields the same heap.
            self._heap.extend((0.0, v) for v in range(start, count))

    def add_clause(self, lits: Iterable[int]) -> bool:
        """Add a clause; returns ``False`` when the formula became UNSAT.

        Must be called with the solver at decision level 0 (which is where
        :meth:`solve` always leaves it).  Tautologies are dropped, false
        root-level literals removed, duplicate literals merged.
        """
        if not self._ok:
            return False
        assert not self._trail_lim, "add_clause requires decision level 0"
        value = self._value
        clause: List[int] = []
        seen = set()
        for lit in lits:
            if lit ^ 1 in seen:
                return True  # tautology
            if lit in seen:
                continue
            v = value[lit]
            if v == 1:
                return True  # already satisfied at root level
            if v == 0:
                continue  # false at root level: drop the literal
            seen.add(lit)
            clause.append(lit)
        if not clause:
            self._ok = False
            return False
        if len(clause) == 1:
            self._enqueue(clause[0], None)
            self._ok = self._propagate() is None
            return self._ok
        self._attach(clause)
        return True

    def _attach(self, clause: list) -> None:
        self._watches[clause[0]].append(clause)
        self._watches[clause[1]].append(clause)

    @property
    def num_vars(self) -> int:
        return self._num_vars

    @property
    def stats(self) -> dict:
        return {
            "conflicts": self.num_conflicts,
            "decisions": self.num_decisions,
            "propagations": self.num_propagations,
            "solve_calls": self.num_solve_calls,
            "learnt_clauses": len(self._learnts),
            "reductions": self.num_reductions,
            "clauses_deleted": self.num_clauses_deleted,
        }

    # ------------------------------------------------------------------ #
    # Solving
    # ------------------------------------------------------------------ #
    def solve(
        self,
        assumptions: Sequence[int] = (),
        max_conflicts: Optional[int] = None,
        scope: Optional[Sequence[int]] = None,
    ) -> str:
        """Decide satisfiability under ``assumptions``.

        Returns :data:`SAT` (model available via :meth:`model_value`),
        :data:`UNSAT`, or :data:`UNKNOWN` when the conflict budget ran out.
        The solver is left at decision level 0 with all learned clauses
        retained, so follow-up calls get monotonically stronger.

        ``scope`` restricts the search to a set of variables that holds
        every assumption variable: only scope variables are decided, and
        the answer is SAT once all of them are assigned without conflict.
        The caller guarantees the contract in the module docstring — the
        clauses are per-gate Tseitin clauses, the scope is closed under
        fanins, and every scope gate's clauses are loaded — under which
        UNSAT is sound and the model's values on the
        scope's inputs are a real witness; variables outside the scope may
        be left unassigned in the model.  With no scope every variable is
        a decision candidate.
        """
        self.num_solve_calls += 1
        if not self._ok:
            return UNSAT
        self._cancel_until(0)
        assumptions = list(assumptions)
        for lit in assumptions:
            if lit >> 1 >= self._num_vars:
                raise ValueError(f"assumption literal {lit} references unknown variable")

        budget = None if max_conflicts is None else self.num_conflicts + max_conflicts
        if scope is not None:
            scope = set(scope)
            if scope and (min(scope) < 0 or max(scope) >= self._num_vars):
                raise ValueError("scope names an unknown variable")
            for lit in assumptions:
                if lit >> 1 not in scope:
                    raise ValueError(f"assumption literal {lit} lies outside the scope")
        if scope != self._scope:
            self._scope = scope
            self._rebuild_heap(range(self._num_vars) if scope is None else scope)

        restart_round = 0
        value = self._value
        while True:
            restart_round += 1
            conflicts_left = _luby(restart_round) * 128
            while True:
                confl = self._propagate()
                if confl is not None:
                    self.num_conflicts += 1
                    conflicts_left -= 1
                    if not self._trail_lim:
                        self._ok = False
                        return UNSAT
                    learnt, bt_level = self._analyze(confl)
                    if len(learnt) > 1:
                        # LBD must be read before backjumping unassigns
                        # the literals' decision levels.
                        level = self._level
                        lbd = len({level[q >> 1] for q in learnt})
                    self._cancel_until(bt_level)
                    if len(learnt) == 1:
                        self._enqueue(learnt[0], None)
                    else:
                        self._attach(learnt)
                        self._enqueue(learnt[0], learnt)
                        self._learnts.append(learnt)
                        self._lbd[id(learnt)] = lbd
                        if len(self._learnts) >= self._reduce_limit:
                            self._reduce_db()
                    self._var_inc *= self._var_decay
                    if self._var_inc > 1e100:
                        self._rescale_activity()
                    if budget is not None and self.num_conflicts >= budget:
                        self._cancel_until(0)
                        return UNKNOWN
                    if conflicts_left <= 0:
                        self._cancel_until(0)
                        break  # restart
                    continue

                # No conflict: enqueue the next assumption or decide.
                if len(self._trail_lim) < len(assumptions):
                    lit = assumptions[len(self._trail_lim)]
                    v = value[lit]
                    if v == 1:
                        # Already implied: open a dummy level so the
                        # level-to-assumption correspondence is kept.
                        self._trail_lim.append(len(self._trail))
                        continue
                    if v == 0:
                        self._cancel_until(0)
                        return UNSAT  # assumptions conflict with the formula
                    self._trail_lim.append(len(self._trail))
                    self._enqueue(lit, None)
                    continue

                lit = self._pick_branch()
                if lit is None:
                    self._model = self._value[:]
                    self._cancel_until(0)
                    return SAT
                self.num_decisions += 1
                self._trail_lim.append(len(self._trail))
                self._enqueue(lit, None)

    def model_value(self, lit: int) -> Optional[bool]:
        """Truth value of ``lit`` in the most recent satisfying model.

        ``None`` when a scoped solve left the variable unassigned; a solve
        with no scope assigns every variable.
        """
        if self._model is None:
            raise RuntimeError("no model available (last solve was not SAT)")
        v = self._model[lit]
        return None if v == _UNASSIGNED else v == 1

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _enqueue(self, lit: int, reason: Optional[list]) -> None:
        self._value[lit] = 1
        self._value[lit ^ 1] = 0
        var = lit >> 1
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(lit)

    def _propagate(self) -> Optional[list]:
        """Unit propagation; returns a conflicting clause or ``None``."""
        value = self._value
        watches = self._watches
        trail = self._trail
        while self._qhead < len(trail):
            p = trail[self._qhead]
            self._qhead += 1
            self.num_propagations += 1
            false_lit = p ^ 1
            ws = watches[false_lit]
            if not ws:
                continue
            watches[false_lit] = kept = []
            i = 0
            n = len(ws)
            while i < n:
                clause = ws[i]
                i += 1
                # Ensure the false literal sits at position 1.
                if clause[0] == false_lit:
                    clause[0] = clause[1]
                    clause[1] = false_lit
                first = clause[0]
                if value[first] == 1:
                    kept.append(clause)
                    continue
                # Search for a replacement watch.
                swapped = False
                for k in range(2, len(clause)):
                    lit = clause[k]
                    if value[lit] != 0:
                        clause[1] = lit
                        clause[k] = false_lit
                        watches[lit].append(clause)
                        swapped = True
                        break
                if swapped:
                    continue
                kept.append(clause)
                if value[first] == 0:
                    # Conflict: retain the unvisited watchers and report.
                    kept.extend(ws[i:])
                    self._qhead = len(trail)
                    return clause
                self._enqueue(first, clause)
        return None

    def _analyze(self, confl: list) -> tuple:
        """First-UIP conflict analysis; returns ``(learnt, backtrack_level)``.

        ``learnt[0]`` is the asserting literal.
        """
        seen = self._seen
        level = self._level
        reason = self._reason
        trail = self._trail
        cur_level = len(self._trail_lim)
        learnt: List[int] = [0]
        to_clear: List[int] = []
        counter = 0
        p = None
        index = len(trail) - 1
        while True:
            start = 0 if p is None else 1
            for k in range(start, len(confl)):
                q = confl[k]
                v = q >> 1
                if not seen[v] and level[v] > 0:
                    seen[v] = 1
                    to_clear.append(v)
                    self._bump(v)
                    if level[v] >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[trail[index] >> 1]:
                index -= 1
            p = trail[index]
            index -= 1
            v = p >> 1
            seen[v] = 0
            counter -= 1
            if counter == 0:
                break
            confl = reason[v]
        learnt[0] = p ^ 1

        # Cheap clause minimization: drop literals implied by the rest of
        # the clause through their (fully-seen) reason clauses.
        if len(learnt) > 2:
            minimized = [learnt[0]]
            for q in learnt[1:]:
                r = reason[q >> 1]
                if r is None or any(
                    not seen[lit >> 1] and level[lit >> 1] > 0 for lit in r[1:]
                ):
                    minimized.append(q)
            learnt = minimized

        for v in to_clear:
            seen[v] = 0

        if len(learnt) == 1:
            return learnt, 0
        # Move the literal with the highest level to position 1; that level
        # is the backjump target (where the learned clause asserts).
        max_i = 1
        for k in range(2, len(learnt)):
            if level[learnt[k] >> 1] > level[learnt[max_i] >> 1]:
                max_i = k
        learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
        return learnt, level[learnt[1] >> 1]

    def _reduce_db(self) -> None:
        """Drop the worst half of the deletable learned clauses.

        Learned clauses are implied by the problem clauses, so deletion
        never affects soundness — only which propagations come for free.
        Protected from deletion: glue clauses (LBD ≤ 2, the Glucose
        criterion for clauses worth keeping forever) and clauses
        currently referenced as a propagation reason on the trail (their
        list objects back implication-graph edges).  Runs at any decision
        level; the limit then grows geometrically so a run that keeps
        learning useful clauses is not throttled.
        """
        lbd = self._lbd
        reason_ids = {id(r) for r in self._reason if r is not None}
        keep: List[list] = []
        deletable: List[list] = []
        for clause in self._learnts:
            if lbd[id(clause)] <= 2 or id(clause) in reason_ids:
                keep.append(clause)
            else:
                deletable.append(clause)
        deletable.sort(key=lambda c: (-lbd[id(c)], -len(c)))
        cut = len(deletable) // 2
        deleted, kept_tail = deletable[:cut], deletable[cut:]
        if deleted:
            watches = self._watches
            deleted_ids = {id(c) for c in deleted}
            for lit in {lit for c in deleted for lit in (c[0], c[1])}:
                watches[lit] = [
                    c for c in watches[lit] if id(c) not in deleted_ids
                ]
            for c in deleted:
                del lbd[id(c)]
            self.num_clauses_deleted += len(deleted)
        self._learnts = keep + kept_tail
        self.num_reductions += 1
        self._reduce_limit = int(self._reduce_limit * self._reduce_growth)

    def _cancel_until(self, target_level: int) -> None:
        if len(self._trail_lim) <= target_level:
            return
        value = self._value
        bound = self._trail_lim[target_level]
        heap = self._heap
        activity = self._activity
        scope = self._scope
        for k in range(len(self._trail) - 1, bound - 1, -1):
            lit = self._trail[k]
            var = lit >> 1
            self._phase[var] = lit & 1
            value[lit] = _UNASSIGNED
            value[lit ^ 1] = _UNASSIGNED
            self._reason[var] = None
            if scope is None or var in scope:
                heappush(heap, (-activity[var], var))
        del self._trail[bound:]
        del self._trail_lim[target_level:]
        self._qhead = min(self._qhead, bound)

    def _pick_branch(self) -> Optional[int]:
        value = self._value
        heap = self._heap
        activity = self._activity
        while heap:
            score, var = heappop(heap)
            if value[var << 1] != _UNASSIGNED:
                continue
            if -score != activity[var]:
                heappush(heap, (-activity[var], var))
                continue
            return (var << 1) | self._phase[var]
        # Heap exhausted: fall back to a linear scan (stale entries only).
        for var in range(self._num_vars) if self._scope is None else self._scope:
            if value[var << 1] == _UNASSIGNED:
                return (var << 1) | self._phase[var]
        return None

    def _bump(self, var: int) -> None:
        self._activity[var] += self._var_inc
        if self._scope is None or var in self._scope:
            heappush(self._heap, (-self._activity[var], var))

    def _rescale_activity(self) -> None:
        scale = 1e-100
        self._activity = [a * scale for a in self._activity]
        self._var_inc *= scale
        self._rebuild_heap(
            range(self._num_vars) if self._scope is None else self._scope
        )

    def _rebuild_heap(self, variables: Iterable[int]) -> None:
        """Make the decision heap hold exactly the unassigned ``variables``."""
        activity = self._activity
        value = self._value
        self._heap = [(-activity[v], v) for v in variables
                      if value[v << 1] == _UNASSIGNED]
        heapify(self._heap)
