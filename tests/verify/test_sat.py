"""Unit tests for the CDCL SAT solver (verify/sat.py)."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.verify.cnf import GateGraph, encode_network
from repro.verify.sat import SAT, UNKNOWN, UNSAT, SatSolver


def _lit_true(lit, assignment):
    return assignment[lit >> 1] != (lit & 1)


def _brute_force_sat(num_vars, clauses):
    return any(
        all(any(_lit_true(l, asg) for l in c) for c in clauses)
        for asg in itertools.product((0, 1), repeat=num_vars)
    )


def _pigeonhole(pigeons, holes):
    """PHP(p, h): p pigeons into h holes, one each — UNSAT when p > h."""
    solver = SatSolver()
    var = [[solver.new_var() for _ in range(holes)] for _ in range(pigeons)]
    for i in range(pigeons):
        solver.add_clause([var[i][j] << 1 for j in range(holes)])
    for j in range(holes):
        for a in range(pigeons):
            for b in range(a + 1, pigeons):
                solver.add_clause([(var[a][j] << 1) | 1, (var[b][j] << 1) | 1])
    return solver


class TestBasics:
    def test_empty_formula_is_sat(self):
        assert SatSolver().solve() == SAT

    def test_unit_propagation_chain(self):
        s = SatSolver()
        a, b, c = (s.new_var() for _ in range(3))
        s.add_clause([a << 1])
        s.add_clause([(a << 1) | 1, b << 1])
        s.add_clause([(b << 1) | 1, c << 1])
        assert s.solve() == SAT
        assert s.model_value(a << 1) and s.model_value(b << 1) and s.model_value(c << 1)

    def test_contradiction_is_unsat(self):
        s = SatSolver()
        a = s.new_var()
        s.add_clause([a << 1])
        assert not s.add_clause([(a << 1) | 1])
        assert s.solve() == UNSAT

    def test_tautology_and_duplicates_are_harmless(self):
        s = SatSolver()
        a, b = s.new_var(), s.new_var()
        assert s.add_clause([a << 1, (a << 1) | 1])  # tautology: dropped
        assert s.add_clause([b << 1, b << 1, a << 1])  # duplicate literal
        assert s.solve() == SAT

    def test_model_value_requires_model(self):
        s = SatSolver()
        a = s.new_var()
        with pytest.raises(RuntimeError):
            s.model_value(a << 1)


class TestAgainstBruteForce:
    def test_random_3sat_instances(self):
        rng = random.Random(42)
        for trial in range(80):
            n = rng.randint(3, 8)
            m = rng.randint(3, 45)
            clauses = []
            for _ in range(m):
                vs = rng.sample(range(n), rng.randint(1, 3))
                clauses.append([(v << 1) | rng.randint(0, 1) for v in vs])
            expected = SAT if _brute_force_sat(n, clauses) else UNSAT
            solver = SatSolver()
            solver.ensure_vars(n)
            feasible = True
            for clause in clauses:
                if not solver.add_clause(clause):
                    feasible = False
                    break
            result = solver.solve() if feasible else UNSAT
            assert result == expected, (trial, clauses)
            if result == SAT:
                model = [solver.model_value(v << 1) for v in range(n)]
                assert all(
                    any(model[l >> 1] != (l & 1) for l in c) for c in clauses
                ), (trial, "model does not satisfy the formula")


class TestPigeonhole:
    def test_php_unsat(self):
        assert _pigeonhole(5, 4).solve() == UNSAT

    def test_php_sat_when_roomy(self):
        assert _pigeonhole(4, 4).solve() == SAT

    def test_conflict_budget_yields_unknown(self):
        solver = _pigeonhole(7, 6)
        assert solver.solve(max_conflicts=20) == UNKNOWN
        # The clause database survived; a bigger budget settles it.
        assert solver.solve(max_conflicts=1_000_000) == UNSAT


class TestAssumptions:
    def test_assumption_forcing_and_reuse(self):
        s = SatSolver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([a << 1, b << 1])
        assert s.solve([(a << 1) | 1, (b << 1) | 1]) == UNSAT
        assert s.solve([(a << 1) | 1]) == SAT
        assert s.model_value(b << 1)
        # Without assumptions the formula is still satisfiable (incremental
        # solving must not have polluted the database).
        assert s.solve() == SAT

    def test_assumption_conflicting_with_unit_clause(self):
        s = SatSolver()
        a = s.new_var()
        s.add_clause([a << 1])
        assert s.solve([(a << 1) | 1]) == UNSAT
        assert s.solve([a << 1]) == SAT

    def test_many_incremental_calls_stay_consistent(self):
        # An equality chain x0 == x1 == ... == x7: any polarity assumption
        # on (x0, x7) must answer equal-phase SAT / opposite-phase UNSAT.
        s = SatSolver()
        xs = [s.new_var() for _ in range(8)]
        for u, v in zip(xs, xs[1:]):
            s.add_clause([(u << 1) | 1, v << 1])
            s.add_clause([u << 1, (v << 1) | 1])
        first, last = xs[0] << 1, xs[-1] << 1
        for _ in range(10):
            assert s.solve([first, last]) == SAT
            assert s.solve([first, last ^ 1]) == UNSAT
            assert s.solve([first ^ 1, last ^ 1]) == SAT
            assert s.solve([first ^ 1, last]) == UNSAT

    def test_unknown_assumption_variable_rejected(self):
        s = SatSolver()
        with pytest.raises(ValueError):
            s.solve([4])


class TestClauseDatabaseReduction:
    """LBD-based learned-clause deletion (long incremental sessions)."""

    def test_reduction_triggers_and_counts(self):
        solver = _pigeonhole(8, 7)
        solver._reduce_limit = 120  # force reductions on a hard instance
        assert solver.solve() == UNSAT
        stats = solver.stats
        assert stats["reductions"] > 0
        assert stats["clauses_deleted"] > 0
        # The in-memory database shrank below what was learned in total.
        assert stats["learnt_clauses"] < stats["conflicts"]

    def test_answers_survive_aggressive_reduction(self):
        # Same oracle harness as TestAgainstBruteForce, with the database
        # limit small enough that reductions run constantly: deleting
        # learned clauses must never flip a verdict or break a model.
        rng = random.Random(7)
        for trial in range(40):
            n = rng.randint(4, 8)
            m = rng.randint(10, 45)
            clauses = []
            for _ in range(m):
                vs = rng.sample(range(n), 3)
                clauses.append([(v << 1) | rng.randint(0, 1) for v in vs])
            expected = SAT if _brute_force_sat(n, clauses) else UNSAT
            solver = SatSolver(reduce_base=100)
            solver._reduce_limit = 5
            solver.ensure_vars(n)
            feasible = all(solver.add_clause(c) for c in clauses)
            result = solver.solve() if feasible else UNSAT
            assert result == expected, (trial, clauses)
            if result == SAT:
                model = [solver.model_value(v << 1) for v in range(n)]
                assert all(
                    any(model[l >> 1] != (l & 1) for l in c) for c in clauses
                ), (trial, "model does not satisfy the formula")

    def test_incremental_session_stays_sound_across_reductions(self):
        # Equality chain under alternating assumptions, with a tiny limit:
        # reductions interleave with incremental calls and must preserve
        # the learned-clause soundness across them.
        s = SatSolver(reduce_base=100)
        s._reduce_limit = 4
        xs = [s.new_var() for _ in range(10)]
        for u, v in zip(xs, xs[1:]):
            s.add_clause([(u << 1) | 1, v << 1])
            s.add_clause([u << 1, (v << 1) | 1])
        first, last = xs[0] << 1, xs[-1] << 1
        for _ in range(12):
            assert s.solve([first, last]) == SAT
            assert s.solve([first, last ^ 1]) == UNSAT

    def test_deleted_clauses_fully_detached(self):
        solver = _pigeonhole(7, 6)
        solver._reduce_limit = 60
        assert solver.solve() == UNSAT
        assert solver.stats["clauses_deleted"] > 0
        # Watch-list consistency after reductions: every surviving learned
        # clause is watched exactly twice (at its two watch positions) and
        # has an LBD record; nothing else with an LBD record survives.
        learnt_ids = {id(c) for c in solver._learnts}
        assert set(solver._lbd) == learnt_ids
        watch_counts = {lid: 0 for lid in learnt_ids}
        for watch_list in solver._watches:
            for clause in watch_list:
                if id(clause) in watch_counts:
                    watch_counts[id(clause)] += 1
        assert all(count == 2 for count in watch_counts.values())


def _fanin_cone(graph, lits):
    """Variables of the transitive fanin cone of ``lits`` in ``graph``."""
    first_gate = 1 + graph.num_pis
    cone, stack = set(), [lit >> 1 for lit in lits]
    while stack:
        var = stack.pop()
        if var in cone:
            continue
        cone.add(var)
        if var >= first_gate:
            stack.extend(lit >> 1 for lit in graph.gates[var - first_gate][2])
    return sorted(cone)


def _forged_queries(network_forge, seed):
    """A gate graph holding a MIG and its AIG twin, plus queried pairs.

    The twins are built by one recipe from one seed, so their output
    pairs are equal functions in different structure (UNSAT queries that
    need conflicts); seeded random gate pairs add mostly-SAT queries.
    """
    shape = dict(gate_mix="mixed", num_pis=7, num_gates=40, num_pos=4, seed=seed)
    graph = GateGraph(7)
    pos_mig = encode_network(graph, network_forge(kind="mig", **shape))
    pos_aig = encode_network(graph, network_forge(kind="aig", **shape))
    pairs = [(a, b) for a, b in zip(pos_mig, pos_aig) if a >> 1 and b >> 1]
    rng = random.Random(seed)
    gate_lits = [(var << 1) | rng.randint(0, 1) for var, _, _ in graph.gates]
    pairs += [tuple(rng.sample(gate_lits, 2)) for _ in range(6)]
    return graph, pairs


def _solver_for(graph):
    solver = SatSolver()
    graph.load_into(solver)
    return solver


def _watch_decisions(solver, scope_of):
    """Record every decision of ``solver``; check its heap holds no
    variable outside the running scope (``scope_of()``) at each one."""
    decisions = []
    pick = solver._pick_branch

    def picked():
        scope = scope_of()
        assert all(var in scope for _, var in solver._heap), "heap leaked"
        lit = pick()
        if lit is not None:
            decisions.append(lit >> 1)
        return lit

    solver._pick_branch = picked
    return decisions


class TestScopedSolve:
    """``solve(scope=...)`` on fanin-closed scopes of Tseitin gate graphs."""

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=5000))
    def test_scoped_and_unscoped_agree(self, network_forge, seed):
        graph, pairs = _forged_queries(network_forge, seed)
        unscoped, scoped = _solver_for(graph), _solver_for(graph)
        for a, b in pairs:
            scope = _fanin_cone(graph, (a, b))
            assert scoped.solve([a, b ^ 1], scope=scope) == unscoped.solve([a, b ^ 1])

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=5000))
    def test_scoped_model_is_a_witness(self, network_forge, seed):
        graph, pairs = _forged_queries(network_forge, seed)
        solver = _solver_for(graph)
        rng = random.Random(seed)
        witnessed = 0
        for a, b in pairs:
            if solver.solve([a, b ^ 1], scope=_fanin_cone(graph, (a, b))) != SAT:
                continue
            # PIs the scoped search left unassigned may take any value.
            bits = [solver.model_value(graph.pi_lit(i)) for i in range(graph.num_pis)]
            bits = [rng.randint(0, 1) if v is None else int(v) for v in bits]
            values = graph.simulate(bits, 1)
            assert graph.lit_value(values, a, 1) == 1
            assert graph.lit_value(values, b, 1) == 0
            witnessed += 1
        assert witnessed, "no SAT query drawn"

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=5000))
    def test_no_decision_outside_the_scope(self, network_forge, seed):
        graph, pairs = _forged_queries(network_forge, seed)
        solver = _solver_for(graph)
        current = set()
        decisions = _watch_decisions(solver, lambda: current)
        decided = 0
        for a, b in pairs:
            current = set(_fanin_cone(graph, (a, b)))
            del decisions[:]
            for assumptions in ([a, b ^ 1], [a ^ 1, b]):
                solver.solve(assumptions, scope=sorted(current))
            assert set(decisions) <= current
            decided += len(decisions)
        assert decided, "no query reached a decision"

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=5000))
    def test_activity_rescale_keeps_scope_and_answer(self, network_forge, seed):
        graph, pairs = _forged_queries(network_forge, seed)
        unscoped, solver = _solver_for(graph), _solver_for(graph)
        current = set()
        decisions = _watch_decisions(solver, lambda: current)
        rescales = 0
        for a, b in pairs:
            current = set(_fanin_cone(graph, (a, b)))
            del decisions[:]
            # The first conflict's decay pushes the increment past 1e100.
            solver._var_inc = 0.99e100
            conflicts = solver.num_conflicts
            answer = solver.solve([a, b ^ 1], scope=sorted(current))
            assert answer == unscoped.solve([a, b ^ 1])
            assert set(decisions) <= current
            if solver.num_conflicts > conflicts:
                assert solver._var_inc < 1e100
                rescales += 1
        assert rescales, "no query reached a conflict"

    def test_unscoped_solve_after_scoped_decides_everything(self):
        # x0 -> x1 -> x2 chain plus a free x3: a scoped query on {x0, x1}
        # leaves x2, x3 free; a later unscoped solve must assign them all.
        s = SatSolver()
        xs = [s.new_var() for _ in range(4)]
        s.add_clause([(xs[0] << 1) | 1, xs[1] << 1])
        assert s.solve([xs[0] << 1], scope=[xs[0], xs[1]]) == SAT
        assert s.model_value(xs[1] << 1) is True
        assert s.model_value(xs[3] << 1) is None
        assert s.solve() == SAT
        assert all(s.model_value(x << 1) is not None for x in xs)

    def test_variable_added_between_solves_stays_out_of_an_equal_scope(self):
        # The second solve reuses the first one's heap: a variable created
        # in between must not join it.
        s = SatSolver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([a << 1, b << 1])
        decisions = _watch_decisions(s, lambda: {a, b})
        assert s.solve([a << 1], scope=[a, b]) == SAT
        c = s.new_var()
        assert s.solve([a << 1], scope=[a, b]) == SAT
        assert set(decisions) <= {a, b}
        assert s.model_value(c << 1) is None

    def test_assumption_outside_scope_rejected(self):
        s = SatSolver()
        a, b = s.new_var(), s.new_var()
        with pytest.raises(ValueError):
            s.solve([b << 1], scope=[a])
        with pytest.raises(ValueError):
            s.solve([a << 1], scope=[a, 9])
        assert s.solve([a << 1], scope=[a]) == SAT


class TestEnsureVars:
    """``ensure_vars(n)`` builds in bulk exactly what ``new_var`` calls build."""

    FIELDS = ("_num_vars", "_value", "_watches", "_level", "_reason",
              "_activity", "_phase", "_seen", "_heap")

    @staticmethod
    def _searched_solver(scoped):
        # Random 3-SAT near the threshold: the search bumps activities, so
        # the heap holds entries with non-zero scores in varied order.
        rng = random.Random(8)
        solver = SatSolver()
        for _ in range(20):
            solver.new_var()
        for _ in range(80):
            vs = rng.sample(range(20), 3)
            solver.add_clause([(v << 1) | rng.randint(0, 1) for v in vs])
        solver.solve(scope=range(20) if scoped else None)
        assert solver.num_conflicts and any(solver._activity)
        return solver

    def _assert_same_state(self, bulk, single):
        for field in self.FIELDS:
            assert getattr(bulk, field) == getattr(single, field), field

    @pytest.mark.parametrize("scoped", [False, True])
    def test_matches_new_var_calls(self, scoped):
        bulk, single = self._searched_solver(scoped), self._searched_solver(scoped)
        self._assert_same_state(bulk, single)
        bulk.ensure_vars(57)
        for _ in range(37):
            single.new_var()
        self._assert_same_state(bulk, single)
        # Both keep searching identically over the new variables.
        for solver in (bulk, single):
            solver.add_clause([40 << 1, 41 << 1, 3 << 1])
        assumptions = [(40 << 1) | 1, 56 << 1]
        assert bulk.solve(assumptions) == single.solve(assumptions)
        self._assert_same_state(bulk, single)

    def test_fresh_solver_and_no_op(self):
        bulk, single = SatSolver(), SatSolver()
        bulk.ensure_vars(9)
        for _ in range(9):
            single.new_var()
        self._assert_same_state(bulk, single)
        bulk.ensure_vars(4)  # already large enough: nothing changes
        self._assert_same_state(bulk, single)
