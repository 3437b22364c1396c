"""Local merge proofs and lazy CNF loading of the SAT sweeper (verify/sweep.py).

A candidate pair whose 4-leaf cuts have the same leaves and equal
phase-adjusted tables is merged without SAT; every other pair still goes
to the solver.  These tests pin both halves: local proofs never change a
verdict, the decomposition pairs they target need no SAT call, and a
table mismatch on correlated leaves is not taken as a refutation.

The sweeper's solver starts with the constant's unit clause only; a
gate's Tseitin clauses reach it when the cone of a query first reaches
the gate.  A sweep that needs no SAT call therefore leaves the solver
with the unit clause alone, and on sweeps that do call SAT every gate
clause in the solver lies in the scope of some query.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig.aig import Aig
from repro.core import Mig, mutate_network
from repro.network import mig_to_aig
from repro.verify import check_equivalence
from repro.verify.cnf import TRUE_LIT, encode_network
from repro.verify.sat import SatSolver
from repro.verify.sweep import _Sweeper, sat_sweep

_TT_AND2 = 0x8
_TT_OR2 = 0xE


def _replays(first, second, outcome):
    patterns = [1 if bit else 0 for bit in outcome.counterexample]
    index = outcome.failing_output
    return (
        first.simulate_patterns(patterns, 1)[index]
        ^ second.simulate_patterns(patterns, 1)[index]
    ) & 1


def _problem_clause_vars(solver):
    """Variables of the attached clauses that were loaded, not learned."""
    learnt = {id(clause) for clause in solver._learnts}
    return {
        lit >> 1
        for watches in solver._watches
        for clause in watches
        if id(clause) not in learnt
        for lit in clause
    }


def _sweep_recording_scopes(first, second):
    """``sat_sweep`` plus the solver it queried and each query's scope."""
    calls = []
    solve = SatSolver.solve

    def recording(self, *args, **kwargs):
        calls.append((self, frozenset(kwargs["scope"])))
        return solve(self, *args, **kwargs)

    with mock.patch.object(SatSolver, "solve", recording):
        outcome = sat_sweep(first, second)
    return outcome, calls


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 1 << 20),
    num_pis=st.integers(3, 9),
    num_gates=st.integers(5, 60),
    gate_mix=st.sampled_from(("aoig", "maj", "mixed")),
    mutate_aig=st.booleans(),
)
def test_verdicts_match_exhaustive_on_twins_and_mutants(
    network_forge, seed, num_pis, num_gates, gate_mix, mutate_aig
):
    mig = network_forge(kind="mig", gate_mix=gate_mix, num_pis=num_pis,
                        num_gates=num_gates, num_pos=3, seed=seed)
    aig = mig_to_aig(mig)
    mutant, _ = mutate_network(aig if mutate_aig else mig, seed=seed)
    for first, second in ((mig, aig), (mig if mutate_aig else aig, mutant)):
        outcome, calls = _sweep_recording_scopes(first, second)
        truth = check_equivalence(first, second, method="exhaustive")
        assert outcome.status != "unknown", outcome.stats
        assert outcome.proved == truth.equivalent, outcome.stats
        assert outcome.stats["local_merges"] <= outcome.stats["merges"]
        if not outcome.proved:
            assert _replays(first, second, outcome), outcome
        # Lazy CNF: only gates inside some query's scope have clauses.
        if calls:
            solver = calls[0][0]
            assert all(call_solver is solver for call_solver, _ in calls)
            scoped = frozenset().union(*(scope for _, scope in calls))
            assert _problem_clause_vars(solver) <= scoped
        else:
            assert outcome.stats["loaded_gates"] == 0, outcome.stats


def _majority_tree(kind):
    """``M(M(p0,p1,p2), M(p3,p4,p5), p6)``: native majorities in a MIG,
    ``ab + c(a + b)`` AND/OR decompositions in an AIG.  Each AIG root's
    cut is the three inputs of the matching MIG gate: the inner ones'
    are primary inputs, and the outer one's first two inputs have six
    leaves between them, so its cut stops at them."""
    net = kind()
    pis = [net.add_pi() for _ in range(7)]
    maj = net.maj if kind is Mig else net.maj_
    net.add_po(maj(maj(*pis[0:3]), maj(*pis[3:6]), pis[6]))
    return net


def test_majority_against_its_decomposition_needs_no_sat_call():
    outcome = sat_sweep(_majority_tree(Mig), _majority_tree(Aig))
    assert outcome.proved, outcome.stats
    assert outcome.stats["sat_calls"] == 0, outcome.stats
    # Both inner majorities and the root, each proved from its cut.
    assert outcome.stats["local_merges"] == outcome.stats["merges"] == 3, outcome.stats
    assert outcome.stats["loaded_gates"] == 0, outcome.stats


def test_unequal_tables_on_correlated_leaves_still_merge_through_sat():
    # u = a & b & c implies v = c | d | e, so (u, v) = (1, 0) never occurs.
    # XNOR(u, v) and u | ~v agree everywhere else: equal functions whose
    # cuts share the leaves (u, v) but not the table.
    sweeper = _Sweeper(num_pis=5, seed=7, initial_patterns=128,
                       merge_conflict_budget=2_000, max_refinements=512)
    a, b, c, d, e = (sweeper.graph.pi_lit(i) for i in range(5))
    u = sweeper.add_gate(_TT_AND2, (sweeper.add_gate(_TT_AND2, (a, b)), c))
    v = sweeper.add_gate(_TT_OR2, (c, sweeper.add_gate(_TT_OR2, (d, e))))
    xnor = sweeper.add_gate(0x9, (u, v))
    assert sweeper.cut_leaves[xnor >> 1] == tuple(sorted((u >> 1, v >> 1)))
    sat_calls = sweeper.stats["sat_calls"]

    # Minterm m = u | v << 1 (u's variable is the smaller): u | ~v is 0xB.
    merged = sweeper.add_gate(0xB, (u, v))
    assert merged == xnor
    alias = sweeper.graph.gates[-1][0]  # the candidate's own variable
    assert sweeper.cut_leaves[alias] == sweeper.cut_leaves[xnor >> 1]
    assert sweeper.cut_tables[alias] != sweeper.cut_tables[xnor >> 1]
    assert sweeper.cut_tables[alias] ^ sweeper.cut_tables[xnor >> 1] != 0b1111
    assert sweeper.stats["local_merges"] == 0, sweeper.stats
    assert sweeper.stats["merges"] == 1, sweeper.stats
    assert sweeper.stats["sat_calls"] == sat_calls + 2, sweeper.stats


def test_network_pair_with_correlated_leaves_is_proved():
    # The same pair built as two AIGs; the sweep must prove them however
    # its candidates resolve.
    def build(root):
        net = Aig()
        a, b, c, d, e = (net.add_pi() for _ in range(5))
        u = net.and3_(a, b, c)
        v = net.or3_(c, d, e)
        net.add_po(root(net, u, v))
        return net

    first = build(lambda net, u, v: net.xnor_(u, v))
    second = build(lambda net, u, v: net.or_(u, v ^ 1))
    outcome = sat_sweep(first, second)
    assert outcome.proved, outcome.stats
    assert check_equivalence(first, second, method="exhaustive").equivalent


def test_sweep_without_sat_holds_only_the_constant_unit_clause():
    sweeper = _Sweeper(num_pis=7, seed=7, initial_patterns=128,
                       merge_conflict_budget=2_000, max_refinements=512)
    first = encode_network(sweeper.graph, _majority_tree(Mig), add_gate=sweeper.add_gate)
    second = encode_network(sweeper.graph, _majority_tree(Aig), add_gate=sweeper.add_gate)
    assert first == second
    assert sweeper.stats["sat_calls"] == 0
    solver = sweeper.solver
    assert solver._trail == [TRUE_LIT]
    assert not any(solver._watches)


def test_mutant_sweep_loads_a_fraction_of_the_gates(network_forge, rare_mutant_forge):
    # The mutant differs on one minterm in 2**16, so the sweep's initial
    # patterns do not refute it and the verdict comes from SAT queries.
    base = network_forge(kind="mig", gate_mix="mixed", num_pis=20,
                         num_gates=300, num_pos=8, seed=3)
    mutant = rare_mutant_forge(base)
    outcome = sat_sweep(base, mutant)
    assert outcome.stats["sat_calls"] > 0, outcome.stats
    assert 0 < outcome.stats["loaded_gates"] < outcome.stats["gates"], outcome.stats
