"""Local merge proofs of the SAT sweeper (verify/sweep.py).

A candidate pair whose 4-leaf cuts have the same leaves and equal
phase-adjusted tables is merged without SAT; every other pair still goes
to the solver.  These tests pin both halves: local proofs never change a
verdict, the decomposition pairs they target need no SAT call, and a
table mismatch on correlated leaves is not taken as a refutation.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig.aig import Aig
from repro.core import Mig, mutate_network
from repro.network import mig_to_aig
from repro.verify import check_equivalence
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
        outcome = sat_sweep(first, second)
        truth = check_equivalence(first, second, method="exhaustive")
        assert outcome.status != "unknown", outcome.stats
        assert outcome.proved == truth.equivalent, outcome.stats
        assert outcome.stats["local_merges"] <= outcome.stats["merges"]
        if not outcome.proved:
            assert _replays(first, second, outcome), outcome


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
