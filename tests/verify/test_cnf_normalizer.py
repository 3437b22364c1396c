"""The memoized gate normalizer of ``GateGraph.add_gate`` (verify/cnf.py).

``add_gate`` looks a gate's normal form up by truth table and input
pattern instead of running the folding, don't-care, phase and sort
pipeline per gate.  ``_normalize_gate`` — that pipeline, unmemoized — is
the oracle: for every input pattern the returned literal, the stored
``(var, tt, lits)`` gate and the structural-hash reuse must be exactly
what the oracle's normal form of the gate's actual literals dictates.
"""

import itertools
import random

import pytest

from repro.codegen.ir import cell_truth_table
from repro.mapping import default_library
from repro.network.npn import extend_table
from repro.verify.cnf import GateGraph, _normalize_gate

#: Gate input variables, out of order and with gaps, so ranks differ
#: from the variable ids.
_VARS = (9, 4, 13, 6)


def _choices(num_vars):
    """Input literals: both constants, and both phases of each variable."""
    return [0, 1] + [(var << 1) | phase for var in _VARS[:num_vars] for phase in (0, 1)]


def _check(graph, tt, lits):
    """``graph.add_gate(tt, lits)`` against the oracle normal form."""
    norm_tt, norm_lits, flip = _normalize_gate(tt, lits)
    key = (norm_tt, norm_lits)
    existed = graph._strash.get(key)
    num_gates = len(graph.gates)
    lit = graph.add_gate(tt, lits)
    if len(norm_lits) == 0:
        assert lit == flip, (tt, lits)
    elif len(norm_lits) == 1:
        assert lit == norm_lits[0] | flip, (tt, lits)
    else:
        var = graph._strash[key]
        assert lit == (var << 1) | flip, (tt, lits)
        if existed is None:
            assert graph.gates[num_gates:] == [(var, norm_tt, norm_lits)], (tt, lits)
            return
        assert var == existed, (tt, lits)
    assert len(graph.gates) == num_gates, (tt, lits)  # nothing new stored


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_every_table_and_pattern_matches_the_oracle(k):
    """Constants of either polarity, equal and complementary duplicates
    and every variable order; most normal forms recur, so the strash
    reuse path is covered as well."""
    graph = GateGraph(max(_VARS))
    for lits in itertools.product(_choices(k), repeat=k):
        for tt in range(1 << (1 << k)):
            _check(graph, tt, lits)


def test_sampled_four_input_tables_match_the_oracle():
    rng = random.Random(4)
    # Library cells (at most three inputs), padded with don't-care inputs.
    cells = [
        extend_table(cell_truth_table(cell), cell.num_inputs)
        for cell in default_library().cells()
    ]
    tables = cells + [rng.getrandbits(16) for _ in range(60)] + [0x8000, 0x6996, 0x0777]
    graph = GateGraph(max(_VARS))
    choices = _choices(4)
    for tt in tables:
        for _ in range(40):
            _check(graph, tt, tuple(rng.choice(choices) for _ in range(4)))


def test_equal_patterns_over_other_variables_share_the_memo():
    """Two gates with the same pattern over different variables get the
    same normal form, renamed."""
    graph = GateGraph(20)
    a = graph.add_gate(0xE8, (4 << 1, (9 << 1) | 1, 4 << 1 | 1))
    b = graph.add_gate(0xE8, (11 << 1, (17 << 1) | 1, 11 << 1 | 1))
    assert a == (9 << 1) | 1 and b == (17 << 1) | 1  # MAJ(x, y', x') = y'
    c = graph.add_gate(0x8, (7 << 1, 3 << 1))
    d = graph.add_gate(0x8, (15 << 1, 12 << 1))
    assert graph.gates == [(c >> 1, 0x8, (6, 14)), (d >> 1, 0x8, (24, 30))]
