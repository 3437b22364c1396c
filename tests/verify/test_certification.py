"""Uncertified all-clears must never pass as certification.

The bugfix contract: an ``EquivalenceResult`` whose ``certified`` flag is
false (the complete backends ran out of budget, or the caller picked the
random backend) means "no mismatch found", *not* "proven equivalent" —
and every certifying consumer must reject it exactly like a proven
mismatch.  The consumers are ``assert_equivalent``, the flow engine's
per-pass verify hook (``Pipeline(verify=True)``, tested in
``tests/flows/test_engine.py``) and the CEC-verified Table I row
``optimization_row(verify=True)``; the cut-rewriting acceptance script
``benchmarks/acceptance_cut_rewrite.py`` certifies through the same
``check_equivalence`` contract.
Each test here forces the uncertified path with a starved budget, the
explicitly sampling backend or a stubbed checker, and asserts the
rejection.
"""

import pytest

import repro.verify
from repro.flows.mighty import mighty_optimize
from repro.parallel.corpus import optimization_row
from repro.verify.equivalence import (
    EquivalenceResult,
    assert_equivalent,
    check_equivalence,
)

#: SAT-sweep options guaranteed to exhaust on any non-trivial miter.
_STARVED = {
    "merge_conflict_budget": 1,
    "output_conflict_budget": 1,
    "initial_patterns": 8,
    "max_refinements": 2,
}


def _wide_pair(forge):
    """An (original, optimized) pair too wide for exhaustive simulation,
    restructured enough that a starved SAT sweep cannot prove it."""
    net = forge(kind="mig", num_pis=20, num_gates=120, num_pos=4, seed=3)
    opt = net.copy()
    mighty_optimize(opt, rounds=1)
    assert opt.num_gates < net.num_gates
    return net, opt


def test_budget_exhausted_auto_dispatch_is_uncertified(network_forge):
    net, opt = _wide_pair(network_forge)
    result = check_equivalence(net, opt, sat_options=_STARVED)
    assert result.equivalent is True
    assert result.method == "random-simulation"
    assert result.certified is False


def test_random_backend_is_always_uncertified(network_forge):
    net = network_forge(kind="mig", num_pis=6, num_gates=20, num_pos=2, seed=5)
    result = check_equivalence(net, net.copy(), method="random")
    assert result.equivalent is True and result.certified is False
    # Complete backends certify.
    assert check_equivalence(net, net.copy(), method="exhaustive").certified is True


def test_assert_equivalent_rejects_uncertified_verdict(network_forge):
    net, opt = _wide_pair(network_forge)
    with pytest.raises(AssertionError, match="NOT certified"):
        assert_equivalent(net, opt, sat_options=_STARVED)
    # An explicitly requested sampling check is exactly what the caller
    # asked for — no certification claim, no rejection.
    assert_equivalent(net, opt, method="random")


def test_starved_forced_sweep_raises_and_bdd_certifies(network_forge):
    """A forced ``sat-sweep`` that blows its budget has no verdict to
    return; the error names the BDD backend, which then certifies."""
    net, opt = _wide_pair(network_forge)
    with pytest.raises(RuntimeError, match="method='bdd'"):
        check_equivalence(net, opt, method="sat-sweep", sat_options=_STARVED)
    result = check_equivalence(net, opt, method="bdd")
    assert result.equivalent is True
    assert result.certified is True


def test_uncertified_rejection_names_bdd_backend(network_forge):
    net, opt = _wide_pair(network_forge)
    with pytest.raises(AssertionError, match="method='bdd'"):
        assert_equivalent(net, opt, sat_options=_STARVED)
    assert_equivalent(net, opt, method="bdd")


def test_optimization_row_rejects_uncertified_verdict(monkeypatch):
    def _uncertified(first, second, **kwargs):
        return EquivalenceResult(
            equivalent=True, method="random-simulation", certified=False
        )

    monkeypatch.setattr(repro.verify, "check_equivalence", _uncertified)
    with pytest.raises(AssertionError, match="NOT certified"):
        optimization_row("b9", rounds=1, include_bdd=False, verify=True)
