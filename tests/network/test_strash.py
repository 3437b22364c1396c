"""Regression and fuzz tests for structural-hash completeness in the kernel.

In-place fanin rewrites (``_replace_in_node`` during a substitution
cascade) can store a MIG node under a polarity form the builder would not
choose (e.g. a sorted triple with two complemented fanins).  The builder
must still find such nodes — probing only the normalized key would
materialise a functional duplicate, which also breaks the gain accounting
of the cut-rewriting dry run (a "free" strash hit that the replay then
cannot reuse).

The deterministic scenario below pins the original regression; the fuzz
tests generalize it over the shared random-network forge
(``tests/conftest.py``) for both network types.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Mig, mutate_network
from repro.core.signal import negate, node_of
from repro.verify import assert_equivalent


def _parent_with_denormalized_key():
    """Build a MIG whose live parent node sits under a 2-complement key."""
    mig = Mig()
    a, b, c, d, e = (mig.add_pi(n) for n in "abcde")
    inner = mig.maj(a, b, c)
    parent = mig.maj(inner, negate(d), e)
    mig.add_po(parent, "f")
    replacement = mig.maj(a, b, d)
    mig.add_po(replacement, "g")
    # The cascade rewrites `parent` in place to M(repl', d', e) and stores
    # it under the sorted raw tuple, which has two complemented fanins.
    assert mig.substitute(node_of(inner), negate(replacement))
    return mig, node_of(parent)


def test_builder_reuses_node_stored_under_complemented_key():
    mig, parent = _parent_with_denormalized_key()
    stored_keys = [key for key, node in mig._strash.items() if node == parent]
    assert stored_keys, "parent must still be strashed"
    assert any(
        sum(f & 1 for f in key) >= 2 for key in stored_keys
    ), "scenario must exercise a non-normalized stored form"
    before = mig.num_gates
    rebuilt = mig.maj(*mig.fanins(parent))
    assert node_of(rebuilt) == parent, "builder must hit the stored node"
    assert mig.num_gates == before, "no duplicate node may be created"


def test_builder_polarity_of_complemented_hit_is_correct():
    mig, parent = _parent_with_denormalized_key()
    reference = mig.copy()
    fanins = mig.fanins(parent)
    # M(f') built from the complemented fanins must come back as the
    # complement edge of the stored node (majority self-duality).
    rebuilt = mig.maj(*(negate(f) for f in fanins))
    assert rebuilt == negate(parent << 1)
    mig.check_integrity()
    assert_equivalent(mig, reference)


def test_replace_fanins_hits_complemented_key():
    """``replace_fanins`` onto the complement of an existing gate merges it."""
    mig = Mig()
    a, b, c, d = (mig.add_pi(n) for n in "abcd")
    n1 = mig.maj(a, b, c)
    n2 = mig.maj(a, b, d)
    mig.add_po(n1, "f")
    mig.add_po(n2, "g")
    # M(a', b', c') = M(a, b, c)' by self-duality: n2 becomes ¬n1.
    rewired = (negate(a), negate(b), negate(c))
    result = mig.replace_fanins(node_of(n2), rewired)
    assert result == negate(n1)
    assert mig.num_gates == 1
    assert mig.po_signals() == [n1, negate(n1)]
    assert mig.maj(*rewired) == negate(n1)
    mig.check_integrity()


class TestStrashCompletenessFuzz:
    """The regression above, generalized over the shared network forge.

    After arbitrary in-place rewrites (here: seeded mutations, which run
    through ``replace_fanins`` / ``set_po`` and their cascades), rebuilding
    any live gate from its own stored fanins must hit the strash table —
    in either polarity — and never materialise a duplicate node.
    """

    @pytest.mark.parametrize("kind", ["mig", "aig"])
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=5000))
    def test_rebuilding_live_gates_never_duplicates(self, network_forge, kind, seed):
        net = network_forge(kind=kind, gate_mix="mixed", num_pis=6, num_gates=25, seed=seed)
        # Drive the in-place rewrite machinery a few times.
        for step in range(3):
            net, _ = mutate_network(net, seed=seed * 7 + step)
        net.check_integrity()
        before_gates = net.num_gates
        before_nodes = net.num_nodes
        builder = net.maj if isinstance(net, Mig) else net.and_
        for node in list(net.topological_order()):
            # Rebuilding a live gate from its own stored fanins must hit
            # the strash table (this node, or a live polarity-variant
            # sibling) — never allocate.
            rebuilt = builder(*net.fanins(node))
            assert node_of(rebuilt) < before_nodes, (kind, seed, node)
            if isinstance(net, Mig):
                # Majority self-duality: the all-complemented rebuild must
                # come back as the complement edge of the same node.
                flipped = builder(*(negate(f) for f in net.fanins(node)))
                assert flipped == negate(rebuilt), (kind, seed, node)
        assert net.num_gates == before_gates, "no duplicate node may be created"
        assert net.num_nodes == before_nodes, "no node may be allocated"
