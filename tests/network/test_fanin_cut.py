"""The invariant behind the rewrite engine's fanin-cut skip.

``cut_rewrite`` never costs the *fanin cut* of a root (leaves = the
root's own fanin nodes, table = the root's own gate function): the
class's structures are that single gate, so the dry run always finds
the root itself in the structural hash table — over budget in area mode
(the root is in its own MFFC), resolving to the root in zero-gain and
depth mode.  That holds only while the kernel's strash invariant does:
no live gate is a structural duplicate of another, in either polarity
form.  These tests drive the kernel through in-place edits
(``mutate_network``, ``substitute``, ``replace_fanins``) on forged MIGs
and AIGs and check the dry-run outcome for every live gate.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.generation import mutate_network
from repro.core.signal import make_signal
from repro.network.cuts import enumerate_cuts, iter_cuts, mffc_nodes
from repro.network.npn import extend_table, get_structures, npn_canonical
from repro.network.rewrite import _dry_run, _fanin_cut, _structure_inputs


def _edit(net, rng):
    """One seeded in-place edit: a mutation, a substitution, a rewire, or
    a rewire onto another gate's fanins in either polarity form (which
    the kernel must merge instead of storing a duplicate)."""
    gates = list(net.gates())
    choice = rng.randrange(4)
    if choice == 0 or len(gates) < 2:
        mutate_network(net, seed=rng.randrange(1 << 30), in_place=True)
        return
    node = rng.choice(gates)
    if choice == 3:
        other = rng.choice([g for g in gates if g != node])
        flip = rng.randrange(2)
        try:
            net.replace_fanins(node, tuple(f ^ flip for f in net.fanins(other)))
        except ValueError:
            pass  # would create a combinational cycle
        return
    sources = [make_signal(n) for n in net.pi_nodes()] + [
        make_signal(g) for g in gates if g != node
    ]
    target = rng.choice(sources) ^ rng.randrange(2)
    if choice == 1:
        net.substitute(node, target)  # refuses (False) when it would loop
        return
    fanins = list(net.fanins(node))
    fanins[rng.randrange(len(fanins))] = target
    try:
        net.replace_fanins(node, tuple(fanins))
    except ValueError:
        pass  # would create a combinational cycle


def _assert_fanin_cuts_rebuild_their_roots(net, kind):
    net._settle_levels()
    level = net._level
    enumerated = enumerate_cuts(net, k=4, cut_limit=8)
    for root in list(net.gates()):
        leaves, table = _fanin_cut(net, net._fanins[root])
        if enumerated[root] is not None:  # None: not PO-reachable
            for cut_leaves, cut_table in iter_cuts(enumerated[root]):
                if cut_leaves == leaves:
                    assert cut_table == table, f"fanin cut table of {root}"
        mffc = mffc_nodes(net, root, leaves)
        assert mffc == {root}
        canonical, transform = npn_canonical(extend_table(table, len(leaves)))
        inputs = _structure_inputs(leaves, transform)
        for entry in get_structures(kind, canonical):
            # Area mode without zero gain: budget len(mffc) - 1 = 0.
            assert _dry_run(net, entry, inputs, mffc, level, 0) is None, root
            # Zero-gain and depth mode: budget len(mffc) = 1.
            dry = _dry_run(net, entry, inputs, mffc, level, 1)
            assert dry is not None and dry[2] == root, (root, dry)


@settings(max_examples=15, deadline=None)
@given(
    kind=st.sampled_from(["mig", "aig"]),
    seed=st.integers(min_value=0, max_value=10_000),
    edits=st.integers(min_value=0, max_value=8),
)
def test_fanin_cut_dry_run_resolves_to_root(network_forge, kind, seed, edits):
    net = network_forge(
        kind=kind, gate_mix="mixed", num_pis=6, num_gates=40, num_pos=4, seed=seed
    )
    rng = random.Random(seed)
    for _ in range(edits):
        _edit(net, rng)
    net.check_integrity()
    _assert_fanin_cuts_rebuild_their_roots(net, kind)
