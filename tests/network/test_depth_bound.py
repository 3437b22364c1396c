"""The depth-mode level bound behind the rewrite engine's deep-support skip.

In depth mode a move must bring its root to ``level[root] +
max_level_growth`` or lower.  ``cut_rewrite`` skips, before its NPN
lookup, MFFC walk and dry runs, every cut whose table depends on two or
more leaves one of which sits at that bound or deeper: any structure
over such a cut lies above that leaf.  These tests cost every skipped
cut anyway, at the moment it is skipped, and check that no structure of
its class would have passed the bound; and they check that the skip
changes no sweep's result.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import rewrite
from repro.network.cuts import mffc_nodes
from repro.network.npn import extend_table, get_structures, npn_canonical
from repro.network.rewrite import _dry_run, _structure_inputs, cut_rewrite
from repro.parallel.corpus import structural_fingerprint

_too_deep = rewrite._support_too_deep


def _sweep_checking_skips(net, kind, growth):
    """One depth-mode sweep; every skipped cut is costed as if it were not."""
    skipped = []

    def checking(level, root, leaves, table, max_level_growth):
        skip = _too_deep(level, root, leaves, table, max_level_growth)
        if skip:
            canonical, transform = npn_canonical(extend_table(table, len(leaves)))
            inputs = _structure_inputs(leaves, transform)
            mffc = mffc_nodes(net, root, leaves)
            for entry in get_structures(kind, canonical):
                dry = _dry_run(net, entry, inputs, mffc, level, len(mffc))
                assert dry is None or dry[1] > level[root] + growth, (root, leaves, dry)
            skipped.append(root)
        return skip

    with mock.patch.object(rewrite, "_support_too_deep", checking):
        cut_rewrite(net, kind, max_level_growth=growth)
    return skipped


def _sweep_without_skip(net, kind, growth):
    with mock.patch.object(rewrite, "_support_too_deep", lambda *args: False):
        cut_rewrite(net, kind, max_level_growth=growth)


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(["mig", "aig"]),
    gate_mix=st.sampled_from(["aoig", "maj", "mixed"]),
    seed=st.integers(min_value=0, max_value=10_000),
    num_gates=st.integers(min_value=10, max_value=120),
    depth_bias=st.sampled_from([0.0, 0.8]),
    growth=st.sampled_from([-1, -2]),
)
def test_skipped_cuts_cannot_meet_the_level_bound(
    network_forge, kind, gate_mix, seed, num_gates, depth_bias, growth
):
    source = network_forge(kind=kind, gate_mix=gate_mix, num_pis=7, num_gates=num_gates,
                           num_pos=3, seed=seed, depth_bias=depth_bias)
    net, reference = source.copy(), source.copy()
    _sweep_checking_skips(net, kind, growth)
    _sweep_without_skip(reference, kind, growth)
    net.check_integrity()
    assert structural_fingerprint(net) == structural_fingerprint(reference)


def test_deep_networks_skip_cuts(network_forge):
    net = network_forge(kind="mig", gate_mix="mixed", num_pis=8, num_gates=150,
                        num_pos=4, seed=11, depth_bias=0.8)
    assert _sweep_checking_skips(net, "mig", -1)


def test_single_leaf_tables_are_never_skipped():
    # The table of leaf 1 of two (0b1100) has support one: the structure
    # may be the leaf itself, whatever its level.
    level = [0, 5, 5, 6]
    assert not _too_deep(level, 3, (1, 2), 0b1100, -1)
    # XOR of both leaves depends on the one at level[root] - 1.
    assert _too_deep(level, 3, (1, 2), 0b0110, -1)
    # Both leaves two levels down: a structure of one gate meets the bound.
    assert not _too_deep([0, 4, 4, 6], 3, (1, 2), 0b0110, -1)
