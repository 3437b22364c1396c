"""The kernel's fanout storage: exact per-node lists, none for the constant.

``_fanouts[n]`` is ``None`` when no live gate references ``n`` and
otherwise a duplicate-free list of exactly the live gates that do; dead
slots and the constant node always hold ``None``.  ``check_integrity``
checks that invariant in both directions.  These tests drive random
``substitute`` / ``replace_fanins`` / ``cleanup`` / ``assign_from`` edits,
pickle round-trips and result-cache encode/decode cycles over MIG and AIG
forges and check it after every step, prove the checker rejects each way
the storage can be corrupted, and pin the constant's substitution guard.
"""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mig import Mig
from repro.core.signal import CONST_FALSE, CONST_NODE, CONST_TRUE, make_signal, negate
from repro.flows.result_cache import decode_network, encode_network
from repro.parallel.corpus import structural_fingerprint


def _assert_exact(net):
    net.check_integrity()
    assert not any(isinstance(entry, set) for entry in net._fanouts)


def _random_step(net, rng, network_forge, kind):
    """One random edit, or a network rebuilt through a serialization path."""
    live = [n for n in range(1, net.num_nodes) if not net.is_dead(n)]
    gates = [n for n in live if net.is_gate(n)]
    signals = [make_signal(n) for n in live] + [CONST_FALSE]
    action = rng.randrange(7)
    if action == 0 and live:
        # Any live node, PIs included, by any signal (constants included).
        target = rng.choice(signals)
        net.substitute(rng.choice(live), negate(target) if rng.random() < 0.4 else target)
    elif action == 1 and gates:
        node = rng.choice(gates)
        fanins = tuple(
            negate(s) if rng.random() < 0.4 else s
            for s in rng.sample(signals, len(net.fanins(node)))
        )
        try:
            net.replace_fanins(node, fanins)
        except ValueError:
            pass  # the rewire would close a cycle
    elif action == 2:
        net.cleanup()
    elif action == 3:
        net.assign_from(net)
    elif action == 4:
        other = network_forge(kind=kind, gate_mix="mixed", num_gates=15, seed=rng.randrange(100))
        net.assign_from(other)
    elif action == 5:
        net = pickle.loads(pickle.dumps(net))
    else:
        decoded = decode_network(encode_network(net))
        assert structural_fingerprint(decoded) == structural_fingerprint(net)
        net = decoded
    return net


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(["mig", "aig"]),
    gate_mix=st.sampled_from(["aoig", "maj", "mixed"]),
    seed=st.integers(min_value=0, max_value=10_000),
    num_gates=st.integers(min_value=5, max_value=80),
    steps=st.integers(min_value=1, max_value=25),
)
def test_fanout_lists_stay_exact_under_random_edits(
    network_forge, kind, gate_mix, seed, num_gates, steps
):
    net = network_forge(
        kind=kind, gate_mix=gate_mix, num_pis=6, num_gates=num_gates, num_pos=4, seed=seed
    )
    _assert_exact(net)
    rng = random.Random(seed)
    for _ in range(steps):
        net = _random_step(net, rng, network_forge, kind)
        _assert_exact(net)
    assert net._fanouts[CONST_NODE] is None


def test_cleanup_empties_the_lists_of_stranded_inputs():
    """``cleanup`` repairs fanout lists in one pass after its scan; a node
    left without parents goes back to ``None``, survivors keep their order."""
    mig = Mig()
    a, b, c, d = (mig.add_pi() for _ in range(4))
    kept = [mig.and_(a, b), mig.or_(a, c)]
    for signal in kept:
        mig.add_po(signal)
    mig.maj(b, c, d)  # dangling: the only parent of d
    mig.and_(negate(c), d)
    assert mig.cleanup() == 2
    _assert_exact(mig)
    assert mig._fanouts[d >> 1] is None
    assert mig._fanouts[a >> 1] == [s >> 1 for s in kept]


def _shared_fanin(net):
    """A (node, parent) pair where ``node`` is a gate listing ``parent``."""
    for node in range(1, net.num_nodes):
        if net.is_gate(node) and net._fanouts[node]:
            return node, net._fanouts[node][0]
    raise AssertionError("no gate with a fanout")


def _as_set(net):
    node, _ = _shared_fanin(net)
    net._fanouts[node] = set(net._fanouts[node])


def _duplicate(net):
    node, parent = _shared_fanin(net)
    net._fanouts[node].append(parent)


def _drop_parent(net):
    node, parent = _shared_fanin(net)
    net._fanouts[node].remove(parent)  # may leave an empty list: corrupt too


def _stale_parent(net):
    node, parent = _shared_fanin(net)
    other = next(
        n for n in range(1, net.num_nodes) if net.is_gate(n) and n not in net._fanouts[node]
    )
    net._fanouts[node].append(other)


def _constant_entry(net):
    node, _ = _shared_fanin(net)
    net._fanouts[CONST_NODE] = [node]


def _dead_slot_entry(net):
    net.cleanup()
    dead = next(n for n in range(net.num_nodes) if net.is_dead(n))
    net._fanouts[dead] = [net.num_nodes - 1]


@pytest.mark.parametrize(
    "corrupt",
    [_as_set, _duplicate, _drop_parent, _stale_parent, _constant_entry, _dead_slot_entry],
)
def test_check_integrity_rejects_corrupt_fanouts(network_forge, corrupt):
    net = network_forge(kind="mig", gate_mix="mixed", num_pis=6, num_gates=40, seed=3)
    gate = next(n for n in net.gates() if net.fanout_size(n) > 0)
    net.substitute(gate, net.pi_signals()[0])  # leaves a dead slot behind
    net.check_integrity()
    corrupt(net)
    with pytest.raises(AssertionError):
        net.check_integrity()


def test_substituting_the_constant_is_rejected(network_forge):
    """The constant's fanouts are not stored, so it cannot be substituted
    by a non-constant signal; a constant replacement stays a no-op."""
    net = network_forge(kind="mig", gate_mix="aoig", num_pis=6, num_gates=40, seed=5)
    assert any(
        f >> 1 == CONST_NODE for n in net.gates() for f in net.fanins(n)
    ), "the forge should build AND/OR gates over the constant"
    before = structural_fingerprint(net)
    with pytest.raises(ValueError):
        net.substitute(CONST_NODE, net.pi_signals()[0])
    assert net.substitute(CONST_NODE, CONST_TRUE) is True
    assert structural_fingerprint(net) == before
    net.check_integrity()
