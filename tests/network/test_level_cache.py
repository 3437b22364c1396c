"""Property tests for the kernel's incremental topology/level caches.

The :class:`repro.network.base.LogicNetwork` kernel maintains per-node
levels incrementally (rises pushed through the fanout cone at once, falls
left pending until a reader settles them) and caches the PO-reachable
topological order.  These tests hammer both ``Mig`` and ``Aig`` with
randomized build/substitute/cleanup sequences and assert that the cached
``depth()``, ``levels()``, ``level_snapshot()`` and
``topological_order()`` agree with a from-scratch recomputation done by
an independent reference implementation — after every step, and after
batches of steps with no read in between, while falls are still pending.
"""

import pickle
import random

import pytest

from repro.aig.aig import Aig
from repro.core.mig import Mig
from repro.core.signal import make_signal, negate, node_of


# --------------------------------------------------------------------- #
# Independent reference implementations (no kernel caches involved)
# --------------------------------------------------------------------- #
def reference_topological_order(net):
    """PO-reachable gates, fanins first, computed from scratch."""
    order = []
    visited = set(net.pi_nodes()) | {0}

    def visit(root):
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if node in visited:
                continue
            visited.add(node)
            stack.append((node, True))
            for f in net.fanins(node):
                fn = node_of(f)
                if fn not in visited and not net.is_pi(fn) and not net.is_constant(fn):
                    stack.append((fn, False))

    for po in net.po_signals():
        root = node_of(po)
        if root not in visited:
            visit(root)
    return order


def reference_levels(net):
    """Per-node levels of the PO-reachable cone; everything else is 0."""
    level = [0] * net.num_nodes
    for node in reference_topological_order(net):
        level[node] = 1 + max(level[node_of(f)] for f in net.fanins(node))
    return level


def reference_depth(net):
    if not net.po_signals():
        return 0
    level = reference_levels(net)
    return max(level[node_of(po)] for po in net.po_signals())


def reference_live_levels(net):
    """Longest-path level of every live node (dangling ones included)."""
    level = {}
    for node in range(net.num_nodes):
        if net.is_dead(node) or node in level:
            continue
        stack = [node]
        while stack:
            current = stack[-1]
            if net.is_pi(current) or net.is_constant(current):
                level[current] = 0
                stack.pop()
                continue
            pending = [node_of(f) for f in net.fanins(current) if node_of(f) not in level]
            if pending:
                stack.extend(pending)
                continue
            level[current] = 1 + max(level[node_of(f)] for f in net.fanins(current))
            stack.pop()
    return level


def reference_in_tfi(net, target, start):
    """``target`` reachable from ``start`` through fanins, by plain DFS."""
    seen = set()
    stack = [start]
    while stack:
        node = stack.pop()
        if node == target:
            return True
        if node in seen or not net.is_gate(node):
            continue
        seen.add(node)
        stack.extend(node_of(f) for f in net.fanins(node))
    return False


def assert_caches_consistent(net):
    assert net.depth() == reference_depth(net)
    assert net.levels() == reference_levels(net)
    # The cached order must be a valid topological order of exactly the
    # reference's reachable gate set.
    order = net.topological_order()
    assert sorted(order) == sorted(reference_topological_order(net))
    position = {node: i for i, node in enumerate(order)}
    for node in order:
        for f in net.fanins(node):
            fn = node_of(f)
            if fn in position:
                assert position[fn] < position[node]
    net.check_integrity()


# --------------------------------------------------------------------- #
# Random network builders
# --------------------------------------------------------------------- #
def random_mig(rng, num_pis=6, num_gates=40):
    mig = Mig()
    signals = [mig.add_pi(f"x{i}") for i in range(num_pis)]
    signals.append(mig.constant(False))
    for _ in range(num_gates):
        a, b, c = rng.sample(signals, 3)
        if rng.random() < 0.4:
            a = negate(a)
        signals.append(mig.maj(a, b, c))
    for _ in range(3):
        mig.add_po(rng.choice(signals))
    return mig


def random_aig(rng, num_pis=6, num_gates=40):
    aig = Aig()
    signals = [aig.add_pi(f"x{i}") for i in range(num_pis)]
    for _ in range(num_gates):
        a, b = rng.sample(signals, 2)
        if rng.random() < 0.4:
            a = negate(a)
        signals.append(aig.and_(a, b))
    for _ in range(3):
        aig.add_po(rng.choice(signals))
    return aig


def random_substitutions(net, rng, steps=30):
    """Apply random substitute / cleanup steps, checking caches each time."""
    for step in range(steps):
        gates = [n for n in net.gates() if not net.is_dead(n)]
        if not gates:
            break
        old = rng.choice(gates)
        target = rng.choice(
            [make_signal(n) for n in gates] + net.pi_signals() + [net.constant(False)]
        )
        if rng.random() < 0.4:
            target = negate(target)
        net.substitute(old, target)
        if step % 7 == 0:
            net.cleanup()
        assert_caches_consistent(net)
    net.cleanup()
    assert_caches_consistent(net)


def live_gates(net):
    """Every live gate, dangling ones included (``Aig.gates`` skips those)."""
    return [n for n in range(net.num_nodes) if net.is_gate(n) and not net.is_dead(n)]


def random_edit(net, rng):
    """One random ``substitute`` or ``replace_fanins`` step, no read."""
    gates = live_gates(net)
    if not gates:
        return
    signals = [make_signal(n) for n in gates] + net.pi_signals()
    node = rng.choice(gates)
    if rng.random() < 0.3:
        target = rng.choice(signals)
        net.substitute(node, negate(target) if rng.random() < 0.4 else target)
        return
    arity = len(net.fanins(node))
    fanins = tuple(
        negate(s) if rng.random() < 0.4 else s for s in rng.sample(signals, arity)
    )
    try:
        net.replace_fanins(node, fanins)
    except ValueError:
        pass  # the rewire would close a cycle


def drive_every_sink(net):
    """Put a PO on every dangling gate, so no edit step reclaims it."""
    for node in live_gates(net):
        if net.fanout_size(node) == 0:
            net.add_po(make_signal(node))
    return net


def pending_fall_batches(net, rng, batches=10):
    """Run edit batches with no read in between; check each batch's end.

    Returns how many batches ended with level falls still pending, so the
    caller can assert the lazy path was exercised at all.
    """
    pending = 0
    for batch in range(batches):
        for _ in range(rng.randint(5, 10)):
            random_edit(net, rng)
        if net._level_falls:
            pending += 1
            live = [n for n in range(net.num_nodes) if not net.is_dead(n)]
            for _ in range(40):
                target, start = rng.choice(live), rng.choice(live)
                assert net._in_tfi(target, start) == reference_in_tfi(net, target, start)
        if batch % 2:
            net.check_integrity()  # the invariant with falls pending, then settled
        expected = reference_live_levels(net)
        snapshot = net.level_snapshot()
        assert not net._level_falls
        assert {node: snapshot[node] for node in expected} == expected
        assert net.depth() == reference_depth(net)
        assert net.levels() == reference_levels(net)
        net.check_integrity()
    return pending


def assert_falls_settled_by_readers(net, rng):
    for _ in range(30):
        random_edit(net, rng)
    assert net._level_falls
    net.depth()
    assert not net._level_falls
    for _ in range(30):
        random_edit(net, rng)
    assert net._level_falls
    clone = pickle.loads(pickle.dumps(net))
    assert not clone._level_falls
    assert not net._level_falls
    assert clone.level_snapshot() == net.level_snapshot()


# --------------------------------------------------------------------- #
# Tests
# --------------------------------------------------------------------- #
class TestMigLevelCache:
    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_substitutions(self, seed):
        rng = random.Random(seed)
        mig = random_mig(rng)
        assert_caches_consistent(mig)
        random_substitutions(mig, rng)

    def test_depth_is_o1_between_changes(self):
        rng = random.Random(99)
        mig = random_mig(rng, num_pis=5, num_gates=25)
        mig.depth()
        # Serving from the cache twice must be stable without mutation.
        assert mig.depth() == mig.depth()
        assert mig.levels() == mig.levels()
        assert mig.topological_order() == mig.topological_order()

    def test_node_creation_keeps_caches_valid(self):
        rng = random.Random(7)
        mig = random_mig(rng, num_pis=4, num_gates=12)
        before = mig.levels()
        # A speculative node (not referenced by any PO) must not disturb
        # the snapshot: it is unreachable and sits at level 0.
        x, y = mig.pi_signals()[:2]
        fresh = mig.maj(x, negate(y), mig.constant(False))
        after = mig.levels()
        assert after[: len(before)] == before
        assert_caches_consistent(mig)
        # Registering it as an output makes it reachable.
        mig.add_po(fresh)
        assert_caches_consistent(mig)

    def test_replace_fanins_repairs_levels(self):
        mig = Mig()
        a, b, c, d = (mig.add_pi(n) for n in "abcd")
        inner = mig.maj(a, b, c)
        outer = mig.maj(inner, c, d)
        mig.add_po(outer)
        assert mig.depth() == 2
        mig.replace_fanins(node_of(outer), (a, c, d))
        assert_caches_consistent(mig)
        assert mig.depth() == 1


    @pytest.mark.parametrize("seed", range(6))
    def test_batches_with_pending_falls(self, seed):
        rng = random.Random(300 + seed)
        mig = drive_every_sink(random_mig(rng, num_pis=8, num_gates=120))
        assert pending_fall_batches(mig, rng) > 0

    def test_readers_settle_pending_falls(self):
        rng = random.Random(77)
        assert_falls_settled_by_readers(
            drive_every_sink(random_mig(rng, num_pis=8, num_gates=120)), rng
        )


class TestAigLevelCache:
    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_substitutions(self, seed):
        rng = random.Random(1000 + seed)
        aig = random_aig(rng)
        assert_caches_consistent(aig)
        random_substitutions(aig, rng)

    def test_substitute_collapses_and_updates_depth(self):
        aig = Aig()
        a, b, c = (aig.add_pi(n) for n in "abc")
        ab = aig.and_(a, b)
        abc = aig.and_(ab, c)
        aig.add_po(abc)
        assert aig.depth() == 2
        # Replacing the inner conjunction by a literal shortens the path.
        assert aig.substitute(node_of(ab), a)
        assert_caches_consistent(aig)
        assert aig.depth() == 1
        assert aig.num_gates == 1

    def test_reachable_accounting_after_substitute(self):
        rng = random.Random(4242)
        aig = random_aig(rng, num_pis=5, num_gates=30)
        random_substitutions(aig, rng, steps=15)
        assert aig.num_gates == len(reference_topological_order(aig))

    @pytest.mark.parametrize("seed", range(6))
    def test_batches_with_pending_falls(self, seed):
        rng = random.Random(400 + seed)
        aig = drive_every_sink(random_aig(rng, num_pis=8, num_gates=120))
        assert pending_fall_batches(aig, rng) > 0

    def test_readers_settle_pending_falls(self):
        rng = random.Random(78)
        assert_falls_settled_by_readers(
            drive_every_sink(random_aig(rng, num_pis=8, num_gates=120)), rng
        )
