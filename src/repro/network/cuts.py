"""k-feasible cut enumeration over any :class:`~repro.network.base.LogicNetwork`.

A *cut* of a node ``n`` is a set of nodes (the *leaves*) such that every
path from ``n`` to the primary inputs passes through a leaf; it is
*k-feasible* when it has at most ``k`` leaves.  Cuts are the unit of
Boolean (as opposed to algebraic) optimization: the function of ``n`` over
the cut leaves is a small truth table that can be NPN-canonicalized and
matched against a database of precomputed structures
(:mod:`repro.network.npn`) or against standard-cell functions
(:mod:`repro.mapping.mapper`).

The enumeration is the classic bottom-up *priority cuts* scheme: the cut
set of a gate is the cross product of its fanins' cut sets, truncated to
the ``cut_limit`` best cuts per node (fewest leaves first), always keeping
the trivial cut ``{n}`` so fanouts can build on ``n`` itself.  Dominated
cuts (supersets of another kept cut) are filtered.  Each cut carries the
truth table of the node over its leaves, computed incrementally during the
merge with the same bit-parallel idiom the kernel's simulator uses — the
gate semantics are supplied by the subclass through ``_gate_value``, so the
same enumerator serves MIGs, AIGs and any future network type.

Truth tables are little-endian over the sorted leaf tuple: bit ``m`` of
``cut.table`` is the value of the node when leaf ``i`` carries bit ``i``
of the minterm index ``m``.  Leaves are *nodes* (regular polarity); edge
complementations inside the cone are folded into the table.

Hot-loop structure
------------------
The fanin merge is the single hot loop of Boolean rewriting on large
networks, so it is organised around constant-factor savings:

* every :class:`Cut` carries a 64-bit *leaf signature* — the OR of
  ``1 << (leaf % 64)`` over its leaves.  Because the signature of a union
  is the OR of the signatures and a set's signature can never have more
  one-bits than the set has elements, ``popcount(sig_a | sig_b) > k``
  proves the merged leaf set is infeasible *before* any set is
  materialised.  (The converse does not hold — bits can collide — so
  surviving merges still verify the real union.)  The same subset
  property prefilters the dominance check: a kept cut can only dominate a
  candidate when its signature bits are a subset of the candidate's.
* a merge candidate carries the signature and leaf set the cross product
  already built, as a ``(size, leaves, sign, leaf_set, combo)`` tuple;
  leaf tuples are unique, so a plain sort orders candidates by size and
  leaves, and neither the signature nor the set is rebuilt for the
  dominance check.
* a kept cut's table (:func:`_merge_table`) is evaluated directly on the
  children's tables: each is re-expressed in the merged leaf space,
  complemented by XOR with the table mask when its fanin edge is, and
  combined by the kernel's ``_gate_value`` (majority or AND).  The
  re-expression (:func:`_expand_positions`) is memoized by an LRU keyed
  on ``(table, leaf-position mapping)`` rather than on concrete node ids,
  so structurally recurring cones across the network — and across
  networks — hit the same entries.

Incremental re-enumeration (:class:`CutManager`)
------------------------------------------------
:func:`enumerate_cuts` recomputes every PO-reachable node from scratch and
stays the reference implementation (and the oracle of the property tests).
:class:`CutManager` keeps the same per-node cut lists *incrementally*
between sweeps.  The invalidation protocol:

* the manager registers as a kernel mutation listener
  (:meth:`LogicNetwork.register_mutation_listener`); the kernel notifies
  it whenever a gate's fanin tuple is retargeted in place (which is the
  single choke point of every substitution cascade and
  ``replace_fanins``), whenever a node dies, and when ``assign_from``
  wholesale-replaces the network;
* a retargeted node is marked *dirty*: its own cuts — and potentially
  those of its transitive fanouts — are stale.  A dead node's cache entry
  is dropped immediately.  A reset clears everything;
* a sweep (:meth:`CutManager.cuts`) walks the current PO-reachable
  topological order and recomputes exactly the nodes that are dirty or
  uncached (a node created since the last sweep has no entry yet).  When
  a recomputed node's cut list actually changed — lists are compared as
  ``(leaves, table)`` sequences — its live fanouts are marked dirty in
  turn, so staleness propagates node-by-node and stops as soon as the
  recomputation converges back onto the cached cuts;
* dirty marks on nodes that are currently unreachable from the primary
  outputs persist (such a node can only be *re*-reached later, at which
  point the pending mark forces the recomputation), so the cache is
  correct under PO redirects and reconvergent substitutions.  Signatures
  live inside the immutable :class:`Cut` objects and are rebuilt exactly
  when the owning cut list is.

Every cut list a sweep produces is identical — same cuts, same order — to
what :func:`enumerate_cuts` would compute from scratch on the current
network, which is the invariant ``tests/network/test_cuts_incremental.py``
fuzzes over both network types.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.signal import CONST_NODE

__all__ = [
    "Cut",
    "CutManager",
    "enumerate_cuts",
    "release_cut_state",
    "cut_cone",
    "mffc_nodes",
]


class Cut:
    """One k-feasible cut: sorted leaf nodes plus the root's local function.

    ``sign`` is the 64-bit leaf signature (OR of ``1 << (leaf % 64)``)
    used to reject infeasible merges and non-dominating comparisons before
    touching the actual leaf sets.
    """

    __slots__ = ("leaves", "table", "sign")

    def __init__(self, leaves: Tuple[int, ...], table: int, sign: Optional[int] = None) -> None:
        self.leaves = leaves
        self.table = table
        if sign is None:
            sign = 0
            for leaf in leaves:
                sign |= 1 << (leaf & 63)
        self.sign = sign

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Cut(leaves={self.leaves}, table=0x{self.table:x})"


#: Truth table of the trivial cut ``{n}``: the single leaf variable itself.
_TRIVIAL_TABLE = 0b10

#: Cut list of the constant node (used for constant fanin edges).
_CONST_CUTS: Tuple[Cut, ...] = (Cut((), 0, 0),)


def _trivial_cut(node: int) -> Cut:
    return Cut((node,), _TRIVIAL_TABLE, 1 << (node & 63))


@lru_cache(maxsize=1 << 14)
def _expand_positions(table: int, positions: Tuple[int, ...], num_leaves: int) -> int:
    """Re-express ``table`` given where each of its variables sits in the
    merged leaf tuple.  Keyed on the *position mapping*, not on node ids,
    so recurring cone shapes share entries across sweeps and networks."""
    out = 0
    for m in range(1 << num_leaves):
        cm = 0
        for i, p in enumerate(positions):
            if (m >> p) & 1:
                cm |= 1 << i
        if (table >> cm) & 1:
            out |= 1 << m
    return out


#: ``_TABLE_MASKS[n]``: all ``2**n`` minterm bits of an ``n``-leaf table.
_TABLE_MASKS = tuple((1 << (1 << n)) - 1 for n in range(5))


def _merge_table(
    gate_value, fanins: Tuple[int, ...], combo: Sequence[Cut], leaves: Tuple[int, ...]
) -> int:
    """Truth table of one gate over ``leaves`` given its fanins' cut tables.

    Each child table is re-expressed in the ``leaves`` space, complemented
    by XOR with the mask when its fanin edge is, and the kernel's
    ``_gate_value`` combines them.
    """
    num_leaves = len(leaves)
    mask = _TABLE_MASKS[num_leaves]
    edges = []
    for f, cut in zip(fanins, combo):
        table = cut.table
        child = cut.leaves
        if table and child != leaves:
            # A zero table (the constant cut) is zero in every space.
            table = _expand_positions(
                table, tuple([leaves.index(leaf) for leaf in child]), num_leaves
            )
        edges.append(table ^ mask if f & 1 else table)
    return gate_value(edges)


def _node_cuts(
    net,
    node: int,
    fanins: Tuple[int, ...],
    cuts: Dict[int, List[Cut]],
    k: int,
    cut_limit: int,
) -> List[Cut]:
    """Cut list of one gate from its fanins' cut lists (shared by the batch
    enumerator and the incremental manager; both produce identical lists)."""
    child_lists: List[Sequence[Cut]] = []
    for f in fanins:
        fn = f >> 1
        child_lists.append(_CONST_CUTS if fn == CONST_NODE else cuts[fn])

    # Each candidate is ``(size, leaves, sign, leaf_set, combo)``: the
    # union's signature is the OR of the children's, and leaf tuples are
    # unique, so sorting the tuples orders by (size, leaves) alone.
    seen: Set[Tuple[int, ...]] = set()
    merged: List[tuple] = []
    if len(child_lists) == 2:
        first, second = child_lists
        for a in first:
            la = a.leaves
            if len(la) > k:
                continue
            sa = a.sign
            for b in second:
                sign = sa | b.sign
                if sign.bit_count() > k:
                    continue
                lb = b.leaves
                if la == lb:
                    leaves = la
                    union = set(la)
                else:
                    union = {*la, *lb}
                    if len(union) > k:
                        continue
                    leaves = tuple(sorted(union))
                if leaves in seen:
                    continue
                seen.add(leaves)
                merged.append((len(leaves), leaves, sign, union, (a, b)))
    elif len(child_lists) == 3:
        first, second, third = child_lists
        for a in first:
            la = a.leaves
            if len(la) > k:
                continue
            sa = a.sign
            for b in second:
                sab = sa | b.sign
                if sab.bit_count() > k:
                    continue
                ab = {*la, *b.leaves}
                if len(ab) > k:
                    continue
                for c in third:
                    sign = sab | c.sign
                    if sign.bit_count() > k:
                        continue
                    union = ab.union(c.leaves)
                    if len(union) > k:
                        continue
                    leaves = tuple(sorted(union))
                    if leaves in seen:
                        continue
                    seen.add(leaves)
                    merged.append((len(leaves), leaves, sign, union, (a, b, c)))
    else:  # pragma: no cover - no current network has another arity
        from itertools import product

        for combo in product(*child_lists):
            union = set()
            sign = 0
            for cut in combo:
                union.update(cut.leaves)
                sign |= cut.sign
            if len(union) > k:
                continue
            leaves = tuple(sorted(union))
            if leaves in seen:
                continue
            seen.add(leaves)
            merged.append((len(leaves), leaves, sign, union, combo))

    merged.sort()
    gate_value = net._gate_value
    kept: List[Cut] = []
    kept_filters: List[Tuple[int, Set[int]]] = []
    for _, leaves, sign, leaf_set, combo in merged:
        # A cut dominated by a smaller kept cut adds nothing; the signature
        # subset test rejects most non-dominating pairs without set work.
        dominated = False
        for kept_sign, kept_set in kept_filters:
            if kept_sign | sign == sign and kept_set <= leaf_set:
                dominated = True
                break
        if dominated:
            continue
        kept.append(Cut(leaves, _merge_table(gate_value, fanins, combo, leaves), sign))
        kept_filters.append((sign, leaf_set))
        if len(kept) >= cut_limit:
            break
    kept.append(_trivial_cut(node))
    return kept


def _validate_k(k: int) -> None:
    if not 1 <= k <= 4:
        raise ValueError(f"cut size must be between 1 and 4, got {k}")


def enumerate_cuts(net, k: int = 4, cut_limit: int = 8) -> Dict[int, List[Cut]]:
    """Enumerate up to ``cut_limit`` k-feasible cuts per PO-reachable node.

    Returns a mapping ``node -> [Cut, ...]``; every gate's list ends with
    its trivial cut, and primary inputs carry only theirs.  ``k`` must be
    at most 4 (the truth tables feed the 4-variable NPN machinery).

    This is the from-scratch reference path; long-lived networks that are
    swept repeatedly should go through :class:`CutManager` instead.
    """
    _validate_k(k)
    cuts: Dict[int, List[Cut]] = {}
    for pi in net.pi_nodes():
        cuts[pi] = [_trivial_cut(pi)]
    fanins_store = net._fanins
    for node in net._topology():
        cuts[node] = _node_cuts(net, node, fanins_store[node], cuts, k, cut_limit)
    return cuts


def _cut_lists_equal(old: List[Cut], new: List[Cut]) -> bool:
    if len(old) != len(new):
        return False
    for a, b in zip(old, new):
        if a.leaves != b.leaves or a.table != b.table:
            return False
    return True


class CutManager:
    """Incrementally maintained k-feasible cuts for one network.

    Attach one manager per ``(k, cut_limit)`` configuration with
    :meth:`for_network` (managers are cached on the network object so
    consecutive passes share them); :meth:`cuts` returns the same
    ``node -> [Cut, ...]`` mapping as :func:`enumerate_cuts` but
    recomputes only the cones whose fanin closure was touched since the
    previous sweep — see the module docstring for the invalidation
    protocol.  ``stats`` accumulates per-manager sweep counters
    (``nodes_recomputed`` / ``nodes_reused`` / ``full_rebuilds``) that the
    rewriting passes surface through the flow-engine metrics.

    ``notes`` is a scratch mapping for consumers (the rewrite engine
    records there, per sweep parameterisation, the mutation serial at
    which a sweep applied nothing); it is cleared whenever the network is
    wholesale-replaced.

    A manager and its network reference each other (``self.net`` one way;
    the ``_cut_managers`` registry and the listener list the other), so an
    attached manager keeps its whole per-node cut cache alive for as long
    as the network lives, and the pair can only be freed by the cyclic
    garbage collector.  Whoever ends a network's sweeping detaches its
    managers (:meth:`detach`, :func:`release_cut_state`):
    :func:`repro.flows.mighty.mighty_optimize` and the rebuild-style AIG
    ``rewrite``/``refactor`` wrappers do so before they return.
    """

    def __init__(self, net, k: int = 4, cut_limit: int = 8) -> None:
        _validate_k(k)
        self.net = net
        self.k = k
        self.cut_limit = cut_limit
        self._cuts: Dict[int, List[Cut]] = {}
        self._dirty: Set[int] = set()
        self._valid = False
        self.notes: Dict[object, object] = {}
        self.stats: Dict[str, int] = {
            "sweeps": 0,
            "full_rebuilds": 0,
            "nodes_recomputed": 0,
            "nodes_reused": 0,
        }
        net.register_mutation_listener(self)

    @classmethod
    def for_network(cls, net, k: int = 4, cut_limit: int = 8) -> "CutManager":
        """The shared manager of ``net`` for this configuration (created on
        first use, then reused by every consumer with the same ``k`` and
        ``cut_limit`` — which is what makes interleaved rewrite rounds
        incremental)."""
        managers = net.__dict__.setdefault("_cut_managers", {})
        key = (k, cut_limit)
        manager = managers.get(key)
        if manager is None:
            manager = managers[key] = cls(net, k=k, cut_limit=cut_limit)
        return manager

    def detach(self) -> None:
        """Unregister from the network and drop the shared-cache slot."""
        self.net.unregister_mutation_listener(self)
        managers = self.net.__dict__.get("_cut_managers")
        if managers is not None and managers.get((self.k, self.cut_limit)) is self:
            del managers[(self.k, self.cut_limit)]

    @property
    def generation(self) -> int:
        """The network's mutation serial (bumps on every structural change)."""
        return self.net._mutation_serial

    # ------------------------------------------------------------------ #
    # Kernel mutation-listener protocol
    # ------------------------------------------------------------------ #
    def network_retargeted(self, node: int) -> None:
        self._dirty.add(node)

    def network_node_died(self, node: int) -> None:
        self._dirty.discard(node)
        self._cuts.pop(node, None)

    def network_reset(self) -> None:
        self._cuts.clear()
        self._dirty.clear()
        self._valid = False
        self.notes.clear()

    # ------------------------------------------------------------------ #
    # Sweeps
    # ------------------------------------------------------------------ #
    def cuts(self) -> Dict[int, List[Cut]]:
        """Bring the cache up to date and return it.

        The returned mapping is the live cache (no defensive copy): it
        covers at least every PO-reachable node and every entry equals the
        from-scratch enumeration of the current network.  Callers must not
        mutate it; entries of nodes that die later are dropped by the
        death notification.
        """
        net = self.net
        stats = self.stats
        stats["sweeps"] += 1
        cache = self._cuts
        if not self._valid:
            cache.clear()
            self._dirty.clear()
            for pi in net.pi_nodes():
                cache[pi] = [_trivial_cut(pi)]
            fanins_store = net._fanins
            order = net._topology()
            k, cut_limit = self.k, self.cut_limit
            for node in order:
                cache[node] = _node_cuts(net, node, fanins_store[node], cache, k, cut_limit)
            self._valid = True
            stats["full_rebuilds"] += 1
            stats["nodes_recomputed"] += len(order)
            return cache

        for pi in net.pi_nodes():
            if pi not in cache:
                cache[pi] = [_trivial_cut(pi)]
        dirty = self._dirty
        fanins_store = net._fanins
        fanouts = net._fanouts
        k, cut_limit = self.k, self.cut_limit
        recomputed = reused = 0
        for node in net._topology():
            if node in dirty or node not in cache:
                old = cache.get(node)
                new = _node_cuts(net, node, fanins_store[node], cache, k, cut_limit)
                cache[node] = new
                dirty.discard(node)
                recomputed += 1
                if old is None or not _cut_lists_equal(old, new):
                    # Propagate: fanouts later in the order pick the mark
                    # up this sweep; unreachable fanouts keep it pending.
                    dirty.update(fanouts[node] or ())
            else:
                reused += 1
        stats["nodes_recomputed"] += recomputed
        stats["nodes_reused"] += reused
        return cache


def release_cut_state(net) -> None:
    """Detach every cut manager from ``net``.

    For callers that know the network will not be swept again:
    :func:`repro.flows.mighty.mighty_optimize` releases the network it
    optimized and the rebuild-style AIG ``rewrite``/``refactor`` wrappers
    the copy they hand back.  Detaching breaks the manager↔network
    reference cycle (see :class:`CutManager`), so a finished result pins
    no per-node cut cache or mutation listener, and it is freed by
    reference counting as soon as its last user drops it.  A later sweep
    simply attaches a fresh manager.
    """
    managers = net.__dict__.get("_cut_managers")
    if managers:
        for manager in list(managers.values()):
            manager.detach()


def cut_cone(net, root: int, leaves: Sequence[int]) -> List[int]:
    """Gate nodes between ``root`` (inclusive) and the cut ``leaves``.

    Topological order (fanins first).  Every path from ``root`` downward is
    stopped by a leaf — the defining property of a cut — so the walk never
    reaches a primary input that is not a leaf.
    """
    leaf_set = set(leaves)
    fanins_store = net._fanins
    order: List[int] = []
    visited = set(leaf_set)
    stack = [root]
    while stack:
        node = stack.pop()
        if node < 0:
            order.append(~node)
            continue
        if node in visited:
            continue
        visited.add(node)
        stack.append(~node)
        for f in fanins_store[node]:
            fn = f >> 1
            if fn not in visited and fanins_store[fn] is not None:
                stack.append(fn)
    return order


def mffc_nodes(net, root: int, leaves: Sequence[int]) -> Set[int]:
    """Maximum fanout-free cone of ``root`` with respect to a cut.

    The set of gate nodes (including ``root``) that would be reclaimed if
    every reference to ``root`` were redirected elsewhere: simulated
    dereferencing over the cone, stopping at the cut leaves.  This is
    exactly the cascade :meth:`LogicNetwork.substitute` performs, so
    ``len(mffc_nodes(...))`` is the size gain of deleting the cone.
    """
    leaf_set = set(leaves)
    fanins_store = net._fanins
    ref_store = net._ref
    refs: Dict[int, int] = {}
    mffc: Set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        mffc.add(node)
        for f in fanins_store[node]:
            fn = f >> 1
            if fn in leaf_set or fanins_store[fn] is None:
                continue
            remaining = refs.get(fn)
            if remaining is None:
                remaining = ref_store[fn]
            remaining -= 1
            refs[fn] = remaining
            if remaining == 0:
                stack.append(fn)
    return mffc
