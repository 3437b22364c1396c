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
a cut's table is the value of the node when leaf ``i`` carries bit ``i``
of the minterm index ``m``.  Leaves are *nodes* (regular polarity); edge
complementations inside the cone are folded into the table.

Packed cut lists
----------------
A node's cuts are one flat machine-word array (``array("I")``), one
record per cut, in order::

    signature, table, leaf count, leaf_1, ..., leaf_n

The trivial cut ``{n}`` — always the last cut of a gate, and the only
cut of a primary input — is implicit: its leaves, table (``0b10``) and
signature follow from ``n``, so it is never stored, and a primary input's
list is empty.  Only this module knows the layout; consumers read a list
through :func:`iter_cuts`, which yields ``(leaves, table)`` per stored
cut.  One array per node and no object per cut keep the store small:
about 165 B per node on a 16k-gate balanced MIG at ``k=4``,
``cut_limit=6``.

Hot-loop structure
------------------
The fanin merge is the single hot loop of Boolean rewriting on large
networks, so it is organised around constant-factor savings:

* every cut carries a 32-bit *leaf signature* — the OR of
  ``1 << (leaf % 32)`` over its leaves.  Because the signature of a union
  is the OR of the signatures and a set's signature can never have more
  one-bits than the set has elements, ``popcount(sig_a | sig_b) > k``
  proves the merged leaf set is infeasible *before* any set is
  materialised.  (The converse does not hold — bits can collide — so
  surviving merges still verify the real union.)  The same subset
  property prefilters the dominance check: a kept cut can only dominate a
  candidate when its signature bits are a subset of the candidate's.
* each fanin's packed list is decoded once per merge into
  ``(leaves, signature, table)`` tuples, with its trivial cut appended; a
  constant fanin contributes no list at all (its edge is the all-zero or
  all-one table in every leaf space), so a majority gate with a constant
  fanin — an AND or OR — merges two lists instead of three.
* a merge candidate carries the signature and leaf set the cross product
  already built, as a ``(size, leaves, sign, leaf_set, combo)`` tuple;
  leaf tuples are unique, so a plain sort orders candidates by size and
  leaves, and neither the signature nor the set is rebuilt for the
  dominance check.
* a kept cut's table is evaluated directly on the children's tables:
  each is re-expressed in the merged leaf space, complemented by XOR
  with the table mask when its fanin edge is, and combined by the
  kernel's ``_gate_value`` (majority or AND).  The re-expression
  (:func:`_expand_positions`) is memoized by an LRU keyed on ``(table,
  leaf-position mapping)`` rather than on concrete node ids, so
  structurally recurring cones across the network — and across networks
  — hit the same entries.

Incremental re-enumeration (:class:`CutManager`)
------------------------------------------------
:func:`enumerate_cuts` recomputes every PO-reachable node from scratch and
stays the reference implementation (and the oracle of the property tests).
:class:`CutManager` keeps the same packed lists *incrementally* between
sweeps, in a list indexed by node id.  The invalidation protocol:

* the manager registers as a kernel mutation listener
  (:meth:`LogicNetwork.register_mutation_listener`); the kernel notifies
  it whenever a gate's fanin tuple is retargeted in place (which is the
  single choke point of every substitution cascade and
  ``replace_fanins``), whenever a node dies, and when ``assign_from``
  wholesale-replaces the network;
* a retargeted node is marked *dirty*: its own cuts — and potentially
  those of its transitive fanouts — are stale.  A dead node's entry is
  cleared immediately.  A reset clears everything;
* a sweep (:meth:`CutManager.cuts`) walks the current PO-reachable
  topological order and recomputes exactly the nodes that are dirty or
  uncached (a node created since the last sweep has no entry yet).  When
  a recomputed node's packed list actually changed — the old and new
  arrays are compared directly; the signatures in them follow from the
  leaves, so this compares leaves and tables — its live fanouts are
  marked dirty in turn, so staleness propagates node-by-node and stops
  as soon as the recomputation converges back onto the cached cuts;
* dirty marks on nodes that are currently unreachable from the primary
  outputs persist (such a node can only be *re*-reached later, at which
  point the pending mark forces the recomputation), so the cache is
  correct under PO redirects and reconvergent substitutions.

Every cut list a sweep produces is identical — same cuts, same order,
same words — to what :func:`enumerate_cuts` would compute from scratch on
the current network, which is the invariant
``tests/network/test_cuts_incremental.py`` fuzzes over both network types.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..core.signal import CONST_NODE

__all__ = [
    "CutManager",
    "enumerate_cuts",
    "iter_cuts",
    "release_cut_state",
    "cut_cone",
    "mffc_nodes",
]

#: Machine word of a packed cut list: unsigned 32-bit, which holds a node
#: id, a table of at most four leaves and the 32-bit signature.
_WORD = "I"

#: Truth table of the trivial cut ``{n}``: the single leaf variable itself.
_TRIVIAL_TABLE = 0b10

#: Packed cut list of a node that stores no cut (a primary input: its
#: trivial cut is implicit).  Shared, never mutated.
_NO_CUTS = array(_WORD)


def iter_cuts(packed: array) -> Iterator[Tuple[Tuple[int, ...], int]]:
    """``(leaves, table)`` of every cut stored in one packed cut list, in
    order.  The node's trivial cut is implicit and not yielded."""
    i = 0
    end = len(packed)
    while i < end:
        j = i + 3 + packed[i + 2]
        yield tuple(packed[i + 3 : j]), packed[i + 1]
        i = j


def _unpack(packed: array, node: int) -> List[Tuple[Tuple[int, ...], int, int]]:
    """Merge view of ``node``'s cuts: ``(leaves, sign, table)`` per stored
    cut, then the implicit trivial cut ``{node}``."""
    words = packed.tolist()
    out = []
    i = 0
    end = len(words)
    while i < end:
        j = i + 3 + words[i + 2]
        out.append((tuple(words[i + 3 : j]), words[i], words[i + 1]))
        i = j
    out.append(((node,), 1 << (node & 31), _TRIVIAL_TABLE))
    return out


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


def _node_cuts(
    gate_value,
    fanins: Tuple[int, ...],
    cuts: List[Optional[array]],
    k: int,
    cut_limit: int,
) -> array:
    """Packed cut list of one gate from its fanins' packed cut lists
    (shared by the batch enumerator and the incremental manager; both
    produce identical lists).  A constant fanin contributes no cut list:
    its edge is the all-zero or all-one table in every leaf space."""
    child_lists = [_unpack(cuts[f >> 1], f >> 1) for f in fanins if f >> 1 != CONST_NODE]

    # Each candidate is ``(size, leaves, sign, leaf_set, combo)``: the
    # union's signature is the OR of the children's, and leaf tuples are
    # unique, so sorting the tuples orders by (size, leaves) alone.
    seen: Set[Tuple[int, ...]] = set()
    merged: List[tuple] = []
    if len(child_lists) == 2:
        first, second = child_lists
        for a in first:
            la, sa, _ = a
            for b in second:
                sign = sa | b[1]
                if sign.bit_count() > k:
                    continue
                lb = b[0]
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
            la, sa, _ = a
            for b in second:
                sab = sa | b[1]
                if sab.bit_count() > k:
                    continue
                ab = {*la, *b[0]}
                if len(ab) > k:
                    continue
                for c in third:
                    sign = sab | c[1]
                    if sign.bit_count() > k:
                        continue
                    union = ab.union(c[0])
                    if len(union) > k:
                        continue
                    leaves = tuple(sorted(union))
                    if leaves in seen:
                        continue
                    seen.add(leaves)
                    merged.append((len(leaves), leaves, sign, union, (a, b, c)))
    else:  # a gate with two constant fanins, or another arity
        from itertools import product

        for combo in product(*child_lists):
            union = set()
            sign = 0
            for leaves, child_sign, _ in combo:
                union.update(leaves)
                sign |= child_sign
            if len(union) > k:
                continue
            leaves = tuple(sorted(union))
            if leaves in seen:
                continue
            seen.add(leaves)
            merged.append((len(leaves), leaves, sign, union, combo))

    merged.sort()
    words: List[int] = []
    kept_filters: List[Tuple[int, Set[int]]] = []
    for num_leaves, leaves, sign, leaf_set, combo in merged:
        # A cut dominated by a smaller kept cut adds nothing; the signature
        # subset test rejects most non-dominating pairs without set work.
        dominated = False
        for kept_sign, kept_set in kept_filters:
            if kept_sign | sign == sign and kept_set <= leaf_set:
                dominated = True
                break
        if dominated:
            continue
        # The cut's table: each child table re-expressed in the merged
        # leaf space, complemented by XOR with the mask when its fanin
        # edge is, and combined by the kernel's ``_gate_value``.
        mask = _TABLE_MASKS[num_leaves]
        edges = []
        children = iter(combo)
        for f in fanins:
            if f >> 1 == CONST_NODE:
                edges.append(mask if f & 1 else 0)
                continue
            child, _, table = next(children)
            if table and child != leaves:
                table = _expand_positions(
                    table, tuple([leaves.index(leaf) for leaf in child]), num_leaves
                )
            edges.append(table ^ mask if f & 1 else table)
        words += (sign, gate_value(edges), num_leaves, *leaves)
        kept_filters.append((sign, leaf_set))
        if len(kept_filters) >= cut_limit:
            break
    return array(_WORD, words)


def _validate_k(k: int) -> None:
    if not 1 <= k <= 4:
        raise ValueError(f"cut size must be between 1 and 4, got {k}")


def enumerate_cuts(net, k: int = 4, cut_limit: int = 8) -> List[Optional[array]]:
    """Enumerate up to ``cut_limit`` k-feasible cuts per PO-reachable node.

    Returns the packed cut list of every node, indexed by node id
    (``None`` for nodes that are dead or not PO-reachable); read one with
    :func:`iter_cuts`.  Every node's trivial cut is implicit, so a primary
    input's list is empty.  ``k`` must be at most 4 (the truth tables feed
    the 4-variable NPN machinery).

    This is the from-scratch reference path; long-lived networks that are
    swept repeatedly should go through :class:`CutManager` instead.
    """
    _validate_k(k)
    cuts: List[Optional[array]] = [None] * len(net._fanins)
    for pi in net.pi_nodes():
        cuts[pi] = _NO_CUTS
    fanins_store = net._fanins
    gate_value = net._gate_value
    for node in net._topology():
        cuts[node] = _node_cuts(gate_value, fanins_store[node], cuts, k, cut_limit)
    return cuts


class CutManager:
    """Incrementally maintained k-feasible cuts for one network.

    Attach one manager per ``(k, cut_limit)`` configuration with
    :meth:`for_network` (managers are cached on the network object so
    consecutive passes share them); :meth:`cuts` returns the same packed
    lists, indexed by node id, as :func:`enumerate_cuts` but
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
        self._cuts: List[Optional[array]] = []
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
        if node < len(self._cuts):
            self._cuts[node] = None

    def network_reset(self) -> None:
        self._cuts.clear()
        self._dirty.clear()
        self._valid = False
        self.notes.clear()

    # ------------------------------------------------------------------ #
    # Sweeps
    # ------------------------------------------------------------------ #
    def cuts(self) -> List[Optional[array]]:
        """Bring the cache up to date and return it.

        The returned list is the live cache (no defensive copy), indexed
        by node id: it holds the packed cut list of at least every
        PO-reachable node and primary input, each equal to the
        from-scratch enumeration of the current network, and ``None`` for
        dead nodes.  Callers must not mutate it; entries of nodes that die
        later are cleared by the death notification.
        """
        net = self.net
        stats = self.stats
        stats["sweeps"] += 1
        cache = self._cuts
        k, cut_limit = self.k, self.cut_limit
        if not self._valid:
            cache[:] = enumerate_cuts(net, k=k, cut_limit=cut_limit)
            self._dirty.clear()
            self._valid = True
            stats["full_rebuilds"] += 1
            stats["nodes_recomputed"] += len(net._topology())
            return cache

        fanins_store = net._fanins
        gate_value = net._gate_value
        cache += [None] * (len(fanins_store) - len(cache))
        for pi in net.pi_nodes():
            if cache[pi] is None:
                cache[pi] = _NO_CUTS
        dirty = self._dirty
        fanouts = net._fanouts
        recomputed = reused = 0
        for node in net._topology():
            old = cache[node]
            if old is None or node in dirty:
                new = _node_cuts(gate_value, fanins_store[node], cache, k, cut_limit)
                cache[node] = new
                dirty.discard(node)
                recomputed += 1
                if new != old:
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
