"""Shared kernel of all homogeneous logic networks in :mod:`repro`.

:class:`LogicNetwork` owns everything that :class:`repro.core.mig.Mig`
(three-input majority nodes) and :class:`repro.aig.aig.Aig` (two-input AND
nodes) have in common:

* dense node storage with reference counting, fanout tracking and
  dead-node reclamation.  ``_fanouts[n]`` is ``None`` when no live gate
  references ``n`` (so dead and fresh slots allocate nothing) and
  otherwise a duplicate-free list of the referencing gates in insertion
  order, which is also the order every fanout walk visits them.  The
  constant node's fanouts are never stored: its level never moves and it
  is never substituted, so nothing would read them;
* structural hashing of gate fanin tuples;
* in-place substitution with automatic cascade propagation (strashing
  hits and gate-level simplifications in the fanout re-applied until a
  fixpoint), the engine behind every rewrite rule;
* bit-parallel simulation and exhaustive truth tables;
* compacting copy / ``assign_from`` rollback support;
* **incremental structural state**: per-node logic levels are maintained
  incrementally (rises propagate through the fanout cone at once, falls
  are repaired lazily when a reader needs exact levels), and the
  PO-reachable topological order plus the level snapshot are cached with
  dirty-region invalidation, so :meth:`depth`, :meth:`levels` and
  :meth:`topological_order` are O(1) when the network has not changed;
* **mutation notifications**: a monotone mutation serial
  (``_mutation_serial``, bumped on every structural change) plus a
  listener hook (:meth:`register_mutation_listener`) through which
  derived-state caches — the incremental cut engine of
  :class:`repro.network.cuts.CutManager` — subscribe to in-place fanin
  retargets, node deaths and wholesale resets alongside the existing
  level repair.

Subclasses provide the gate semantics through these hooks:

``_gate_simplify(fanins)``
    The constant/idempotence/complement folding of the node function
    (Ω.M for majority, AND folding for AIGs); returns a replacement
    signal or ``None``.
``_strash_candidates(fanins)``
    The structural-hash keys under which a rewritten fanin tuple may
    already exist, as a tuple of ``(key, output_complemented)`` pairs.
    The first candidate's key is the canonical stored form.
``_gate_key(fanins)`` / ``_normalize_gate(fanins)``
    The canonical key of a stored fanin tuple, and the builder's
    normalization of a raw one (stored form plus output polarity).
``_gate_value(edge_values)``
    The gate function applied bitwise to its fanin *edge* values
    (complements already applied), in fanin order: majority for MIGs,
    AND for AIGs.  Bit-parallel evaluation (:meth:`_eval_gate`), local
    truth tables and the cut enumerator's table merge all go through it.
``_simulate_program(program, values, mask)``
    Evaluate a simulation program — ``(node, *fanins)`` integer tuples
    in topological order — into ``values`` (a generic default built on
    :meth:`_eval_gate` is provided; MIGs and AIGs run one static loop).
``_build_gate(fanins)``
    Re-create a gate through the subclass's public builder (used by
    :meth:`copy` so simplification and hashing are re-applied).

Levels follow the paper's convention: primary inputs and the constant
node sit at level 0; the level of a gate is one plus the maximum fanin
level; :meth:`depth` is the maximum level over the primary outputs.

Cache-exactness invariants (relied on by the optimizers, validated by
``tests/network/test_level_cache.py``):

* ``_level`` is always an upper bound on the longest-path level of every
  *live* node ``n`` and always a strict topological labelling
  (``_level[p] > _level[f]`` for every fanin ``f`` of ``p``).  Every live
  node is either *tight* (its label is one plus its largest fanin label)
  or pending in ``_level_falls``.  A fanin retarget pushes a rise through
  the fanouts at once but only records a fall; :meth:`_settle_levels`
  applies the pending falls, after which every label is exact.  Every
  reader that needs exact levels settles first — :meth:`depth`,
  :meth:`levels`, :meth:`level_snapshot`, the topology rebuild, copies
  and pickles — so ``depth()`` stays O(#POs) between changes.  The
  labelling property alone is what :meth:`_in_tfi` prunes on and what
  gate creation builds on, so cycle checks stay exact while falls are
  pending.  Dead nodes keep the label they had when they died.
* The cached topological order contains exactly the gates reachable from
  the primary outputs.  Creating a node never invalidates it (a fresh
  node is unreachable until something references it); redirecting a
  primary output or substituting a node does.
* ``levels()`` reports 0 for nodes that are not PO-reachable, matching a
  from-scratch recomputation.  With no dangling nodes it therefore equals
  :meth:`level_snapshot` on every live node, which is why the Ω/Ψ hot
  loops take that O(n) copy instead of calling ``levels()``.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.signal import (
    CONST_FALSE,
    CONST_NODE,
    CONST_TRUE,
    is_complemented,
    make_signal,
    negate,
    negate_if,
    node_of,
    signal_repr,
    sort_signals,
)

__all__ = ["LogicNetwork"]

#: ``__dict__`` keys of the cached simulation program and kernel (see
#: :mod:`repro.codegen`), stripped on pickle and rebuilt on demand.
_CODEGEN_STATE_KEYS = (
    "_codegen_ir",
    "_codegen_ir_serial",
    "_codegen_kernel",
    "_codegen_kernel_serial",
)


class LogicNetwork:
    """Base class of homogeneous logic networks with complemented edges.

    Node ``0`` is the constant-0 node, primary inputs follow, gates are
    appended as created.  Signals use the ``(node << 1) | complement``
    encoding of :mod:`repro.core.signal`.
    """

    #: When every gate of the subclass computes one fixed function over
    #: its fanin *edge* values, its truth table (majority ``0xE8`` for
    #: MIGs, AND ``0x8`` for AIGs); ``None`` makes consumers fall back to
    #: per-node :meth:`gate_truth_table` calls.  Used by
    #: :func:`repro.codegen.ir.network_ir` to skip the projection-pattern
    #: evaluation per gate when flattening a network.
    UNIFORM_GATE_TT: Optional[int] = None

    #: Human-readable gate kind used in error messages ("majority", "AND").
    GATE_KIND: str = "gate"

    def __init__(self) -> None:
        # Per-node storage.  ``_fanins[n]`` is a tuple of fanin signals for
        # gates and ``None`` for the constant node and PIs.  ``_fanouts[n]``
        # lists the live gates referencing ``n`` (insertion order, no
        # duplicates) or is ``None`` when there are none; the constant's
        # entry stays ``None`` (module docstring).
        self._fanins: List[Optional[Tuple[int, ...]]] = [None]
        self._dead: List[bool] = [False]
        self._ref: List[int] = [0]
        self._fanouts: List[Optional[List[int]]] = [None]

        self._pis: List[int] = []
        self._pi_names: List[str] = []
        self._pos: List[int] = []
        self._po_names: List[str] = []

        self._strash: Dict[Tuple[int, ...], int] = {}
        self._num_gates = 0
        self.name: str = "network"

        # node -> number of primary outputs referencing it; lets the
        # substitution cascade skip the PO-redirect scan for the vast
        # majority of nodes that drive no output.
        self._po_refs: Dict[int, int] = {}

        # Incremental structural state.  ``_level`` is exact once the nodes
        # pending in ``_level_falls`` are settled (module docstring); the
        # order/levels caches cover the PO-reachable subgraph and are
        # invalidated by substitutions and PO changes.
        self._level: List[int] = [0]
        self._level_falls: set = set()
        self._order_cache: Optional[List[int]] = None
        self._levels_cache: Optional[List[int]] = None

        # Monotone counter of structural changes (allocation, retarget,
        # death, PO edits, resets): lets derived-state caches prove "the
        # network has not changed since" with one integer compare.
        self._mutation_serial = 0
        # Subscribers to structural-change events; each listener exposes
        # ``network_retargeted(node)``, ``network_node_died(node)`` and
        # ``network_reset()``.  The list is empty in the common case, so
        # notification costs one truthiness check per mutation.
        self._mutation_listeners: List = []

    # ------------------------------------------------------------------ #
    # Subclass hooks
    # ------------------------------------------------------------------ #
    def _gate_simplify(self, fanins: Tuple[int, ...]) -> Optional[int]:
        raise NotImplementedError

    def _strash_candidates(
        self, fanins: Tuple[int, ...]
    ) -> Tuple[Tuple[Tuple[int, ...], bool], ...]:
        raise NotImplementedError

    def _gate_key(self, fanins: Tuple[int, ...]) -> Tuple[int, ...]:
        """Canonical structural-hash key of a stored fanin tuple."""
        raise NotImplementedError

    def _normalize_gate(self, fanins: Tuple[int, ...]) -> Tuple[Tuple[int, ...], bool]:
        """Canonical stored form of a raw fanin tuple plus output polarity.

        Exactly the normalization the subclass builder applies before
        :meth:`_create_gate`; exposed so cost estimators (the rewrite
        engine's dry run) can mirror the builder's strash probe order.
        """
        raise NotImplementedError

    def _gate_value(self, values: Sequence[int]) -> int:
        """The gate function over its fanin edge values, in fanin order."""
        raise NotImplementedError

    def _build_gate(self, fanins: Tuple[int, ...]) -> int:
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Mutation notifications
    # ------------------------------------------------------------------ #
    def register_mutation_listener(self, listener) -> None:
        """Subscribe ``listener`` to structural-change notifications.

        The listener must expose ``network_retargeted(node)`` (a gate's
        fanin tuple changed in place), ``network_node_died(node)`` (the
        node was reclaimed) and ``network_reset()`` (``assign_from``
        replaced the whole network; all cached node ids are invalid).
        """
        if listener not in self._mutation_listeners:
            self._mutation_listeners.append(listener)

    def unregister_mutation_listener(self, listener) -> None:
        """Remove a previously registered mutation listener (idempotent)."""
        try:
            self._mutation_listeners.remove(listener)
        except ValueError:
            pass

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_pi(self, name: Optional[str] = None) -> int:
        """Create a primary input and return its (regular) signal."""
        node = self._allocate_node(None)
        self._pis.append(node)
        self._pi_names.append(name if name is not None else f"pi{len(self._pis) - 1}")
        return make_signal(node)

    def add_po(self, signal: int, name: Optional[str] = None) -> int:
        """Register ``signal`` as a primary output; return its PO index."""
        self._validate_signal(signal)
        index = len(self._pos)
        self._pos.append(signal)
        self._po_names.append(name if name is not None else f"po{index}")
        node = node_of(signal)
        self._ref[node] += 1
        self._po_refs[node] = self._po_refs.get(node, 0) + 1
        self._mutation_serial += 1
        self._invalidate_topology()
        return index

    def constant(self, value: bool) -> int:
        """Return the constant-0 or constant-1 signal."""
        return CONST_TRUE if value else CONST_FALSE

    def get_constant(self, value: bool) -> int:
        """Alias of :meth:`constant` (mockturtle-compatible name)."""
        return self.constant(value)

    def not_(self, a: int) -> int:
        """Return the complement of ``a`` (a complemented edge, no node)."""
        return negate(a)

    def _create_gate(self, fanins: Tuple[int, ...], out_compl: bool = False) -> int:
        """Allocate (or strash-reuse) a gate with already-canonical fanins.

        The caller (the subclass builder) has validated the fanin signals,
        applied the trivial simplifications and put ``fanins`` into the
        canonical stored form.  All structural-hash keys the function may
        live under are probed (``_strash_candidates``): in-place fanin
        rewrites can store a node under a non-canonical polarity form, and
        missing such a hit would materialise a functional duplicate.
        Creation keeps all caches valid: a new node is unreachable from the
        primary outputs until something references it, and its level is
        fixed by its fanins.
        """
        strash = self._strash
        for key, key_compl in self._strash_candidates(fanins):
            existing = strash.get(key)
            if existing is not None and not self._dead[existing]:
                return (existing << 1) | (out_compl ^ key_compl)

        node = self._allocate_node(fanins)
        strash[fanins] = node
        self._num_gates += 1
        level = self._level
        ref = self._ref
        fanouts = self._fanouts
        top = 0
        for f in fanins:
            fn = f >> 1
            ref[fn] += 1
            # :meth:`_fanout_add`, inlined on the builders' hot path.  Fanin
            # nodes of a gate are distinct (the builders fold repeats), so
            # each lists the new node once.
            if fn:
                listed = fanouts[fn]
                if listed is None:
                    fanouts[fn] = [node]
                else:
                    listed.append(node)
            if level[fn] > top:
                top = level[fn]
        level[node] = top + 1
        return (node << 1) | out_compl

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #
    @property
    def num_pis(self) -> int:
        return len(self._pis)

    @property
    def num_pos(self) -> int:
        return len(self._pos)

    @property
    def num_gates(self) -> int:
        """Number of live gate nodes (the *size* metric of the paper)."""
        return self._num_gates

    @property
    def size(self) -> int:
        """Alias for :attr:`num_gates`."""
        return self.num_gates

    @property
    def num_nodes(self) -> int:
        """Total allocated node slots (including constant, PIs and dead nodes)."""
        return len(self._fanins)

    def pi_nodes(self) -> List[int]:
        return list(self._pis)

    def pi_signals(self) -> List[int]:
        return [make_signal(n) for n in self._pis]

    def po_signals(self) -> List[int]:
        return list(self._pos)

    def pi_names(self) -> List[str]:
        return list(self._pi_names)

    def po_names(self) -> List[str]:
        return list(self._po_names)

    def pi_name(self, index: int) -> str:
        return self._pi_names[index]

    def po_name(self, index: int) -> str:
        return self._po_names[index]

    def pi_index(self, node: int) -> int:
        """Return the PI index of ``node`` (raises if not a PI)."""
        return self._pis.index(node)

    def set_po(self, index: int, signal: int) -> None:
        """Redirect an already-registered primary output."""
        self._validate_signal(signal)
        old = self._pos[index]
        self._pos[index] = signal
        node = node_of(signal)
        old_node = node_of(old)
        self._ref[node] += 1
        self._po_refs[node] = self._po_refs.get(node, 0) + 1
        if self._po_refs[old_node] == 1:
            del self._po_refs[old_node]
        else:
            self._po_refs[old_node] -= 1
        self._mutation_serial += 1
        self._invalidate_topology()
        self._deref(old_node)

    def is_constant(self, node: int) -> bool:
        return node == CONST_NODE

    def is_pi(self, node: int) -> bool:
        return self._fanins[node] is None and node != CONST_NODE

    def is_gate(self, node: int) -> bool:
        return self._fanins[node] is not None

    def is_dead(self, node: int) -> bool:
        return self._dead[node]

    def fanins(self, node: int) -> Tuple[int, ...]:
        """Return the fanin signals of a gate node."""
        fanins = self._fanins[node]
        if fanins is None:
            raise ValueError(f"node {node} is not a {self.GATE_KIND} node")
        return fanins

    def fanout_size(self, node: int) -> int:
        """Number of references (fanin edges plus primary outputs)."""
        return self._ref[node]

    def gates(self) -> Iterator[int]:
        """Iterate over live gate nodes (no particular order)."""
        fanins = self._fanins
        dead = self._dead
        return iter(
            [
                node
                for node in range(1, len(fanins))
                if fanins[node] is not None and not dead[node]
            ]
        )

    def nodes(self) -> Iterator[int]:
        """Iterate over all live nodes: constant, PIs, then gates."""
        for node in range(len(self._fanins)):
            if not self._dead[node]:
                yield node

    # ------------------------------------------------------------------ #
    # Topology, levels, depth (cached, incrementally maintained)
    # ------------------------------------------------------------------ #
    def topological_order(self) -> List[int]:
        """Live gate nodes in topological order (fanins before fanouts).

        Only nodes in the transitive fanin of a primary output are
        included, which matches the *size* accounting of the paper
        (dangling nodes are removed by :meth:`cleanup`).  The order is
        cached and only recomputed after a structural change that can
        affect reachability.
        """
        return list(self._topology())

    def _topology(self) -> List[int]:
        """The cached PO-reachable order itself (no defensive copy).

        For internal/O(1) consumers like ``Aig.num_gates``; callers must
        not mutate the returned list.
        """
        if self._order_cache is None:
            self._rebuild_topology()
        return self._order_cache

    def levels(self) -> List[int]:
        """Return per-node logic levels (PIs and constant at level 0).

        Nodes outside the transitive fanin of the primary outputs report
        level 0, exactly as a from-scratch recomputation would.  After a
        substitution this costs a PO-reachability DFS (which settles the
        pending level falls); the internal hot loops
        (:func:`repro.core.reshape.reshape`,
        :func:`repro.core.depth_opt.push_up`) take :meth:`level_snapshot`
        instead.
        """
        if self._order_cache is None:
            self._rebuild_topology()
        cached = self._levels_cache
        if len(cached) < len(self._fanins):
            # Nodes created since the snapshot are unreachable (nothing
            # references them yet) and therefore sit at level 0.
            return cached + [0] * (len(self._fanins) - len(cached))
        return list(cached)

    def depth(self) -> int:
        """Depth of the network: the paper's *delay* proxy.

        O(#POs) once the pending level falls are settled.
        """
        if not self._pos:
            return 0
        if self._level_falls:
            self._settle_levels()
        level = self._level
        return max(level[po >> 1] for po in self._pos)

    def critical_nodes(self) -> List[int]:
        """Gate nodes lying on at least one maximum-depth path."""
        level = self.levels()
        depth = self.depth()
        if depth == 0:
            return []
        required: Dict[int, int] = {}
        for po in self._pos:
            n = node_of(po)
            if level[n] == depth:
                required[n] = depth
        result: List[int] = []
        order = self._topology()
        for node in reversed(order):
            if node not in required:
                continue
            result.append(node)
            req = required[node]
            for f in self._fanins[node]:
                fn = node_of(f)
                if self._fanins[fn] is not None and level[fn] == req - 1:
                    prev = required.get(fn, -1)
                    required[fn] = max(prev, req - 1)
        return result

    def _invalidate_topology(self) -> None:
        self._order_cache = None
        self._levels_cache = None

    def _rebuild_topology(self) -> None:
        """Recompute the PO-reachable topological order and level snapshot.

        Levels are copied from the incrementally-maintained ``_level``
        array (settled first) rather than recomputed, so the rebuild is a
        single DFS.
        """
        if self._level_falls:
            self._settle_levels()
        fanins = self._fanins
        order: List[int] = []
        visited = bytearray(len(fanins))
        for node in self._pis:
            visited[node] = True
        visited[CONST_NODE] = True

        # Iterative post-order DFS; a node is pushed as ``~node`` to mark
        # the "emit after children" visit, avoiding per-step tuples.
        append = order.append
        for po in self._pos:
            root = po >> 1
            if visited[root]:
                continue
            stack = [root]
            while stack:
                node = stack.pop()
                if node < 0:
                    append(~node)
                    continue
                if visited[node]:
                    continue
                visited[node] = True
                stack.append(~node)
                for f in fanins[node]:
                    fn = f >> 1
                    if not visited[fn] and fanins[fn] is not None:
                        stack.append(fn)

        level = self._level
        snapshot = [0] * len(fanins)
        for node in order:
            snapshot[node] = level[node]
        self._order_cache = order
        self._levels_cache = snapshot

    def level_snapshot(self) -> List[int]:
        """A copy of the exact per-node level array, indexed by node id.

        Settles the pending level falls and copies ``_level``: O(n), no
        DFS.  Unlike :meth:`levels`, dangling live nodes report their own
        level, and dead slots hold the stale level the node died with.
        """
        if self._level_falls:
            self._settle_levels()
        return list(self._level)

    def _update_level(self, seed: int) -> None:
        """Restore the level invariant after the fanins of ``seed`` changed.

        Recomputes ``seed`` from its fanins.  A rise is pushed through the
        fanout cone at once: every parent labelled below one plus its
        raised fanin is lifted to exactly that value, which keeps the
        labelling strictly topological and every lifted parent tight.  A
        fall only marks ``seed`` pending in ``_level_falls`` and keeps its
        (now upper-bound) label; :meth:`_settle_levels` applies it when a
        reader needs exact levels.  Rises and falls nearly cancel between
        two reads in the optimizers, so deferring the falls skips most of
        the repair work.
        """
        level = self._level
        top = 0
        for f in self._fanins[seed]:
            fl = level[f >> 1]
            if fl > top:
                top = fl
        top += 1
        current = level[seed]
        if top < current:
            self._level_falls.add(seed)
            return
        if top == current:
            return
        level[seed] = top
        fanouts = self._fanouts
        stack = [seed]
        while stack:
            node = stack.pop()
            lifted = level[node] + 1
            for parent in fanouts[node] or ():
                if level[parent] < lifted:
                    level[parent] = lifted
                    stack.append(parent)

    def _settle_levels(self) -> None:
        """Apply the pending level falls; afterwards ``_level`` is exact.

        Recomputes every live pending node from its fanins.  When a node
        falls from ``was``, only the fanouts labelled exactly ``was + 1``
        can have lost their longest path through it (a tight fanout
        labelled higher owes its level to another fanin), so only those
        are queued in turn.  The queue is ordered by label: a fanout is
        always queued above the node that queued it, so every node is
        recomputed once, after all of its fanins reached their final level.
        """
        falls = self._level_falls
        level = self._level
        fanins = self._fanins
        fanouts = self._fanouts
        dead = self._dead
        heap = [(level[node], node) for node in falls]
        heapify(heap)
        queued = falls  # the seeds, plus every fanout queued below
        while heap:
            was, node = heappop(heap)
            if dead[node]:
                continue  # a pending node removed since its fall
            top = 0
            for f in fanins[node]:
                fl = level[f >> 1]
                if fl > top:
                    top = fl
            top += 1
            if top < was:
                level[node] = top
                was += 1
                for parent in fanouts[node] or ():
                    if level[parent] == was and parent not in queued:
                        queued.add(parent)
                        heappush(heap, (was, parent))
        falls.clear()

    # ------------------------------------------------------------------ #
    # Simulation
    # ------------------------------------------------------------------ #
    def simulate_patterns(self, pi_patterns: Sequence[int], num_bits: int) -> List[int]:
        """Bit-parallel simulation.

        ``pi_patterns[i]`` is an integer whose ``num_bits`` low bits are the
        stimulus of the ``i``-th primary input.  Returns one pattern per
        primary output.

        Runs the serial-cached :class:`repro.codegen.SimKernel` of the
        current state (:meth:`sim_kernel`), which evaluates each gate
        through the shared evaluator of its function.  The differential
        tests of ``tests/codegen`` pin it bit-identical to
        :meth:`simulate_patterns_interpreted`.
        """
        return self.sim_kernel().simulate(pi_patterns, num_bits)

    def sim_kernel(self):
        """The :class:`repro.codegen.SimKernel` of this network's state.

        Built from :func:`repro.codegen.network_ir` and cached until the
        next mutation bumps ``_mutation_serial``.
        """
        serial = self._mutation_serial
        kernel = self.__dict__.get("_codegen_kernel")
        if kernel is None or self.__dict__.get("_codegen_kernel_serial") != serial:
            from ..codegen.simgen import compile_network_kernel

            kernel = compile_network_kernel(self)
            self.__dict__["_codegen_kernel"] = kernel
            self.__dict__["_codegen_kernel_serial"] = serial
        return kernel

    def simulate_patterns_interpreted(
        self, pi_patterns: Sequence[int], num_bits: int
    ) -> List[int]:
        """Uncached reference simulation (the differential oracle).

        Walks the topology afresh on every call and runs the subclass's
        static gate loop (:meth:`_simulate_program`); shares no state with
        :meth:`simulate_patterns`.
        """
        if len(pi_patterns) != len(self._pis):
            raise ValueError(
                f"expected {len(self._pis)} PI patterns, got {len(pi_patterns)}"
            )
        mask = (1 << num_bits) - 1
        values = [0] * len(self._fanins)
        for node, pattern in zip(self._pis, pi_patterns):
            values[node] = pattern & mask
        fanins = self._fanins
        self._simulate_program(
            [(node, *fanins[node]) for node in self._topology()], values, mask
        )
        return [self._edge_value(values, po, mask) for po in self._pos]

    def _simulate_program(
        self, program: List[Tuple[int, ...]], values: List[int], mask: int
    ) -> None:
        """Evaluate ``(node, *fanins)`` tuples, in order, into ``values``.

        Subclasses override with one static loop that unpacks their fixed
        fanin count, which saves the per-gate edge-value list of
        :meth:`_eval_gate`.
        """
        eval_gate = self._eval_gate
        for node, *fanins in program:
            values[node] = eval_gate(values, fanins, mask)

    def simulate(self, assignment: Sequence[bool]) -> List[bool]:
        """Simulate a single input assignment; returns PO boolean values."""
        patterns = [1 if bit else 0 for bit in assignment]
        outputs = self.simulate_patterns(patterns, 1)
        return [bool(o & 1) for o in outputs]

    def truth_tables(self) -> List[int]:
        """Exhaustive truth tables of all POs (requires ≤ 20 inputs)."""
        n = len(self._pis)
        if n > 20:
            raise ValueError("exhaustive simulation limited to 20 inputs")
        num_bits = 1 << n
        patterns = []
        for i in range(n):
            block = (1 << (1 << i)) - 1
            pattern = 0
            period = 1 << (i + 1)
            for start in range(1 << i, num_bits, period):
                pattern |= block << start
            patterns.append(pattern)
        return self.simulate_patterns(patterns, num_bits)

    def gate_truth_table(self, node: int) -> int:
        """Local truth table of a gate over its fanin *edge* values.

        Bit ``m`` of the result is the gate output when fanin edge ``i``
        (complementation already applied) carries bit ``(m >> i) & 1``.
        Works for any subclass by driving :meth:`_gate_value` with
        projection patterns — the CNF encoder of :mod:`repro.verify.cnf`
        uses this to Tseitin-encode MIGs and AIGs uniformly.
        """
        k = len(self.fanins(node))
        num_bits = 1 << k
        projections = []
        for i in range(k):
            projection = 0
            period = 1 << (i + 1)
            block = (1 << (1 << i)) - 1
            for start in range(1 << i, num_bits, period):
                projection |= block << start
            projections.append(projection)
        return self._gate_value(projections)

    def _eval_gate(self, values: Sequence[int], fanins: Tuple[int, ...], mask: int) -> int:
        """Bit-parallel evaluation of one gate from its fanins' node values."""
        return self._gate_value([self._edge_value(values, f, mask) for f in fanins])

    @staticmethod
    def _edge_value(values: List[int], signal: int, mask: int) -> int:
        v = values[node_of(signal)]
        return (~v) & mask if is_complemented(signal) else v

    # ------------------------------------------------------------------ #
    # In-place manipulation (the engine behind rewrite-rule application)
    # ------------------------------------------------------------------ #
    def substitute(self, old_node: int, new_signal: int) -> bool:
        """Replace every reference to ``old_node`` with ``new_signal``.

        Cascading effects (structural-hash hits and gate simplifications in
        the fanout nodes) are propagated automatically.  Returns ``False``
        (and does nothing) if the substitution would create a cycle, i.e.
        if ``old_node`` lies in the transitive fanin of ``new_signal``.
        Raises ``ValueError`` when ``old_node`` is the constant node and
        ``new_signal`` is not a constant.
        """
        if old_node == CONST_NODE:
            if new_signal in (CONST_FALSE, CONST_TRUE):
                return True
            # The constant's fanouts are not stored (module docstring).
            raise ValueError("the constant node cannot be substituted")
        if node_of(new_signal) == old_node:
            return True
        if self._in_tfi(old_node, node_of(new_signal)):
            return False
        self._invalidate_topology()

        # Replacement signals sitting in the queue are reference-protected so
        # that unrelated cascade steps cannot reclaim them before their turn.
        queue: deque = deque()

        def enqueue(old: int, new: int) -> None:
            self._ref[node_of(new)] += 1
            queue.append((old, new))

        enqueue(old_node, new_signal)
        while queue:
            old, new = queue.popleft()
            new_node = node_of(new)
            if not self._dead[old] and new_node != old:
                # Redirect primary outputs.
                if old in self._po_refs:
                    moved = 0
                    for index, po in enumerate(self._pos):
                        if po >> 1 == old:
                            replacement = new ^ (po & 1)
                            self._pos[index] = replacement
                            self._ref[replacement >> 1] += 1
                            self._ref[old] -= 1
                            moved += 1
                    if moved:
                        del self._po_refs[old]
                        self._po_refs[new_node] = self._po_refs.get(new_node, 0) + moved
                        self._mutation_serial += 1
                # Redirect fanouts.  Each in-place retarget drops its parent
                # from the live list, hence the snapshot.  No parent dies
                # during the walk: a retarget releases only ``old``, whose
                # cascade runs down its fanin cone, never up to a parent.
                for parent in list(self._fanouts[old] or ()):
                    collapse = self._replace_in_node(parent, old, new)
                    if collapse is not None and node_of(collapse) != old:
                        enqueue(parent, collapse)
            # Release the protection reference of this queue entry.
            self._deref(new_node)
            # Remove the now-unreferenced node.
            if not self._dead[old] and self._ref[old] == 0 and self.is_gate(old):
                self._take_out(old)
        return True

    def _replace_in_node(self, parent: int, old: int, new: int) -> Optional[int]:
        """Rewrite the fanins of ``parent`` replacing node ``old`` by ``new``.

        Returns a signal when ``parent`` itself collapses (its rewritten
        fanin tuple simplifies or hits the structural hash table), in which
        case the caller must substitute ``parent`` by the returned signal.
        Returns ``None`` when ``parent`` was updated in place.
        """
        old_fanins = self._fanins[parent]
        new_fanins = tuple(
            (new ^ (f & 1)) if f >> 1 == old else f for f in old_fanins
        )
        if new_fanins == old_fanins:
            return None

        simplified = self._gate_simplify(new_fanins)
        if simplified is not None:
            return simplified

        strash = self._strash
        dead = self._dead
        key = None
        for cand_key, out_compl in self._strash_candidates(new_fanins):
            if key is None:
                key = cand_key
            existing = strash.get(cand_key)
            if existing is not None and existing != parent and not dead[existing]:
                return make_signal(existing, out_compl)

        # In-place update of the parent node.
        old_key = self._gate_key(old_fanins)
        if strash.get(old_key) == parent:
            del strash[old_key]
        strash[key] = parent
        self._retarget_fanins(parent, old_fanins, key)
        return None

    def _retarget_fanins(
        self, parent: int, old_fanins: Tuple[int, ...], new_fanins: Tuple[int, ...]
    ) -> None:
        """Swap the fanin tuple of ``parent`` keeping ref counts consistent.

        New references are added *before* old ones are released so that a
        node shared between the two tuples (directly or through a dying
        fanin's cone) can never be reclaimed transiently.  ``parent`` is
        already listed among the fanouts of every kept fanin, so only the
        fanins it gains list it and only the fanins it loses drop it.
        """
        ref = self._ref
        old_nodes = [f >> 1 for f in old_fanins]
        new_nodes = [f >> 1 for f in new_fanins]
        for fn in new_nodes:
            ref[fn] += 1
            if fn not in old_nodes:
                self._fanout_add(fn, parent)
        self._fanins[parent] = new_fanins
        for fn in old_nodes:
            ref[fn] -= 1
            if fn not in new_nodes:
                self._fanout_discard(fn, parent)
            if ref[fn] == 0 and self.is_gate(fn) and not self._dead[fn]:
                self._take_out(fn)
        self._mutation_serial += 1
        if self._mutation_listeners:
            for listener in self._mutation_listeners:
                listener.network_retargeted(parent)
        self._update_level(parent)

    def replace_fanins(self, node: int, fanins: Tuple[int, ...]) -> Optional[int]:
        """Low-level helper used by rewrite rules to retarget a node's fanins.

        The fanins are simplified/strashed like in the subclass builder; if
        the new tuple collapses onto an existing signal, that signal is
        returned and the node is substituted by it; otherwise ``None`` is
        returned.
        """
        for s in fanins:
            self._validate_signal(s)
        old_fanins = self._fanins[node]
        if old_fanins is None:
            raise ValueError(f"node {node} is not a {self.GATE_KIND} node")
        if sort_signals(fanins) == sort_signals(old_fanins):
            return None
        for s in fanins:
            if self._in_tfi(node, node_of(s)):
                raise ValueError("replace_fanins would create a combinational cycle")

        simplified = self._gate_simplify(tuple(fanins))
        if simplified is not None:
            self.substitute(node, simplified)
            return simplified

        key = None
        for cand_key, out_compl in self._strash_candidates(tuple(fanins)):
            if key is None:
                key = cand_key
            existing = self._strash.get(cand_key)
            if existing is not None and existing != node and not self._dead[existing]:
                replacement = make_signal(existing, out_compl)
                self.substitute(node, replacement)
                return replacement

        self._invalidate_topology()
        old_key = self._gate_key(old_fanins)
        if self._strash.get(old_key) == node:
            del self._strash[old_key]
        self._strash[key] = node
        self._retarget_fanins(node, old_fanins, key)
        return None

    def cleanup(self) -> int:
        """Remove dangling nodes (no fanout, not driving a PO). Returns count.

        Dangling nodes are by definition unreachable from the primary
        outputs, so reclaiming them leaves the cached topological order and
        level snapshot valid.  A single scan reaches the fixpoint: removing
        a root cascades through its cone via :meth:`_take_out`, so a node's
        reference count can only drop to zero while one of its (transitive)
        fanouts is being taken out — never behind the scan.

        The fanout lists are repaired once, after the scan: the take-outs
        only record the fanins they release, and each recorded list is then
        filtered of its dead parents in one pass (same survivors, same
        order).  Removing the parents one by one would cost a list scan per
        removal, quadratic on the high-fanout primary inputs of a wide
        network.
        """
        removed = 0
        fanins = self._fanins
        dead = self._dead
        ref = self._ref
        released: set = set()
        for node in range(1, len(fanins)):
            if fanins[node] is not None and not dead[node] and ref[node] == 0:
                self._take_out(node, released)
                removed += 1
        fanouts = self._fanouts
        for fn in released:
            listed = fanouts[fn]
            if listed is not None:  # None: the constant, or taken out itself
                fanouts[fn] = [parent for parent in listed if not dead[parent]] or None
        return removed

    # ------------------------------------------------------------------ #
    # Copy / rebuild
    # ------------------------------------------------------------------ #
    def copy(self) -> "LogicNetwork":
        """Return a compact, strashed copy containing only live logic."""
        other = self.__class__()
        other.name = self.name
        mapping: Dict[int, int] = {CONST_NODE: CONST_FALSE}
        for node, name in zip(self._pis, self._pi_names):
            mapping[node] = other.add_pi(name)
        for node in self._topology():
            mapped = tuple(
                negate_if(mapping[node_of(f)], is_complemented(f))
                for f in self._fanins[node]
            )
            mapping[node] = other._build_gate(mapped)
        for po, name in zip(self._pos, self._po_names):
            other.add_po(negate_if(mapping[node_of(po)], is_complemented(po)), name)
        return other

    def assign_from(self, other: "LogicNetwork") -> None:
        """Replace the contents of this network with a copy of ``other``.

        Used by the optimizers to roll back to the best intermediate result
        when a speculative reshape cycle did not pay off.

        Mutation listeners registered on *this* network stay registered
        (the clone has none) and receive a ``network_reset`` notification:
        every node id they may have cached refers to the old contents.
        """
        clone = other.copy()
        self._fanins = clone._fanins
        self._dead = clone._dead
        self._ref = clone._ref
        self._fanouts = clone._fanouts
        self._pis = clone._pis
        self._pi_names = clone._pi_names
        self._pos = clone._pos
        self._po_names = clone._po_names
        self._strash = clone._strash
        self._num_gates = clone._num_gates
        self.name = clone.name
        self._level = clone._level
        self._level_falls = clone._level_falls
        self._order_cache = clone._order_cache
        self._levels_cache = clone._levels_cache
        self._po_refs = clone._po_refs
        self._mutation_serial += 1
        if self._mutation_listeners:
            for listener in self._mutation_listeners:
                listener.network_reset()

    # ------------------------------------------------------------------ #
    # Pickling (process-parallel execution ships networks across workers)
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> Dict[str, object]:
        """Pickle the structural state only, never process-local caches.

        Mutation listeners (incremental cut managers), the per-network
        cut-manager registry and the simulation kernel are derived,
        process-local state: the first two hold subscriptions meaningless
        in another process, the last holds generated functions.  All are
        rebuilt on demand after unpickling.  The
        structural state itself — node storage, strash, levels, ids —
        crosses the boundary verbatim, which is what makes a worker's
        result bit-identical to an in-process run.  Pending level falls
        are settled first, so the pickle holds exact levels.
        """
        if self._level_falls:
            self._settle_levels()
        state = self.__dict__.copy()
        state["_mutation_listeners"] = []
        state.pop("_cut_managers", None)
        # Simulation artifacts (repro.codegen): kernels hold generated
        # functions, and everything here is rebuilt from the structure.
        for key in _CODEGEN_STATE_KEYS:
            state.pop(key, None)
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._mutation_listeners = []
        for key in _CODEGEN_STATE_KEYS:
            self.__dict__.pop(key, None)

    def check_integrity(self) -> None:
        """Validate internal invariants; raises ``AssertionError`` on corruption.

        Intended for tests and debugging: checks that live nodes only point
        at live nodes, each gate at distinct fanin nodes, that reference
        counts match the actual number of fanin/PO references, that the
        fanout lists are exact (every entry ``None`` or a non-empty,
        duplicate-free list of exactly the live gates referencing the node;
        ``None`` for dead slots and the constant), that the level labels
        satisfy the kernel invariant (strictly topological, every live gate
        tight or pending) and that, once settled, the level of every live
        gate equals one plus the maximum level of its fanins.
        """
        level = self._level
        for node in range(len(self._fanins)):
            if self._dead[node] or self._fanins[node] is None:
                continue
            top = 1 + max(level[node_of(f)] for f in self._fanins[node])
            assert level[node] == top or (
                level[node] > top and node in self._level_falls
            ), f"node {node}: level label {level[node]} breaks the invariant ({top})"
        self._settle_levels()
        expected_refs = [0] * len(self._fanins)
        expected_fanouts: List[List[int]] = [[] for _ in self._fanins]
        for node in range(len(self._fanins)):
            if self._dead[node] or self._fanins[node] is None:
                continue
            fanin_nodes = [node_of(f) for f in self._fanins[node]]
            assert len(set(fanin_nodes)) == len(fanin_nodes), (
                f"gate {node} repeats a fanin node: {fanin_nodes}"
            )
            for fn in fanin_nodes:
                assert not self._dead[fn], (
                    f"live node {node} has dead fanin node {fn}"
                )
                expected_refs[fn] += 1
                if fn != CONST_NODE:
                    expected_fanouts[fn].append(node)
            expected_level = 1 + max(level[fn] for fn in fanin_nodes)
            assert level[node] == expected_level, (
                f"node {node}: cached level {level[node]} != expected "
                f"{expected_level}"
            )
        assert len(self._fanouts) == len(self._fanins), "fanout storage length"
        for node, listed in enumerate(self._fanouts):
            expected = expected_fanouts[node]
            if listed is None:
                assert not expected, f"fanouts of {node} miss parents {expected}"
                continue
            assert type(listed) is list and listed, (
                f"fanouts of {node} stored as {listed!r}, not None or a non-empty list"
            )
            assert len(set(listed)) == len(listed), (
                f"fanouts of {node} repeat a parent: {listed}"
            )
            assert sorted(listed) == expected, (
                f"fanouts of {node} are {sorted(listed)}, live parents {expected}"
            )
        expected_po_refs: Dict[int, int] = {}
        for po in self._pos:
            fn = node_of(po)
            assert not self._dead[fn], f"primary output references dead node {fn}"
            expected_refs[fn] += 1
            expected_po_refs[fn] = expected_po_refs.get(fn, 0) + 1
        assert self._po_refs == expected_po_refs, (
            f"PO reference index {self._po_refs} != expected {expected_po_refs}"
        )
        for node in range(len(self._fanins)):
            if self._dead[node]:
                continue
            assert self._ref[node] == expected_refs[node], (
                f"node {node}: ref count {self._ref[node]} != expected "
                f"{expected_refs[node]}"
            )

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _allocate_node(self, fanins: Optional[Tuple[int, ...]]) -> int:
        node = len(self._fanins)
        self._mutation_serial += 1
        self._fanins.append(fanins)
        self._dead.append(False)
        self._ref.append(0)
        self._fanouts.append(None)
        self._level.append(0)
        return node

    def _validate_signal(self, signal: int) -> None:
        node = node_of(signal)
        if node >= len(self._fanins) or node < 0:
            raise ValueError(f"signal {signal_repr(signal)} references unknown node")
        if self._dead[node]:
            raise ValueError(f"signal {signal_repr(signal)} references a dead node")

    def _deref(self, node: int) -> None:
        self._ref[node] -= 1
        if self._ref[node] == 0 and self.is_gate(node) and not self._dead[node]:
            self._take_out(node)

    def _take_out(self, node: int, released: Optional[set] = None) -> None:
        """Remove a dead gate node and release its fanins, cascading.

        Depth-first with an explicit stack holding the path from ``node``
        to the fanin being released, so deep chains cannot overflow the
        interpreter stack: each fanin whose reference count drops to zero
        is taken out in full before the next fanin is released.  With a
        ``released`` set, the released fanins are added to it instead of
        dropping their dead parent, and the caller repairs their fanout
        lists (:meth:`cleanup`).
        """
        fanins = self._fanins
        dead = self._dead
        if dead[node] or fanins[node] is None:
            return
        ref = self._ref
        fanout_discard = self._fanout_discard
        self._kill(node)
        stack = [(node, iter(fanins[node]))]
        while stack:
            current, pending = stack[-1]
            for f in pending:
                fn = f >> 1
                if released is None:
                    fanout_discard(fn, current)
                else:
                    released.add(fn)
                ref[fn] -= 1
                if ref[fn] == 0 and fanins[fn] is not None and not dead[fn]:
                    self._kill(fn)
                    stack.append((fn, iter(fanins[fn])))
                    break
            else:
                stack.pop()
                self._fanouts[current] = None

    def _fanout_add(self, node: int, parent: int) -> None:
        """List ``parent`` among the fanouts of ``node`` (which does not yet
        list it); the constant's fanouts are not stored."""
        if node:
            listed = self._fanouts[node]
            if listed is None:
                self._fanouts[node] = [parent]
            else:
                listed.append(parent)

    def _fanout_discard(self, node: int, parent: int) -> None:
        """Drop ``parent`` from the fanouts of ``node`` (which lists it).

        An emptied list goes back to ``None``; the constant has no list.
        """
        if node:
            listed = self._fanouts[node]
            if len(listed) == 1:
                self._fanouts[node] = None
            else:
                listed.remove(parent)

    def _kill(self, node: int) -> None:
        """Mark ``node`` dead and drop it from the structural hash table."""
        self._dead[node] = True
        self._num_gates -= 1
        self._mutation_serial += 1
        if self._mutation_listeners:
            for listener in self._mutation_listeners:
                listener.network_node_died(node)
        key = self._gate_key(self._fanins[node])
        if self._strash.get(key) == node:
            del self._strash[key]

    def _in_tfi(self, target: int, start: int) -> bool:
        """Return True when ``target`` is in the transitive fanin of ``start``.

        Pruned by the incremental level array: ``_level`` is a strict
        topological labelling even while level falls are pending, so a node
        can only lie in the transitive fanin of nodes labelled strictly
        higher, and the search never descends below the label of
        ``target``.  The labels need not be exact, so no settling is
        needed and the answer is exact.
        """
        if target == start:
            return True
        if self._fanins[start] is None:
            return False
        level = self._level
        target_level = level[target]
        if target_level >= level[start]:
            return False
        fanins = self._fanins
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            node_fanins = fanins[node]
            if node_fanins is None:
                continue
            for f in node_fanins:
                fn = f >> 1
                if fn == target:
                    return True
                if fn not in seen and level[fn] > target_level:
                    seen.add(fn)
                    stack.append(fn)
        return False
