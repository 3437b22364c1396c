"""DAG-aware Boolean cut rewriting over any :class:`LogicNetwork`.

The engine behind ABC-style ``rewrite``: enumerate 4-feasible cuts
(:mod:`repro.network.cuts`), NPN-canonicalize each cut function, fetch the
precomputed optimal structure for its class (:mod:`repro.network.npn`) and
replace the cone when doing so shrinks the network.  The gain accounting is
*shared-logic aware*:

* the nodes freed by a replacement are the root's maximum fanout-free cone
  with respect to the cut (exactly what the substitution cascade reclaims);
* the nodes added are counted by a **dry run** of the database structure
  against the live structural-hash table, so subgraphs that already exist
  cost nothing — except when the hit lands inside the cone being freed,
  which is then counted as an addition (it will survive the replacement);
* optionally, zero-gain replacements are applied too: they do not shrink
  the network now, but they canonicalize structure so later nodes strash
  into it (ABC applies the same policy in ``rewrite -z`` spirit).

Because node functions (over the primary inputs) never change — every
in-place update the kernel performs substitutes functionally equal signals
— a cut's truth table stays valid even after earlier rewrites restructure
the cone it was enumerated from; the engine only re-checks that the cut's
leaves are still alive.

The trivial cut ``{root}`` rewrites nothing; the cut store does not hold
it (:func:`~repro.network.cuts.iter_cuts` never yields it), so the sweep
never sees it.

The *fanin cut* of a root is never costed: the cut whose leaves are the
root's fanin nodes at visit time (constant excluded) and whose table is
the root's own gate function over them.  Its NPN class is that of a
single gate, and every structure the database holds for such a class is
that one gate, so the dry run rebuilds the root itself: the kernel's
structural hash holds the root under one of the probed keys (no live
gate is a structural duplicate of another, in either polarity form —
``tests/network/test_fanin_cut.py`` checks this after arbitrary in-place
edits).  In area mode the root lies in its own MFFC, so reusing it
exceeds the addition budget (``len(mffc) - 1 = 0``); in zero-gain and
depth mode it resolves to the root, which is never a candidate.  Either
way the cut yields nothing, so skipping it — and its NPN lookup, MFFC
walk and dry run — changes no decision.  The table is compared as well
as the leaves because a stale cut enumerated before an in-sweep
substitution can share the leaves yet differ from the gate function on
leaf combinations the network cannot produce.

MIG passes additionally bound the *level* of the replacement
(``max_level_growth=0`` guarantees the network depth never increases,
since a node's level can only influence its fanouts monotonically).
With ``max_level_growth < 0`` the sweep runs in **depth mode**: it visits
only the roots on a critical path, from a :meth:`critical_nodes` snapshot
taken at sweep start (a move off the critical path buys no depth, so it
must spend no nodes); every entry of the class's top-k list (the (size,
depth) Pareto front from :func:`~repro.network.npn.get_structures`) is
costed and the shallowest replacement that adds no more nodes than the
cone frees wins.  A cut whose table depends on two or more leaves, one
of them at the level bound or deeper, is skipped before its NPN lookup,
MFFC walk and dry runs: every structure over it lies above that leaf, so
none could pass the level filter (``tests/network/test_depth_bound.py``
costs the skipped cuts anyway and checks this).  Area sweeps visit every
node and use the size-best entry only.

Cut enumeration goes through the network's shared
:class:`~repro.network.cuts.CutManager` by default, so interleaved sweeps
(multi-round ``rewrite``/``refactor`` scripts, ``mig_rewrite`` inside the
MIGhty rounds) re-enumerate only the cones touched since the previous
sweep instead of the whole network.  Two observations make this exact:

* the cuts a manager sweep yields are identical to a from-scratch
  enumeration of the current network (the manager's core invariant), so
  the rewrite decisions — and therefore the resulting network — are
  bit-identical to the non-incremental path;
* when a sweep applied no rewrite, the pass records the network's
  mutation serial; a follow-up sweep with the same parameters on an
  untouched network is provably the same no-op and returns immediately
  (``converged_skip`` in the stats), which is what makes
  run-until-no-improvement loops cheap past their fixpoint.

Per-sweep cut-reuse counters (``cut_nodes_recomputed`` /
``cut_nodes_reused``) are folded into the returned stats, and from there
into the flow engine's per-pass metrics.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..core.signal import CONST_FALSE, CONST_NODE
from .cuts import _TABLE_MASKS, CutManager, enumerate_cuts, iter_cuts, mffc_nodes
from .npn import (
    extend_table,
    get_structures,
    invert_transform,
    npn_canonical,
    replay_structure,
)

__all__ = ["cut_rewrite"]

#: Cut size of every sweep: the structure database covers exactly the
#: NPN classes of 4-input functions.
_CUT_SIZE = 4


def cut_rewrite(
    net,
    kind: str,
    cut_limit: int = 8,
    allow_zero_gain: bool = False,
    max_level_growth: Optional[int] = None,
    incremental: bool = True,
) -> Dict[str, int]:
    """Run one cut-rewriting sweep over ``net`` in place.

    ``kind`` selects the structure database ("mig" or "aig") and must match
    the network's gate semantics.  Returns a stats dictionary with the
    number of rewrites applied, the total size gain realised and the cut
    engine's reuse counters.  ``incremental=False`` forces a from-scratch
    enumeration (the benchmark baseline).  A sweep that applied nothing
    records the network's mutation serial; the next identical sweep on
    the untouched network returns at once with ``converged_skip`` set.

    ``max_level_growth < 0`` switches the sweep into depth mode: only
    the nodes critical at sweep start are visited, the candidate ordering
    prefers the largest level drop (size gain breaks ties), every entry of
    the class's top-k list is considered, and a move may add at most as
    many nodes as it frees.  In area mode (``max_level_growth`` ``None``
    or ``>= 0``) only the size-best entry of each class is used.
    """
    manager = (
        CutManager.for_network(net, k=_CUT_SIZE, cut_limit=cut_limit) if incremental else None
    )
    depth_mode = max_level_growth is not None and max_level_growth < 0
    convergence_key = ("cut_rewrite", kind, cut_limit, allow_zero_gain, max_level_growth)
    if manager is not None:
        if manager.notes.get(convergence_key) == manager.generation:
            # The exact same sweep ran at this mutation serial and applied
            # nothing; the network is untouched since, so this sweep is
            # the same no-op.
            return {
                "rewrites": 0,
                "zero_gain": 0,
                "aliased": 0,
                "gain": 0,
                "cut_nodes_recomputed": 0,
                "cut_nodes_reused": 0,
                "converged_skip": 1,
            }
        recomputed_before = manager.stats["nodes_recomputed"]
        reused_before = manager.stats["nodes_reused"]
        cuts = manager.cuts()
        cut_nodes_recomputed = manager.stats["nodes_recomputed"] - recomputed_before
        cut_nodes_reused = manager.stats["nodes_reused"] - reused_before
        sweep_start_generation = manager.generation
    else:
        cuts = enumerate_cuts(net, k=_CUT_SIZE, cut_limit=cut_limit)
        cut_nodes_recomputed = len(net._topology())
        cut_nodes_reused = 0
    order = list(net._topology())
    if depth_mode:
        critical = set(net.critical_nodes())
        order = [node for node in order if node in critical]
    dead = net._dead
    level = net._level
    fanins_store = net._fanins
    applied = 0
    gain_total = 0
    zero_gain_applied = 0
    aliased = 0

    for root in order:
        if dead[root]:
            continue
        if net._level_falls:
            # The dry runs and the level filter read exact levels; settle
            # the falls the previous root's replacement left pending.
            net._settle_levels()
        best = None  # (candidate_key, gain, entry, inputs)
        fanin_leaves, fanin_table = _fanin_cut(net, fanins_store[root])
        for leaves, table in iter_cuts(cuts[root]):
            if leaves == fanin_leaves and table == fanin_table:
                continue  # the fanin cut can only rebuild the root itself
            dead_leaf = False
            for leaf in leaves:
                if dead[leaf]:
                    dead_leaf = True
                    break
            if dead_leaf:
                continue
            if depth_mode and _support_too_deep(level, root, leaves, table, max_level_growth):
                continue  # every structure over the cut misses the level bound
            canonical, transform = npn_canonical(extend_table(table, len(leaves)))
            entries = get_structures(kind, canonical)
            if not depth_mode:
                # Area sweeps only ever want the size-best structure.
                entries = entries[:1]
            inputs = _structure_inputs(leaves, transform)
            mffc = mffc_nodes(net, root, leaves)
            limit = len(mffc) if allow_zero_gain or depth_mode else len(mffc) - 1
            for entry in entries:
                dry = _dry_run(net, entry, inputs, mffc, level, limit)
                if dry is None:
                    continue
                added, est_level, output_node = dry
                if output_node == root:
                    continue  # the structure resolves to the node itself
                gain = len(mffc) - added
                if max_level_growth is not None and est_level > level[root] + max_level_growth:
                    continue
                candidate = (-est_level, gain) if depth_mode else (gain, -est_level)
                if best is None or candidate > best[0]:
                    best = (candidate, gain, entry, inputs)
        if best is None:
            continue
        # Every surviving candidate already meets the gain threshold: the
        # dry-run's ``max_new`` bound rejects additions beyond the limit —
        # len(mffc) (len(mffc) - 1 in area mode without zero-gain), so
        # gain >= 0 (>= 1); in depth mode the level filter already
        # guarantees a depth win.
        _, gain, entry, inputs = best
        replacement = replay_structure(net, entry, inputs[:4]) ^ inputs[4]
        if (replacement >> 1) == root:
            continue
        if not net.substitute(root, replacement):
            continue  # replacement reconverges above the root; skip it
        if not dead[root]:
            # A fanout of the root collapsed back onto it during the
            # substitution cascade (the root's function is a structural
            # alias of part of its fanout), so the root — and through it
            # the whole cone the gain assumed freed — stays alive.  The
            # replacement is now a functional duplicate: merge it back
            # onto the root and count nothing for this rewrite.
            duplicate = replacement >> 1
            if (
                duplicate != root
                and not dead[duplicate]
                and net._fanins[duplicate] is not None
            ):
                net.substitute(duplicate, (root << 1) | (replacement & 1))
            aliased += 1
            continue
        applied += 1
        gain_total += gain
        if gain == 0:
            zero_gain_applied += 1

    net.cleanup()
    if (
        manager is not None
        and applied == 0
        and aliased == 0
        and manager.generation == sweep_start_generation
    ):
        # The sweep provably left the network untouched — not even a
        # speculative replacement was allocated (an aborted substitute
        # would consume node ids and desynchronise the id stream from the
        # non-incremental path) — so an untouched network can skip the
        # next identical sweep outright.
        manager.notes[convergence_key] = manager.generation
    return {
        "rewrites": applied,
        "zero_gain": zero_gain_applied,
        "aliased": aliased,
        "gain": gain_total,
        "cut_nodes_recomputed": cut_nodes_recomputed,
        "cut_nodes_reused": cut_nodes_reused,
        "converged_skip": 0,
    }


#: ``_PROJECTIONS[n][i]``: the table of leaf ``i`` over ``n`` leaves.
_PROJECTIONS = ((), (0b10,), (0b1010, 0b1100), (0xAA, 0xCC, 0xF0))

#: ``_LEAF_OFF[n][i]``: the minterms of an ``n``-leaf table where leaf ``i`` is 0.
_LEAF_OFF = tuple(
    tuple(
        sum(1 << m for m in range(1 << n) if not m >> i & 1) for i in range(n)
    )
    for n in range(_CUT_SIZE + 1)
)


def _support_too_deep(level, root, leaves, table, max_level_growth) -> bool:
    """True when no structure over the cut can meet the depth-mode bound.

    A move must reach ``level[root] + max_level_growth`` or lower.  When
    ``table`` depends on two or more leaves, any structure computing it
    is a gate with a path from each of them, so it sits at least one
    level above each; one such leaf at the bound or deeper rules every
    structure out.  A table of one leaf may be that leaf itself, so it
    is never ruled out.
    """
    bound = level[root] + max_level_growth
    support = 0
    deep = False
    for i, off in enumerate(_LEAF_OFF[len(leaves)]):
        if (table ^ table >> (1 << i)) & off:
            support += 1
            if level[leaves[i]] >= bound:
                deep = True
    return deep and support >= 2


def _fanin_cut(net, fanins: Tuple[int, ...]) -> Tuple[Tuple[int, ...], int]:
    """Leaves and truth table of a gate's *fanin cut*.

    The leaves are the gate's fanin nodes (constant excluded) in fanin
    order, which is ascending for every stored fanin tuple; the table is
    the gate's own function over them.
    """
    leaves = tuple([f >> 1 for f in fanins if f >> 1 != CONST_NODE])
    projections = _PROJECTIONS[len(leaves)]
    mask = _TABLE_MASKS[len(leaves)]
    edges = []
    position = 0
    for f in fanins:
        if f >> 1 == CONST_NODE:
            value = 0
        else:
            value = projections[position]
            position += 1
        edges.append(value ^ mask if f & 1 else value)
    return leaves, net._gate_value(edges)


def _structure_inputs(leaves: Tuple[int, ...], transform) -> Tuple[int, int, int, int, int]:
    """Wire the cut leaves onto the database structure's four inputs.

    The recorded transform maps the cut function onto its canonical
    representative; its inverse ``(perm, neg, out)`` says how to express
    the cut function *from* the canonical structure:
    input ``perm[j]`` of the structure receives leaf ``j`` (complemented
    when ``neg`` has bit ``j``), and the structure's output is complemented
    when ``out`` is set — which :func:`_dry_run` and the replay both apply
    through the output literal of the entry, so it is folded here into the
    last element of the returned tuple.  Not memoized: the key holds the
    cut's leaf node ids, so it recurs only when the same cut is costed
    again in a later sweep, and the entries would stay tracked by the
    garbage collector for the life of the process.
    """
    perm, input_neg, output_neg = invert_transform(transform)
    inputs = [CONST_FALSE] * 4
    for j in range(4):
        source = leaves[j] << 1 if j < len(leaves) else CONST_FALSE
        inputs[perm[j]] = source ^ ((input_neg >> j) & 1)
    # Output polarity of the canonical-to-cut mapping.
    inputs.append(1 if output_neg else 0)
    return tuple(inputs)


def _dry_run(net, entry, inputs, mffc, level, max_new):
    """Cost a structure against the live network without building it.

    Mirrors the builder: trivial simplification first, then the structural
    hash (both polarity forms).  New gates get negative placeholder node
    ids; gates that hit the hash table are free unless the hit lies inside
    the cone being freed (``mffc``) — reusing such a node keeps it *and its
    transitive fanins inside the cone* alive, so the whole surviving
    closure is charged (once per node).  Returns ``(added,
    estimated_level, output_node)`` or ``None`` when more than ``max_new``
    additions would be needed.

    Each op's probe plan (simplification, normalized polarity, candidate
    keys) is recomputed rather than memoized per sweep: the fanin tuples
    contain leaf signals, so most recur too rarely to repay a memo whose
    long-lived entries trigger full garbage-collection passes.
    """
    strash = net._strash
    dead = net._dead
    fanins_store = net._fanins
    output_neg = inputs[-1]
    signals = [CONST_FALSE, *inputs[:4]]
    est_level: Dict[int, int] = {}
    dry: Dict[Tuple[int, ...], int] = {}
    counted = set()
    added = 0
    placeholder = -1

    for op in entry.ops:
        if len(op) == 3:
            a, b, c = op
            fanins = (
                signals[a >> 1] ^ (a & 1),
                signals[b >> 1] ^ (b & 1),
                signals[c >> 1] ^ (c & 1),
            )
        elif len(op) == 2:
            a, b = op
            fanins = (signals[a >> 1] ^ (a & 1), signals[b >> 1] ^ (b & 1))
        else:  # pragma: no cover - no current database has another arity
            fanins = tuple(signals[lit >> 1] ^ (lit & 1) for lit in op)
        simplified = net._gate_simplify(fanins)
        if simplified is not None:
            signals.append(simplified)
            continue
        # Normalize exactly like the builder, so the probe below visits the
        # same keys in the same order and predicts the same node identity.
        norm_fanins, norm_compl = net._normalize_gate(fanins)
        candidates = net._strash_candidates(norm_fanins)
        node = None
        for key, key_compl in candidates:
            node = strash.get(key)
            if node is None or dead[node]:
                node = dry.get(key)
            if node is not None:
                out_compl = key_compl ^ norm_compl
                break
        if node is not None:
            if node in mffc and node not in counted:
                # The reused node and every MFFC-internal node in its
                # fanin cone survive the replacement: charge each once.
                survivors = [node]
                while survivors:
                    survivor = survivors.pop()
                    if survivor in counted:
                        continue
                    counted.add(survivor)
                    added += 1
                    if added > max_new:
                        return None
                    for f in fanins_store[survivor]:
                        fn = f >> 1
                        if fn in mffc and fn not in counted:
                            survivors.append(fn)
            signals.append((node << 1) | (1 if out_compl else 0))
            continue
        added += 1
        if added > max_new:
            return None
        top = 0
        for f in fanins:
            fn = f >> 1
            fl = est_level[fn] if fn < 0 else level[fn]
            if fl > top:
                top = fl
        est_level[placeholder] = top + 1
        dry[candidates[0][0]] = placeholder
        signals.append((placeholder << 1) | (1 if norm_compl else 0))
        placeholder -= 1

    output = signals[entry.output >> 1] ^ (entry.output & 1) ^ output_neg
    out_node = output >> 1
    out_level = est_level[out_node] if out_node < 0 else level[out_node]
    return added, out_level, out_node
