"""DAG-aware Boolean cut rewriting over any :class:`LogicNetwork`.

The engine behind ABC-style ``rewrite``: enumerate k-feasible cuts
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

MIG passes additionally bound the *level* of the replacement
(``max_level_growth=0`` guarantees the network depth never increases,
since a node's level can only influence its fanouts monotonically).
With ``max_level_growth < 0`` the sweep runs in **depth mode**: every
entry of the class's top-k list (the (size, depth) Pareto front from
:func:`~repro.network.npn.get_structures`) is costed and the shallowest
admissible replacement wins, with ``max_size_growth`` bounding how many
extra nodes a depth-improving move may spend; area sweeps keep using the
size-best entry only.

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

from functools import lru_cache
from typing import Dict, Optional, Tuple

from ..core.signal import CONST_FALSE, make_signal
from .cuts import CutManager, enumerate_cuts, mffc_nodes
from .npn import (
    extend_table,
    get_structures,
    invert_transform,
    npn_canonical,
    replay_structure,
    structure_db_generation,
)

__all__ = ["cut_rewrite"]


def cut_rewrite(
    net,
    kind: str,
    k: int = 4,
    cut_limit: int = 8,
    allow_zero_gain: bool = False,
    max_level_growth: Optional[int] = None,
    max_size_growth: int = 0,
    incremental: bool = True,
) -> Dict[str, int]:
    """Run one cut-rewriting sweep over ``net`` in place.

    ``kind`` selects the structure database ("mig" or "aig") and must match
    the network's gate semantics.  Returns a stats dictionary with the
    number of rewrites applied, the total size gain realised and the cut
    engine's reuse counters.  ``incremental=False`` forces a from-scratch
    enumeration (the benchmark baseline).

    ``max_level_growth < 0`` switches the sweep into depth mode: the
    candidate ordering prefers the largest level drop (size gain breaks
    ties), every entry of the class's top-k list is considered, and
    ``max_size_growth`` extra nodes may be spent per move.  In area mode
    (``max_level_growth`` ``None`` or ``>= 0``) ``max_size_growth`` is
    ignored and only the size-best entry of each class is used.
    """
    manager = CutManager.for_network(net, k=k, cut_limit=cut_limit) if incremental else None
    depth_mode = max_level_growth is not None and max_level_growth < 0
    convergence_key = (
        "cut_rewrite",
        kind,
        k,
        cut_limit,
        allow_zero_gain,
        max_level_growth,
        max_size_growth if depth_mode else 0,
    )
    if manager is not None:
        # The convergence token pairs the network's mutation serial with
        # the structure database's generation: a no-op sweep only stays a
        # no-op while *both* the network and the database it was decided
        # against are unchanged.  (A DB swap — reset, re-derivation, top-k
        # registration — may create rewrites where there were none.)
        if manager.notes.get(convergence_key) == (
            manager.generation,
            structure_db_generation(),
        ):
            # The exact same sweep ran at this mutation serial against the
            # same database and applied nothing; both are untouched since,
            # so this sweep is the same no-op.
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
        cuts = enumerate_cuts(net, k=k, cut_limit=cut_limit)
        cut_nodes_recomputed = len(net._topology())
        cut_nodes_reused = 0
    order = list(net._topology())
    dead = net._dead
    level = net._level
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
        for cut in cuts.get(root, ()):
            leaves = cut.leaves
            if len(leaves) == 1 and leaves[0] == root:
                continue  # the trivial cut rewrites nothing
            dead_leaf = False
            for leaf in leaves:
                if dead[leaf]:
                    dead_leaf = True
                    break
            if dead_leaf:
                continue
            canonical, transform = npn_canonical(extend_table(cut.table, len(leaves)))
            entries = get_structures(kind, canonical)
            if not depth_mode:
                # Area sweeps only ever want the size-best structure.
                entries = entries[:1]
            inputs = _structure_inputs(leaves, transform)
            mffc = mffc_nodes(net, root, leaves)
            if depth_mode:
                limit = len(mffc) + max_size_growth
            else:
                limit = len(mffc) if allow_zero_gain else len(mffc) - 1
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
        # len(mffc) (len(mffc) - 1 without zero-gain) in area mode, so
        # gain >= 0 (>= 1) there; len(mffc) + max_size_growth in depth
        # mode, where the level filter already guarantees a depth win.
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
        # next identical sweep outright.  The database generation is
        # sampled *after* the sweep: lazy derivations during the sweep are
        # part of the database this no-op was decided against.
        manager.notes[convergence_key] = (
            manager.generation,
            structure_db_generation(),
        )
    return {
        "rewrites": applied,
        "zero_gain": zero_gain_applied,
        "aliased": aliased,
        "gain": gain_total,
        "cut_nodes_recomputed": cut_nodes_recomputed,
        "cut_nodes_reused": cut_nodes_reused,
        "converged_skip": 0,
    }


@lru_cache(maxsize=1 << 15)
def _structure_inputs(leaves: Tuple[int, ...], transform) -> Tuple[int, int, int, int, int]:
    """Wire the cut leaves onto the database structure's four inputs.

    The recorded transform maps the cut function onto its canonical
    representative; its inverse ``(perm, neg, out)`` says how to express
    the cut function *from* the canonical structure:
    input ``perm[j]`` of the structure receives leaf ``j`` (complemented
    when ``neg`` has bit ``j``), and the structure's output is complemented
    when ``out`` is set — which :func:`_dry_run` and the replay both apply
    through the output literal of the entry, so it is folded here into the
    last element of the returned tuple.  Pure in both arguments, and cuts
    recur identically across sweeps, hence the LRU.
    """
    inverse = invert_transform(transform)
    inputs = [CONST_FALSE] * 4
    for j in range(4):
        source = make_signal(leaves[j]) if j < len(leaves) else CONST_FALSE
        inputs[inverse.perm[j]] = source ^ ((inverse.input_neg >> j) & 1)
    # Output polarity of the canonical-to-cut mapping.
    inputs.append(1 if inverse.output_neg else 0)
    return tuple(inputs)


def _probe_plan_cache(net) -> Dict[Tuple[int, ...], tuple]:
    """Per-network memo of the builder-mirroring probe plan of a fanin tuple.

    ``_gate_simplify``, ``_normalize_gate`` and ``_strash_candidates`` are
    pure functions of the tuple (they read no network state), so the plan
    — ``(simplified_signal, norm_output_compl, candidate_keys)`` — can be
    computed once per distinct tuple instead of once per dry-run op.  The
    tuples recur massively across cuts and across sweeps (including
    placeholder-signal tuples, whose plan is equally structural), which is
    what makes the rewrite evaluation loop cheap on repeated sweeps.
    """
    cache = net.__dict__.get("_dry_probe_cache")
    if cache is None:
        cache = net.__dict__["_dry_probe_cache"] = {}
    return cache


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
    probe_cache = _probe_plan_cache(net)

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
        plan = probe_cache.get(fanins)
        if plan is None:
            simplified = net._gate_simplify(fanins)
            if simplified is not None:
                plan = (simplified, False, ())
            else:
                # Normalize exactly like the builder, so the probe below
                # visits the same keys in the same order and predicts the
                # same node identity.
                norm_fanins, norm_compl = net._normalize_gate(fanins)
                plan = (None, norm_compl, tuple(net._strash_candidates(norm_fanins)))
            if len(probe_cache) >= (1 << 18):
                # Node ids grow monotonically, so old-tuple entries go
                # stale; a wholesale clear keeps the memo effective at a
                # bounded footprint (it rebuilds within one sweep).
                probe_cache.clear()
            probe_cache[fanins] = plan
        simplified, norm_compl, candidates = plan
        if simplified is not None:
            signals.append(simplified)
            continue
        found = None
        for key, out_compl in candidates:
            existing = strash.get(key)
            if existing is not None and not dead[existing]:
                found = (existing, out_compl ^ norm_compl)
                break
            existing = dry.get(key)
            if existing is not None:
                found = (existing, out_compl ^ norm_compl)
                break
        if found is not None:
            node, out_compl = found
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
