"""Graph-level application of the Ω / Ψ transformation rules on a MIG.

Each function in this module inspects one majority node of a
:class:`~repro.core.mig.Mig`, checks whether one of the paper's
transformations applies, builds the rewritten cone with
:meth:`~repro.core.mig.Mig.maj` (so structural hashing and the Ω.M
simplifications are re-applied automatically) and redirects the fanouts via
:meth:`~repro.core.mig.Mig.substitute`.

Complemented fanin edges are handled through the Ω.I axiom: an edge
``M'(a, b, c)`` is treated as ``M(a', b', c')`` when a rule needs to look
*through* it, which is exactly the inverter-propagation identity of the
paper.

The functions return ``True`` when a rewrite was performed.  Rewrites that
are attempted but rejected (no benefit) may leave dangling nodes behind;
callers run :meth:`~repro.core.mig.Mig.cleanup` once per optimization pass
to reclaim them, exactly like the "elimination" step of Algorithms 1 and 2.

The passes reach these functions through the named table :data:`RULES`:
push-up, reshape and elimination each apply a list of rule names with a
:class:`RuleSweep` (the first rule that applies to a node wins), and a
:func:`rule_counts` block counts the tries and accepted rewrites.

Each :data:`RULES` entry also carries its specification: a left-hand and
a right-hand side written as :mod:`repro.core.algebra` expressions over
at most five variables, and :data:`KERNEL_AXIOMS` does the same for the axioms
the kernel applies on every node it builds (Ω.M, Ω.I, Ω.C).  The tests
prove every pattern pair sound by exhaustive evaluation, and a
forged-match test builds each ``lhs`` into a MIG, runs the rule's
function on it and checks that the result is the strashed ``rhs``; that
test ties the graph code to its pattern.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .algebra import Expr, inv, maj, replace_variable, var
from .mig import Mig
from .signal import is_complemented, negate, negate_if, node_of

__all__ = [
    "Rule",
    "RULES",
    "KERNEL_AXIOMS",
    "PUSH_UP_RULES",
    "RESHAPE_RULES",
    "ELIMINATE_RULES",
    "RuleSweep",
    "check_rule_names",
    "rule_counts",
    "effective_fanins",
    "cone_nodes",
    "cone_size",
    "rebuild_cone",
    "try_distributivity_rl",
    "try_distributivity_lr",
    "try_associativity",
    "try_associativity_reshape",
    "try_complementary_associativity",
    "try_relevance",
    "try_substitution",
]

#: Bound on the number of gates of a reconvergent cone inspected by Ψ.R
#: (Ψ.S: 24).  Larger values find more rewrites but cost more time.
DEFAULT_CONE_BOUND = 48


# --------------------------------------------------------------------- #
# Structural helpers
# --------------------------------------------------------------------- #
def effective_fanins(mig: Mig, edge: int) -> Optional[Tuple[int, int, int]]:
    """Return the fanins of the majority node behind ``edge``.

    If the edge is complemented the fanins are complemented as well
    (axiom Ω.I), so the returned triple always satisfies
    ``edge ≡ M(returned fanins)``.  Returns ``None`` when the edge does not
    point at a majority gate.

    This is the innermost helper of every rewrite rule, so it reads the
    kernel's fanin store directly instead of going through the accessor
    methods.
    """
    fanins = mig._fanins[edge >> 1]
    if fanins is None:
        return None
    if edge & 1:
        a, b, c = fanins
        return (a ^ 1, b ^ 1, c ^ 1)
    return fanins


def cone_nodes(mig: Mig, root: int, bound: int) -> Optional[List[int]]:
    """Gate nodes in the transitive fanin cone of signal ``root``.

    The result is in topological order (fanins first).  Returns ``None``
    when the cone contains more than ``bound`` gates — as soon as the walk
    has visited that many, since every visited node is a cone gate.
    """
    fanins_store = mig._fanins
    root_node = root >> 1
    if fanins_store[root_node] is None:
        return []
    order: List[int] = []
    visited = set()
    # Post-order DFS; ``~node`` marks the emit-after-children visit.
    stack = [root_node]
    while stack:
        node = stack.pop()
        if node < 0:
            order.append(~node)
            continue
        if node in visited:
            continue
        visited.add(node)
        if len(visited) > bound:
            return None
        stack.append(~node)
        for f in fanins_store[node]:
            fn = f >> 1
            if fanins_store[fn] is not None and fn not in visited:
                stack.append(fn)
    return order


def cone_size(mig: Mig, root: int, bound: int = 10_000) -> int:
    """Number of gates in the cone of ``root`` (up to ``bound``)."""
    nodes = cone_nodes(mig, root, bound)
    return len(nodes) if nodes is not None else bound


def rebuild_cone(
    mig: Mig,
    root: int,
    nodes: List[int],
    replacements: Dict[int, int],
) -> int:
    """Rebuild the cone of ``root`` applying a node→signal replacement map.

    ``nodes`` is the cone as :func:`cone_nodes` returned it; callers
    rebuilding one cone several times walk it once, since a rebuild only
    adds nodes.  ``replacements`` maps a node index to the signal that its
    *regular* output should become.  Every gate of the cone is
    re-expressed through :meth:`Mig.maj`, so simplifications propagate.
    Returns the new signal for ``root``.
    """
    mapping: Dict[int, int] = dict(replacements)

    def mapped(signal: int) -> int:
        node = node_of(signal)
        if node in mapping:
            return negate_if(mapping[node], is_complemented(signal))
        return signal

    for node in nodes:
        if node in mapping:
            continue
        a, b, c = mig.fanins(node)
        mapping[node] = mig.maj(mapped(a), mapped(b), mapped(c))
    return mapped(root)


# --------------------------------------------------------------------- #
# Ω.D — distributivity
# --------------------------------------------------------------------- #
def try_distributivity_rl(mig: Mig, node: int) -> bool:
    """Ω.D right-to-left: ``M(M(x,y,u), M(x,y,v), z) = M(x, y, M(u,v,z))``.

    Removes one node when the two children that share two fanins are not
    referenced elsewhere.  This is the main *elimination* move of
    Algorithm 1.
    """
    if mig.is_dead(node) or not mig.is_maj(node):
        return False
    fanins = mig.fanins(node)
    for i in range(3):
        for j in range(i + 1, 3):
            first, second = fanins[i], fanins[j]
            child_a = effective_fanins(mig, first)
            child_b = effective_fanins(mig, second)
            if child_a is None or child_b is None:
                continue
            shared = _shared_two(child_a, child_b)
            if shared is None:
                continue
            (x, y), u, v = shared
            z = fanins[3 - i - j]
            # Only beneficial when both children can be reclaimed.
            if mig.fanout_size(node_of(first)) > 1 or mig.fanout_size(node_of(second)) > 1:
                continue
            replacement = mig.maj(x, y, mig.maj(u, v, z))
            if mig.substitute(node, replacement):
                return True
    return False


def try_distributivity_lr(mig: Mig, node: int, levels: Sequence[int]) -> bool:
    """Ω.D left-to-right: ``M(x, y, M(u,v,z)) = M(M(x,y,u), M(x,y,v), z)``.

    Pushes the latest-arriving fanin ``z`` of a child one level closer to
    the output (Section IV-B), at the price of up to one duplicated node.
    Applied only when the rewrite strictly reduces the local depth.

    ``levels`` is a per-node level snapshot indexed by node id, taken by
    the caller before a batch of rewrites; nodes created after the
    snapshot (ids past its end) count as deep.
    """
    if mig.is_dead(node) or not mig.is_maj(node):
        return False
    fanins = mig.fanins(node)
    best = None
    num_levels = len(levels)
    for k in range(3):
        child = effective_fanins(mig, fanins[k])
        if child is None:
            continue
        x, y = (fanins[m] for m in range(3) if m != k)
        # Choose the deepest child fanin as the critical variable z
        # (levels of nodes created after the snapshot count as deep).
        child_sorted = sorted(
            child, key=lambda s: levels[s >> 1] if s >> 1 < num_levels else num_levels
        )
        u, v, z = child_sorted[0], child_sorted[1], child_sorted[2]
        lx = levels[x >> 1] if x >> 1 < num_levels else num_levels
        ly = levels[y >> 1] if y >> 1 < num_levels else num_levels
        lu = levels[u >> 1] if u >> 1 < num_levels else num_levels
        lv = levels[v >> 1] if v >> 1 < num_levels else num_levels
        lz = levels[z >> 1] if z >> 1 < num_levels else num_levels
        old_level = 2 + lz
        outer = lx if lx > ly else ly
        if lu > outer:
            inner_u = lu
        else:
            inner_u = outer
        if lv > outer:
            inner_v = lv
        else:
            inner_v = outer
        deepest = inner_u if inner_u > inner_v else inner_v
        new_level = 1 + max(1 + deepest, lz)
        if new_level >= old_level:
            continue
        if best is None or new_level < best[0]:
            best = (new_level, x, y, u, v, z)
    if best is None:
        return False
    _, x, y, u, v, z = best
    replacement = mig.maj(mig.maj(x, y, u), mig.maj(x, y, v), z)
    return mig.substitute(node, replacement)


# --------------------------------------------------------------------- #
# Ω.A — associativity
# --------------------------------------------------------------------- #
#: Per fanin position ``k``: the two splits ``(i, j)`` of the other two
#: positions, in the order the Ω.A and Ψ.C rules try them.
_SPLITS = (((1, 2), (2, 1)), ((0, 2), (2, 0)), ((0, 1), (1, 0)))


def try_associativity(mig: Mig, node: int, levels: Sequence[int]) -> bool:
    """Ω.A: ``M(x, u, M(y, u, z)) = M(z, u, M(y, u, x))``.

    Exchanges the outer operand ``x`` with the inner operand ``z`` when the
    inner one arrives later, reducing the local depth with no size penalty
    (when the child is not shared).  ``levels`` is a level snapshot as in
    :func:`try_distributivity_lr`.
    """
    if mig.is_dead(node) or not mig.is_maj(node):
        return False
    fanins = mig.fanins(node)
    num_levels = len(levels)
    for k in range(3):
        child = effective_fanins(mig, fanins[k])
        if child is None:
            continue
        for i, j in _SPLITS[k]:
            u, x = fanins[i], fanins[j]
            if u not in child:
                continue
            inner_rest = [s for s in child if s != u]
            if len(inner_rest) != 2:
                continue
            y, z = inner_rest
            # Pick the deeper of the two candidates for promotion (levels
            # of nodes created after the snapshot count as deep).
            ly = levels[y >> 1] if y >> 1 < num_levels else num_levels
            lz = levels[z >> 1] if z >> 1 < num_levels else num_levels
            if ly > lz:
                y, z = z, y
                lz = ly
            if lz <= (levels[x >> 1] if x >> 1 < num_levels else num_levels):
                continue
            replacement = mig.maj(z, u, mig.maj(y, u, x))
            if mig.substitute(node, replacement):
                return True
    return False


def try_associativity_reshape(mig: Mig, node: int) -> bool:
    """Ω.A used as a *reshape* move (Section IV-A walkthrough, Fig. 2(a)).

    ``M(x, u, M(y, u, z)) = M(z, u, M(y, u, x))`` applied in the direction
    that moves an outer operand ``x`` *into* the child when ``x`` shares
    support with the child's remaining operands.  This does not change size
    or depth by itself, but it brings reconvergent operands next to each
    other so that Ψ.C / Ψ.R / Ω.M can subsequently simplify them — exactly
    the "increase the number of common inputs" rationale of the paper.
    """
    if mig.is_dead(node) or not mig.is_maj(node):
        return False
    fanins = mig.fanins(node)
    for k in range(3):
        child = effective_fanins(mig, fanins[k])
        if child is None:
            continue
        for i, j in _SPLITS[k]:
            u, x = fanins[i], fanins[j]
            if u not in child:
                continue
            inner_rest = [s for s in child if s != u]
            if len(inner_rest) != 2:
                continue
            x_support = _support_nodes(mig, x)
            if not x_support:
                continue
            for swap_out in inner_rest:
                keep = inner_rest[0] if swap_out == inner_rest[1] else inner_rest[1]
                # Move x inside only if it reconverges with the operand kept
                # inside the child (and the operand moved out does not).
                keep_support = _support_nodes(mig, keep)
                if not (x_support & keep_support):
                    continue
                if node_of(swap_out) in x_support:
                    continue
                replacement = mig.maj(swap_out, u, mig.maj(keep, u, x))
                if mig.substitute(node, replacement):
                    return True
    return False


def _support_nodes(mig: Mig, signal: int, bound: int = 64) -> set:
    """Set of PI / constant-free leaf and internal nodes in the cone of ``signal``."""
    root = node_of(signal)
    if not mig.is_maj(root):
        return {root} if not mig.is_constant(root) else set()
    seen = {root}
    stack = [root]
    while stack and len(seen) < bound:
        current = stack.pop()
        if not mig.is_maj(current):
            continue
        for f in mig.fanins(current):
            fn = node_of(f)
            if fn not in seen and not mig.is_constant(fn):
                seen.add(fn)
                stack.append(fn)
    return seen


def try_complementary_associativity(mig: Mig, node: int) -> bool:
    """Ψ.C: ``M(x, u, M(y, u', z)) = M(x, u, M(y, x, z))``.

    Replaces the complemented reconvergent operand ``u'`` inside the child
    with the other outer operand ``x``.  The rewrite never increases size;
    it reduces depth when ``x`` arrives earlier than ``u`` and, even when it
    does not, it increases operand sharing between adjacent levels, which is
    precisely the reshape rationale of Section IV-A.
    """
    if mig.is_dead(node) or not mig.is_maj(node):
        return False
    fanins = mig.fanins(node)
    for k in range(3):
        child = effective_fanins(mig, fanins[k])
        if child is None:
            continue
        for i, j in _SPLITS[k]:
            u, x = fanins[i], fanins[j]
            nu = negate(u)
            if nu not in child:
                continue
            new_child = tuple(x if s == nu else s for s in child)
            replacement = mig.maj(x, u, mig.maj(*new_child))
            if mig.substitute(node, replacement):
                return True
    return False


# --------------------------------------------------------------------- #
# Ψ.R — relevance
# --------------------------------------------------------------------- #
def try_relevance(mig: Mig, node: int, max_growth: int = 0) -> bool:
    """Ψ.R: ``M(x, y, z) = M(x, y, z_{x/y'})``.

    For each choice of the reconvergent operand ``x``, the cone of ``z`` is
    rebuilt with ``x`` replaced by ``y'``.  The rewrite is committed only
    when the network does not grow by more than ``max_growth`` nodes, which
    keeps relevance useful both for elimination (strictly smaller) and for
    reshaping (``max_growth > 0``).
    """
    if mig.is_dead(node) or not mig.is_maj(node):
        return False
    fanins = mig.fanins(node)
    for z_pos in range(3):
        z = fanins[z_pos]
        if not mig.is_maj(node_of(z)):
            continue
        # A rejected attempt below only adds nodes, so z's cone is the
        # same for both operand orders.
        cone = cone_nodes(mig, z, DEFAULT_CONE_BOUND)
        if cone is None:
            continue
        others = [fanins[m] for m in range(3) if m != z_pos]
        for x, y in (others, list(reversed(others))):
            x_node = node_of(x)
            reconvergent = any(
                node_of(f) == x_node for n in cone for f in mig.fanins(n)
            )
            if not reconvergent:
                continue
            size_before = mig.num_gates
            replacement_target = negate_if(negate(y), is_complemented(x))
            new_z = rebuild_cone(mig, z, cone, {x_node: replacement_target})
            created = mig.num_gates - size_before
            if created > len(cone) + max_growth:
                continue  # too much duplication; dangling nodes are swept later
            replacement = mig.maj(x, y, new_z)
            if mig.substitute(node, replacement):
                return True
    return False


# --------------------------------------------------------------------- #
# Ψ.S — substitution
# --------------------------------------------------------------------- #
def try_substitution(mig: Mig, node: int) -> bool:
    """Ψ.S — replace a reconvergent pair of operands inside the node's cone.

    ``M(x,y,z) = M(v, M(v', M_{v/u}(x,y,z), u), M(v', M_{v/u'}(x,y,z), u'))``

    The rule temporarily inflates the MIG; it is accepted only when, after
    the builder's implicit Ω.M/strashing simplification, the rewritten cone
    is not larger than the original one.  This mirrors the paper's use of
    Ψ.S as a "radical" reshape move (Fig. 2(b)).
    """
    if mig.is_dead(node) or not mig.is_maj(node):
        return False
    root = node * 2
    cone = cone_nodes(mig, root, 24)
    if cone is None or len(cone) < 2:
        return False
    # Candidate (v, u): the two most frequently referenced leaves of the cone.
    leaf_counts: Dict[int, int] = {}
    for n in cone:
        for f in mig.fanins(n):
            fn = node_of(f)
            if not mig.is_maj(fn) and not mig.is_constant(fn):
                leaf_counts[fn] = leaf_counts.get(fn, 0) + 1
    candidates = sorted(leaf_counts, key=leaf_counts.get, reverse=True)
    if len(candidates) < 2:
        return False
    v_node, u_node = candidates[0], candidates[1]
    v = v_node * 2
    u = u_node * 2

    size_before = mig.num_gates
    k_v_u = rebuild_cone(mig, root, cone, {v_node: u})
    k_v_nu = rebuild_cone(mig, root, cone, {v_node: negate(u)})
    replacement = mig.maj(
        v,
        mig.maj(negate(v), k_v_u, u),
        mig.maj(negate(v), k_v_nu, negate(u)),
    )
    old_cone_gates = len(cone)
    new_cone_gates = cone_size(mig, replacement, 96)
    if new_cone_gates > old_cone_gates:
        return False  # dangling nodes reclaimed by the caller's cleanup()
    if not mig.substitute(node, replacement):
        return False
    mig.cleanup()
    return True


# --------------------------------------------------------------------- #
# The rule table
# --------------------------------------------------------------------- #
class Rule(NamedTuple):
    """One Ω/Ψ rewrite: its graph code and its pattern pair.

    ``fn(mig, node)`` returns whether it rewrote ``node``; ``arg`` names
    the :class:`RuleSweep` argument passed as a third argument, if any
    (the ``levels`` snapshot or the Ψ.R node budget ``growth``).  A rule
    with ``period > 1`` is tried only on every ``period``-th node a sweep
    visits.  ``lhs`` is a match of ``fn`` and ``rhs`` the cone ``fn``
    builds for it; both are functions of the same variables, so a pattern
    pair is a proof for every sub-expression substituted for them.
    """

    fn: Callable[..., bool]
    arg: Optional[str]
    period: int
    lhs: Expr
    rhs: Expr


_x, _y, _z, _u, _v, _w = (var(name) for name in "xyzuvw")


def _substituted(cone: Expr, v: Expr, u: Expr) -> Expr:
    """Ψ.S's right-hand side ``M(v, M(v', K_{v/u}, u), M(v', K_{v/u'}, u'))``."""
    return maj(
        v,
        maj(inv(v), replace_variable(cone, v.name, u), u),
        maj(inv(v), replace_variable(cone, v.name, inv(u)), inv(u)),
    )


#: Ψ.R's reconvergent one-gate cone and Ψ.S's smallest accepted cone.
_RELEVANCE_CONE = maj(_x, _v, _w)
_SUBSTITUTION_CONE = maj(maj(_v, _u, _x), maj(_v, inv(_u), _y), maj(_v, _u, _z))

#: Every rule by name, in the paper's notation.  The Ω.A and Ω.D L→R
#: matches need ``z`` to arrive last; Ω.A-reshape moves out the inner
#: operand that does not reconverge with ``x``.
RULES: Dict[str, Rule] = {
    "Ω.A": Rule(
        try_associativity, "levels", 1,
        maj(_x, _u, maj(_y, _u, _z)), maj(_z, _u, maj(_y, _u, _x)),
    ),
    "Ω.A-reshape": Rule(
        try_associativity_reshape, None, 1,
        maj(_x, _u, maj(_y, _u, maj(_x, _v, _w))),
        maj(_y, _u, maj(maj(_x, _v, _w), _u, _x)),
    ),
    "Ψ.C": Rule(
        try_complementary_associativity, None, 1,
        maj(_x, _u, maj(_y, inv(_u), _z)), maj(_x, _u, maj(_y, _x, _z)),
    ),
    "Ψ.R": Rule(
        try_relevance, "growth", 1,
        maj(_x, _y, _RELEVANCE_CONE),
        maj(_x, _y, replace_variable(_RELEVANCE_CONE, "x", inv(_y))),
    ),
    "Ψ.S": Rule(  # the most expensive rule
        try_substitution, None, 16,
        _SUBSTITUTION_CONE, _substituted(_SUBSTITUTION_CONE, _v, _u),
    ),
    "Ω.D L→R": Rule(
        try_distributivity_lr, "levels", 1,
        maj(_x, _y, maj(_u, _v, _z)), maj(maj(_x, _y, _u), maj(_x, _y, _v), _z),
    ),
    "Ω.D R→L": Rule(
        try_distributivity_rl, None, 1,
        maj(maj(_x, _y, _u), maj(_x, _y, _v), _z), maj(_x, _y, maj(_u, _v, _z)),
    ),
}

#: The axioms the kernel applies itself rather than through a sweep, as
#: ``(lhs, rhs)`` pattern pairs: Ω.M in :meth:`Mig.maj` (and before every
#: in-place fanin update, so no stored triple is Ω.M-reducible), Ω.I in
#: its polarity normalization and in :func:`effective_fanins`, Ω.C in its
#: sorted fanin order.
KERNEL_AXIOMS: Dict[str, Tuple[Tuple[Expr, Expr], ...]] = {
    "Ω.M": ((maj(_x, _x, _z), _x), (maj(_x, inv(_x), _z), _z)),
    "Ω.I": ((inv(maj(_x, _y, _z)), maj(inv(_x), inv(_y), inv(_z))),),
    "Ω.C": ((maj(_x, _y, _z), maj(_y, _x, _z)), (maj(_x, _y, _z), maj(_y, _z, _x))),
}

#: The rule lists of the push-up (Algorithm 2), reshape and elimination
#: (Algorithm 1) sweeps, in the order they are tried on each node.
PUSH_UP_RULES = ("Ω.A", "Ψ.C", "Ω.D L→R")
RESHAPE_RULES = ("Ω.A", "Ω.A-reshape", "Ψ.C", "Ψ.R", "Ψ.S")
ELIMINATE_RULES = ("Ω.D R→L",)

RuleCounts = Dict[str, Dict[str, Dict[str, int]]]  # step -> rule -> tried/accepted

#: The counts of the innermost open :func:`rule_counts` block, if any.
_open_counts: ContextVar[Optional[RuleCounts]] = ContextVar("rule_counts", default=None)


@contextmanager
def rule_counts() -> Iterator[RuleCounts]:
    """Count the rule tries of the sweeps run inside the block.

    Yields ``{step: {rule name: {"tried": n, "accepted": m}}}``, where
    ``step`` is a :class:`RuleSweep` step (``"push_up"``, ``"reshape"`` or
    ``"eliminate"``).  Only the innermost open block counts.
    """
    counts: RuleCounts = {}
    token = _open_counts.set(counts)
    try:
        yield counts
    finally:
        _open_counts.reset(token)


def check_rule_names(names: Sequence[str]) -> None:
    """Raise ``ValueError`` on a name missing from :data:`RULES`."""
    unknown = [name for name in names if name not in RULES]
    if unknown:
        raise ValueError(f"unknown rules {unknown}; known: {list(RULES)}")


class RuleSweep:
    """An ordered rule list applied node by node: the first rule that
    rewrites a node wins.

    ``step`` names the sweep in :func:`rule_counts`.  ``levels`` (a list
    that a pass may refresh in place between rewrites) and ``growth`` go to
    the rules whose ``arg`` names them.  Raises ``ValueError`` on a name
    missing from :data:`RULES`.
    """

    def __init__(
        self, step: str, names: Sequence[str], levels: Sequence[int] = (), growth: int = 0
    ) -> None:
        check_rule_names(names)
        counts = _open_counts.get()
        counts = {} if counts is None else counts.setdefault(step, {})
        self.plan = []
        for name in names:
            rule = RULES[name]
            extra = {"levels": levels, "growth": growth}.get(rule.arg)
            count = counts.setdefault(name, {"tried": 0, "accepted": 0})
            self.plan.append((rule.fn, extra, rule.period, count))

    def run(self, mig: Mig, nodes: Sequence[int]) -> Iterator[int]:
        """Try the rules on each live node of ``nodes`` in turn; yield the
        gate-count change of each rewrite.  Rule periods count the live
        nodes this run visits."""
        dead = mig._dead
        visited = 0
        for node in nodes:
            if dead[node]:
                continue
            visited += 1
            before = mig._num_gates
            for fn, extra, period, count in self.plan:
                if visited % period:
                    continue
                count["tried"] += 1
                if fn(mig, node) if extra is None else fn(mig, node, extra):
                    count["accepted"] += 1
                    yield mig._num_gates - before
                    break


def _shared_two(
    first: Tuple[int, int, int], second: Tuple[int, int, int]
) -> Optional[Tuple[Tuple[int, int], int, int]]:
    """Find two signals shared by two fanin triples.

    Returns ``((x, y), u, v)`` where ``x, y`` are shared and ``u`` / ``v``
    are the remaining signals of ``first`` / ``second``, or ``None``.
    """
    pool = list(second)
    shared = []
    for s in first:
        if len(shared) < 2 and s in pool:
            shared.append(s)
            pool.remove(s)
    if len(shared) < 2:
        return None
    rest = list(first)
    rest.remove(shared[0])
    rest.remove(shared[1])
    return (shared[0], shared[1]), rest[0], pool[0]
