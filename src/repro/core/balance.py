"""Associative tree balancing for MIGs.

Repeated application of the associativity axiom Ω.A re-parenthesises any
AND- or OR-tree (majority nodes sharing a constant operand) without
changing its function.  Doing this node by node on the critical path — as
:func:`repro.core.depth_opt.push_up` does — converges slowly on wide
two-level logic, so this module provides the closed form: a rebuild pass
that collects every maximal AND/OR tree and re-builds it as a
depth-balanced tree (earliest-arriving operands merged first).

The pass is part of the MIGhty flow (Section V-A interlaces it with the
majority-specific depth moves); it never changes the represented function.
It can increase the node count: tree collection expands through
multi-fanout nodes, so a subtree shared by several trees is copied into
each of them, and structural hashing during the rebuild merges only the
copies that come out identical (applied to the Table I inputs it grows
C1355 497 → 728, C1908 430 → 521 and C6288 1,872 → 2,138 gates).  The
flow's :class:`~repro.flows.engine.Balance` pass keeps the rebuilt
network only when it improves the lexicographic ``(depth, size)`` order,
so a shallower but larger rebuild is kept.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional

from .mig import Mig
from .signal import (
    CONST_FALSE,
    CONST_NODE,
    CONST_TRUE,
    is_complemented,
    negate_if,
    node_of,
)

__all__ = ["balance_mig", "collect_tree_leaves"]


def _tree_constant(mig: Mig, node: int):
    """Return the constant operand (0 → AND tree, 1 → OR tree) or ``None``."""
    fanins = mig.fanins(node)
    if CONST_FALSE in fanins:
        return CONST_FALSE
    if CONST_TRUE in fanins:
        return CONST_TRUE
    return None


def collect_tree_leaves(mig: Mig, root: int, constant: int, limit: int = 256) -> List[int]:
    """Leaves of the maximal AND/OR tree rooted at node ``root``.

    Expansion follows regular (non-complemented) edges into majority nodes
    that carry the same constant operand.  Duplicate leaves are dropped and
    a complementary pair collapses the tree to the dominating constant.
    """
    leaves: List[int] = []
    seen = set()
    stack = [f for f in mig.fanins(root) if f != constant]
    while stack:
        current = stack.pop()
        node = node_of(current)
        if (
            not is_complemented(current)
            and mig.is_maj(node)
            and _tree_constant(mig, node) == constant
            and len(leaves) + len(stack) < limit
        ):
            stack.extend(f for f in mig.fanins(node) if f != constant)
            continue
        if (current ^ 1) in seen:
            # x together with x': an AND tree collapses to 0, an OR tree to 1,
            # which is exactly the tree's constant operand.
            return [constant]
        if current not in seen:
            seen.add(current)
            leaves.append(current)
    return leaves


def balance_mig(mig: Mig) -> Mig:
    """Return a balanced copy of ``mig`` with the same function.

    Shared subtrees inside AND/OR trees are copied, so the copy may have
    more nodes than ``mig`` (see the module docstring); the caller decides
    whether to keep it.
    """
    result = Mig()
    result.name = mig.name
    mapping: Dict[int, int] = {CONST_NODE: CONST_FALSE}
    for node, name in zip(mig.pi_nodes(), mig.pi_names()):
        mapping[node] = result.add_pi(name)

    levels: Dict[int, int] = {CONST_NODE: 0}
    for node in mig.pi_nodes():
        levels[node_of(mapping[node])] = 0

    def new_level(signal: int) -> int:
        return levels.get(node_of(signal), 0)

    def record_level(signal: int, level: int) -> None:
        node = node_of(signal)
        levels[node] = max(levels.get(node, 0), level)

    memo: Dict[int, int] = {}

    def lookup(signal: int) -> Optional[int]:
        """The mapped ``signal`` when its node needs no building, else None."""
        node = node_of(signal)
        if node not in memo:
            if mig.is_maj(node):
                return None
            memo[node] = mapping[node]
        return negate_if(memo[node], is_complemented(signal))

    def combine(constant: Optional[int], built: List[int]) -> int:
        """The new node over ``built``, the mapped operands of one frame."""
        if constant is None:
            a, b, c = built
            mapped = result.maj(a, b, c)
            record_level(mapped, 1 + max(new_level(a), new_level(b), new_level(c)))
            return mapped
        # Huffman-style balanced combination by arrival level.
        heap = [(new_level(s), index, s) for index, s in enumerate(built)]
        heapq.heapify(heap)
        counter = len(built)
        while len(heap) > 1:
            la, _, sa = heapq.heappop(heap)
            lb, _, sb = heapq.heappop(heap)
            merged = result.maj(sa, sb, constant)
            record_level(merged, max(la, lb) + 1)
            heapq.heappush(heap, (new_level(merged), counter, merged))
            counter += 1
        return heap[0][2]

    def frame(node: int):
        """Build frame of a majority node: its fanins or its tree leaves."""
        constant = _tree_constant(mig, node)
        if constant is None:
            operands = mig.fanins(node)
        else:
            operands = collect_tree_leaves(mig, node, constant)
        return node, constant, operands, []

    def build(signal: int) -> int:
        """Map ``signal`` into ``result``, building its cone depth-first.

        An explicit stack of frames ``(node, constant, operands, built)``
        replaces recursion (deep networks would overflow the interpreter
        stack); operands are built left to right, each completely before
        the next, so nodes are created in the order a recursive build
        would create them.
        """
        mapped = lookup(signal)
        if mapped is not None:
            return mapped
        stack = [frame(node_of(signal))]
        while stack:
            node, constant, operands, built = stack[-1]
            if len(built) < len(operands):
                operand = operands[len(built)]
                mapped = lookup(operand)
                if mapped is None:
                    stack.append(frame(node_of(operand)))
                else:
                    built.append(mapped)
                continue
            stack.pop()
            memo[node] = combine(constant, built)
        return lookup(signal)

    for po, name in zip(mig.po_signals(), mig.po_names()):
        result.add_po(build(po), name)
    return result
