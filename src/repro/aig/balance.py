"""AIG balancing (the ``balance`` pass of the ABC-style baseline flow).

Balancing re-associates maximal AND-trees so that late-arriving operands
end up close to the root: the classic delay-oriented AIG optimization.
The pass is rebuild-based — a new AIG is constructed bottom-up, which also
re-applies structural hashing and constant folding along the way.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional

from ..core.signal import (
    CONST_FALSE,
    CONST_NODE,
    CONST_TRUE,
    is_complemented,
    negate,
    negate_if,
    node_of,
)
from .aig import Aig

__all__ = ["balance", "collect_conjuncts"]


def collect_conjuncts(aig: Aig, signal: int, limit: int = 128) -> List[int]:
    """Return the leaves of the maximal AND-tree rooted at ``signal``.

    The tree is grown through *regular* (non-complemented) edges into AND
    nodes; complemented edges and primary inputs terminate the expansion.
    Duplicate leaves are removed (idempotence) and a complementary pair
    collapses the whole conjunction to constant 0.
    """
    leaves: List[int] = []
    seen = set()
    stack = [signal]
    while stack:
        current = stack.pop()
        node = node_of(current)
        if (
            not is_complemented(current)
            and aig.is_and(node)
            and len(leaves) + len(stack) < limit
        ):
            a, b = aig.fanins(node)
            stack.append(a)
            stack.append(b)
            continue
        if negate(current) in seen:
            return [CONST_FALSE]
        if current not in seen:
            seen.add(current)
            leaves.append(current)
    return leaves


def balance(aig: Aig) -> Aig:
    """Return a depth-balanced copy of ``aig``."""
    result = Aig()
    result.name = aig.name
    mapping: Dict[int, int] = {CONST_NODE: CONST_FALSE}
    for node, name in zip(aig.pi_nodes(), aig.pi_names()):
        mapping[node] = result.add_pi(name)

    levels: Dict[int, int] = {CONST_NODE: 0}
    for node in aig.pi_nodes():
        levels[node_of(mapping[node])] = 0

    memo: Dict[int, int] = {}

    def new_level(signal: int) -> int:
        return levels.get(node_of(signal), 0)

    def lookup(signal: int) -> Optional[int]:
        """The mapped ``signal`` when its node needs no building, else None."""
        node = node_of(signal)
        if node not in memo:
            if aig.is_and(node):
                return None
            memo[node] = mapping[node]
        return negate_if(memo[node], is_complemented(signal))

    def combine(built: List[int]) -> int:
        """The balanced AND over ``built``, the mapped leaves of one tree."""
        if CONST_FALSE in built:
            return CONST_FALSE
        built = [s for s in built if s != CONST_TRUE] or [CONST_TRUE]

        # Huffman-style combination: always merge the two earliest-arriving
        # operands so the latest one sits closest to the root.
        heap = [(new_level(s), index, s) for index, s in enumerate(built)]
        heapq.heapify(heap)
        counter = len(built)
        while len(heap) > 1:
            la, _, sa = heapq.heappop(heap)
            lb, _, sb = heapq.heappop(heap)
            merged = result.and_(sa, sb)
            levels[node_of(merged)] = max(
                levels.get(node_of(merged), 0), max(la, lb) + 1
            )
            heapq.heappush(heap, (levels[node_of(merged)], counter, merged))
            counter += 1
        return heap[0][2]

    def build(signal: int) -> int:
        """Map an old signal to a balanced new signal.

        An explicit stack of frames ``(node, leaves, built)`` replaces
        recursion (deep AIGs would overflow the interpreter stack); the
        leaves of each AND-tree are built left to right, each completely
        before the next, so nodes are created in the order a recursive
        build would create them.
        """
        mapped = lookup(signal)
        if mapped is not None:
            return mapped
        node = node_of(signal)
        stack = [(node, collect_conjuncts(aig, node * 2), [])]
        while stack:
            node, leaves, built = stack[-1]
            if len(built) < len(leaves):
                leaf = leaves[len(built)]
                mapped = lookup(leaf)
                if mapped is None:
                    child = node_of(leaf)
                    stack.append((child, collect_conjuncts(aig, child * 2), []))
                else:
                    built.append(mapped)
                continue
            stack.pop()
            memo[node] = combine(built)
        return lookup(signal)

    for po, name in zip(aig.po_signals(), aig.po_names()):
        result.add_po(build(po), name)
    return result
