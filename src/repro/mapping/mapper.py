"""Structural technology mapping onto the standard-cell library.

The paper maps optimized MIGs (and the baseline AIGs) onto a 22-nm library
containing MIN-3 / MAJ-3 / XOR-2 / XNOR-2 / NAND-2 / NOR-2 / INV cells with
a proprietary mapper.  This module provides the reproduction's mapper: a
structural covering that

* matches multi-node cones against complex-cell functions (XOR2/XNOR2,
  MAJ3/MIN3) through k-feasible cut enumeration and NPN canonicalization —
  the cut function of a cone is canonicalized and compared against the
  canonicalized *cell* functions of the library, so any cone computing an
  XOR (in either network type, under any edge polarities) maps to one XOR
  cell, not just the hand-picked 3-node patterns,
* maps majority nodes with a constant operand to AND2 / OR2 / NAND2 / NOR2
  (absorbing input complementation through De Morgan where possible),
* maps full three-input majority nodes to MAJ3 / MIN3 — "natively
  recognise and preserve MIG nodes" as Section V-B puts it,
* materialises remaining edge complementations as INV cells (cached per
  node so each polarity is generated at most once).

Cell matches are selected root-first (reverse topological order) *before*
any cell is emitted, so the interior nodes of a matched cone are never
materialised — absorbing a cone no longer leaves dead cells behind.

Both network types (MIG and AIG) go through the *same* mapper, as in the
paper's methodology; only the subject graph differs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.signal import (
    CONST_FALSE,
    CONST_TRUE,
    is_complemented,
    make_signal,
    negate,
    node_of,
)
from ..network.cuts import cut_cone, enumerate_cuts
from ..network.npn import (
    PROJECTIONS,
    NpnTransform,
    apply_transform,
    compose_transforms,
    extend_table,
    invert_transform,
    npn_canonical,
)
from .library import CellLibrary, default_library
from .netlist import MappedNetlist

__all__ = ["map_mig", "map_aig", "map_network"]

_FULL = 0xFFFF

#: Complex cells matched through cut functions, as (cell, complement-cell)
#: pairs so an output complementation selects the sibling instead of an INV.
_MATCHABLE_CELL_PAIRS = (("XOR2", "XNOR2"), ("MAJ3", "MIN3"))


class _MappingContext:
    """Bookkeeping shared by the MIG and AIG mappers."""

    def __init__(self, name: str, library: CellLibrary, pi_names) -> None:
        self.netlist = MappedNetlist(name, library)
        self.library = library
        self.node_net: Dict[int, str] = {}
        self.inverted_net: Dict[int, str] = {}
        self.const_nets: Dict[bool, Optional[str]] = {False: None, True: None}
        for pi in pi_names:
            self.netlist.add_pi(pi)

    def constant_net(self, value: bool) -> str:
        if self.const_nets[value] is None:
            net = f"const{1 if value else 0}"
            self.netlist.add_constant(net, value)
            self.const_nets[value] = net
        return self.const_nets[value]

    def literal(self, signal: int) -> str:
        """Net carrying the value of ``signal`` (INV inserted on demand)."""
        if signal == CONST_FALSE:
            return self.constant_net(False)
        if signal == CONST_TRUE:
            return self.constant_net(True)
        node = node_of(signal)
        if not is_complemented(signal):
            return self.node_net[node]
        if node not in self.inverted_net:
            inv_net = f"{self.node_net[node]}_n"
            self.netlist.add_cell("INV", inv_net, [self.node_net[node]])
            self.inverted_net[node] = inv_net
        return self.inverted_net[node]


def map_network(network, library: Optional[CellLibrary] = None) -> MappedNetlist:
    """Map a MIG or an AIG onto ``library`` (the default 7-cell library)."""
    from ..aig.aig import Aig
    from ..core.mig import Mig

    if isinstance(network, Mig):
        return map_mig(network, library)
    if isinstance(network, Aig):
        return map_aig(network, library)
    raise TypeError(f"cannot map network of type {type(network)!r}")


# --------------------------------------------------------------------- #
# Cut + NPN matching of complex library cells
# --------------------------------------------------------------------- #
class _CellTemplate:
    """One matchable library cell pair, canonicalized once per mapping."""

    __slots__ = ("cell", "complement_cell", "arity", "table", "to_canonical", "foldable")

    def __init__(self, cell: str, complement_cell: str, arity: int, table: int) -> None:
        self.cell = cell
        self.complement_cell = complement_cell
        self.arity = arity
        self.table = table
        _, self.to_canonical = npn_canonical(table)
        # Input positions whose complementation is equivalent to
        # complementing the output (true for every XOR input, no MAJ input),
        # letting the match fold input polarities into the sibling choice.
        self.foldable = tuple(
            apply_transform(table, NpnTransform((0, 1, 2, 3), 1 << i, False))
            == table ^ _FULL
            for i in range(arity)
        )


def _cell_truth_table(cell) -> int:
    """Cell function over its own inputs, in the 4-variable space.

    The cell evaluation is bit-parallel, so feeding it the 4-variable
    projection patterns directly yields the padded table in one step.
    """
    return cell.evaluate(PROJECTIONS[: cell.num_inputs], _FULL)


def _cell_templates(library: CellLibrary) -> Dict[int, List[_CellTemplate]]:
    """Canonical-class index of the library's matchable complex cells."""
    templates: Dict[int, List[_CellTemplate]] = {}
    for cell, complement_cell in _MATCHABLE_CELL_PAIRS:
        if cell not in library or complement_cell not in library:
            continue
        template = _CellTemplate(
            cell,
            complement_cell,
            library[cell].num_inputs,
            _cell_truth_table(library[cell]),
        )
        canonical, _ = npn_canonical(template.table)
        templates.setdefault(canonical, []).append(template)
    return templates


def _match_template(
    template: _CellTemplate,
    leaves: Tuple[int, ...],
    table: int,
    cut_transform,
) -> Optional[Tuple[str, List[Tuple[int, bool]]]]:
    """Bind a cut function onto a cell template.

    Computes the transform expressing the cut function *from* the cell
    function and turns it into a pin assignment: which leaf drives which
    cell input, with which polarity, and whether the complement sibling
    realises the output polarity.  Returns ``None`` when the cut does not
    use every leaf (which would leave dangling logic behind).
    """
    if len(leaves) != template.arity:
        return None
    # cut = apply(cell, compose(cell→canon, canon→cut)).
    transform = compose_transforms(template.to_canonical, invert_transform(cut_transform))
    if apply_transform(template.table, transform) != table:
        return None
    perm_inv = [0, 0, 0, 0]
    for j, p in enumerate(transform.perm):
        perm_inv[p] = j
    output_neg = transform.output_neg
    pins: List[Tuple[int, bool]] = []
    used = set()
    for i in range(template.arity):
        j = perm_inv[i]
        if j >= len(leaves):
            return None
        neg = bool((transform.input_neg >> j) & 1)
        if neg and template.foldable[i]:
            neg = False
            output_neg = not output_neg
        pins.append((leaves[j], neg))
        used.add(j)
    if used != set(range(len(leaves))):
        return None
    cell = template.complement_cell if output_neg else template.cell
    return cell, pins


def _match_library_cells(net, library: CellLibrary):
    """Choose complex-cell matches for ``net``: root-first, non-overlapping.

    Returns ``(matches, absorbed)`` where ``matches`` maps a root node to
    its ``(cell, pins)`` binding and ``absorbed`` is the set of interior
    nodes covered by a match (which must not be emitted).  A match is
    accepted only when every interior node is referenced exclusively from
    inside the matched cone, so absorbing it cannot orphan other logic.
    """
    templates = _cell_templates(library)
    matches: Dict[int, Tuple[str, List[Tuple[int, bool]]]] = {}
    absorbed: set = set()
    if not templates:
        return matches, absorbed

    # From-scratch enumeration: a mapped network is not swept again, so an
    # incremental manager would only stay attached to the caller's network.
    cuts = enumerate_cuts(net, k=3, cut_limit=6)
    for root in reversed(net.topological_order()):
        if root in absorbed:
            continue
        best = None
        for cut in cuts.get(root, ()):
            leaves = cut.leaves
            if len(leaves) < 2 or leaves == (root,):
                continue
            table = extend_table(cut.table, len(leaves))
            canonical, cut_transform = npn_canonical(table)
            candidates = templates.get(canonical)
            if candidates is None:
                continue
            cone = cut_cone(net, root, leaves)
            interior = [n for n in cone if n != root]
            # A match must beat per-node mapping (≥ 1 absorbed node) and
            # must not overlap a cone already claimed by a higher match.
            if not interior or any(n in absorbed for n in interior):
                continue
            refs_inside: Dict[int, int] = {}
            for n in cone:
                for f in net.fanins(n):
                    fn = node_of(f)
                    refs_inside[fn] = refs_inside.get(fn, 0) + 1
            if any(net.fanout_size(n) != refs_inside.get(n, 0) for n in interior):
                continue
            for template in candidates:
                bound = _match_template(template, leaves, table, cut_transform)
                if bound is None:
                    continue
                score = len(interior)
                if best is None or score > best[0]:
                    best = (score, bound, interior)
        if best is not None:
            matches[root] = best[1]
            absorbed.update(best[2])
    return matches, absorbed


def _emit_match(ctx: _MappingContext, net_name: str, match) -> None:
    cell, pins = match
    ctx.netlist.add_cell(
        cell, net_name, [ctx.literal(make_signal(leaf, neg)) for leaf, neg in pins]
    )


# --------------------------------------------------------------------- #
# MIG mapping
# --------------------------------------------------------------------- #
def map_mig(mig, library: Optional[CellLibrary] = None) -> MappedNetlist:
    """Map a MIG onto the standard-cell library."""
    library = library or default_library()
    ctx = _MappingContext(mig.name, library, mig.pi_names())
    for node, name in zip(mig.pi_nodes(), mig.pi_names()):
        ctx.node_net[node] = name

    matches, absorbed = _match_library_cells(mig, library)
    for node in mig.topological_order():
        if node in absorbed:
            continue
        net_name = f"n{node}"
        match = matches.get(node)
        if match is not None:
            _emit_match(ctx, net_name, match)
            ctx.node_net[node] = net_name
            continue

        fanins = mig.fanins(node)
        constants = [f for f in fanins if f in (CONST_FALSE, CONST_TRUE)]
        if constants:
            const = constants[0]
            others = [f for f in fanins if f != const]
            a, b = others[0], others[1]
            _map_two_input(ctx, net_name, a, b, is_or=(const == CONST_TRUE))
        else:
            _map_majority(ctx, net_name, fanins)
        ctx.node_net[node] = net_name

    for po, name in zip(mig.po_signals(), mig.po_names()):
        ctx.netlist.add_po(_po_net(ctx, po), name)
    return ctx.netlist


def _map_two_input(ctx: _MappingContext, net: str, a: int, b: int, is_or: bool) -> None:
    """Map ``a AND b`` / ``a OR b`` choosing NAND/NOR when it saves inverters."""
    library = ctx.library
    both_complemented = is_complemented(a) and is_complemented(b)
    if both_complemented and not is_or and "NOR2" in library:
        # a' · b' = NOR(a, b)
        ctx.netlist.add_cell("NOR2", net, [ctx.literal(negate(a)), ctx.literal(negate(b))])
        return
    if both_complemented and is_or and "NAND2" in library:
        # a' + b' = NAND(a, b)
        ctx.netlist.add_cell("NAND2", net, [ctx.literal(negate(a)), ctx.literal(negate(b))])
        return
    cell = "OR2" if is_or else "AND2"
    if cell not in library:
        # Fall back to NAND/NOR + INV.
        base = "NAND2" if not is_or else "NOR2"
        tmp = f"{net}_x"
        ctx.netlist.add_cell(base, tmp, [ctx.literal(a), ctx.literal(b)])
        ctx.netlist.add_cell("INV", net, [tmp])
        return
    ctx.netlist.add_cell(cell, net, [ctx.literal(a), ctx.literal(b)])


def _map_majority(ctx: _MappingContext, net: str, fanins) -> None:
    """Map a full three-input majority node."""
    library = ctx.library
    complemented_count = sum(1 for f in fanins if is_complemented(f))
    if "MIN3" in library and complemented_count >= 2:
        # M with two complements is cheaper as MIN3 of the complemented
        # literals: M(a', b', c) = MIN3(a, b, c').
        literals = [ctx.literal(negate(f)) for f in fanins]
        ctx.netlist.add_cell("MIN3", net, literals)
        return
    if "MAJ3" in library:
        ctx.netlist.add_cell("MAJ3", net, [ctx.literal(f) for f in fanins])
        return
    # No majority cells (ablation library): expand into AND/OR gates.
    a, b, c = fanins
    ab = ctx.netlist.add_cell("AND2", f"{net}_ab", [ctx.literal(a), ctx.literal(b)])
    aob = ctx.netlist.add_cell("OR2", f"{net}_aob", [ctx.literal(a), ctx.literal(b)])
    cab = ctx.netlist.add_cell("AND2", f"{net}_cab", [ctx.literal(c), aob])
    ctx.netlist.add_cell("OR2", net, [ab, cab])


# --------------------------------------------------------------------- #
# AIG mapping
# --------------------------------------------------------------------- #
def map_aig(aig, library: Optional[CellLibrary] = None) -> MappedNetlist:
    """Map an AIG onto the standard-cell library."""
    library = library or default_library()
    ctx = _MappingContext(aig.name, library, aig.pi_names())
    for node, name in zip(aig.pi_nodes(), aig.pi_names()):
        ctx.node_net[node] = name

    matches, absorbed = _match_library_cells(aig, library)
    for node in aig.topological_order():
        if node in absorbed:
            continue
        net_name = f"n{node}"
        match = matches.get(node)
        if match is not None:
            _emit_match(ctx, net_name, match)
            ctx.node_net[node] = net_name
            continue
        a, b = aig.fanins(node)
        _map_two_input(ctx, net_name, a, b, is_or=False)
        ctx.node_net[node] = net_name

    for po, name in zip(aig.po_signals(), aig.po_names()):
        ctx.netlist.add_po(_po_net(ctx, po), name)
    return ctx.netlist


def _po_net(ctx: _MappingContext, po_signal: int) -> str:
    """Net for a primary-output signal (an INV or BUF is emitted if needed)."""
    return ctx.literal(po_signal)
