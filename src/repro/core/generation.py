"""Random and structured MIG generation helpers.

Used by the test-suite (equivalence-preservation property tests need many
diverse networks), by the examples, and by the synthetic benchmark suite in
:mod:`repro.bench_circuits` as a building block for "random logic" blocks.
"""

from __future__ import annotations

import random
from typing import List, Optional, Type

from .mig import Mig
from .signal import make_signal, negate, node_of

__all__ = [
    "random_mig",
    "random_aoig_mig",
    "random_network",
    "mutate_network",
    "rare_difference_mutant",
    "rebuild_shuffled",
]


def random_mig(
    num_pis: int,
    num_gates: int,
    num_pos: Optional[int] = None,
    seed: int = 1,
    complemented_edge_probability: float = 0.3,
) -> Mig:
    """Generate a pseudo-random MIG with roughly ``num_gates`` majority nodes.

    Gates pick three distinct already-existing signals as fanins (so the
    result is a DAG by construction) and edges are complemented with the
    given probability.  Because structural hashing and Ω.M folding run at
    creation time, the actual gate count can be slightly lower than
    requested.
    """
    if num_pis < 3:
        raise ValueError("random_mig needs at least 3 primary inputs")
    rng = random.Random(seed)
    mig = Mig()
    mig.name = f"random_{num_pis}_{num_gates}_{seed}"
    signals: List[int] = [mig.add_pi(f"x{i}") for i in range(num_pis)]

    for _ in range(num_gates):
        a, b, c = rng.sample(signals, 3)
        if rng.random() < complemented_edge_probability:
            a = negate(a)
        if rng.random() < complemented_edge_probability:
            b = negate(b)
        new = mig.maj(a, b, c)
        signals.append(new)

    gate_signals = signals[num_pis:]
    if not gate_signals:
        gate_signals = signals
    if num_pos is None:
        num_pos = max(1, len(gate_signals) // 8)
    # Prefer signals late in the construction so outputs see deep logic.
    chosen = gate_signals[-num_pos:]
    for index, sig in enumerate(chosen):
        mig.add_po(sig, f"y{index}")
    return mig


def random_aoig_mig(
    num_pis: int,
    num_gates: int,
    num_pos: Optional[int] = None,
    seed: int = 1,
) -> Mig:
    """Generate a random AND/OR/INV network encoded as a MIG.

    Every gate is either ``AND`` or ``OR`` (a majority node with one constant
    fanin), which mimics the "MIG obtained by transposing an AOIG" starting
    point used throughout the paper's examples.
    """
    if num_pis < 2:
        raise ValueError("random_aoig_mig needs at least 2 primary inputs")
    rng = random.Random(seed)
    mig = Mig()
    mig.name = f"random_aoig_{num_pis}_{num_gates}_{seed}"
    signals: List[int] = [mig.add_pi(f"x{i}") for i in range(num_pis)]

    for _ in range(num_gates):
        a, b = rng.sample(signals, 2)
        if rng.random() < 0.3:
            a = negate(a)
        if rng.random() < 0.3:
            b = negate(b)
        new = mig.and_(a, b) if rng.random() < 0.5 else mig.or_(a, b)
        signals.append(new)

    gate_signals = signals[num_pis:] or signals
    if num_pos is None:
        num_pos = max(1, len(gate_signals) // 8)
    for index, sig in enumerate(gate_signals[-num_pos:]):
        mig.add_po(sig, f"y{index}")
    return mig


def random_network(
    network_cls: Type = Mig,
    num_pis: int = 6,
    num_gates: int = 30,
    num_pos: Optional[int] = None,
    seed: int = 1,
    gate_mix: str = "aoig",
    complemented_edge_probability: float = 0.3,
    depth_bias: float = 0.0,
):
    """Seeded random network over any :class:`LogicNetwork` subclass.

    The generic generator behind the test-suite's shared fuzz fixture
    (``tests/conftest.py::network_forge``): one construction recipe for
    MIGs *and* AIGs, parameterized by

    * ``gate_mix`` — ``"aoig"`` (AND/OR only, the paper's transposed-AOIG
      starting point), ``"maj"`` (pure majority gates; AIGs synthesize
      them from AND/OR), or ``"mixed"`` (AND/OR/XOR/MAJ/MUX soup, the
      hardest case for strashing and cut enumeration);
    * ``depth_bias`` — probability of drawing fanins from the most recent
      quarter of the signal pool, which stretches the network depth-wise
      instead of producing wide shallow DAGs.

    Strashing and gate-level simplification run at creation time, so the
    realised gate count can be below ``num_gates``.
    """
    if num_pis < 3:
        raise ValueError("random_network needs at least 3 primary inputs")
    if gate_mix not in ("aoig", "maj", "mixed"):
        raise ValueError(f"unknown gate_mix {gate_mix!r}")
    rng = random.Random(seed)
    net = network_cls()
    net.name = f"forge_{gate_mix}_{num_pis}_{num_gates}_{seed}"
    signals: List[int] = [net.add_pi(f"x{i}") for i in range(num_pis)]
    maj = getattr(net, "maj", None) or getattr(net, "maj_", None)

    def pick(count: int) -> List[int]:
        if depth_bias and rng.random() < depth_bias and len(signals) > 4:
            pool = signals[-max(4, len(signals) // 4):]
        else:
            pool = signals
        chosen = rng.sample(pool, min(count, len(pool)))
        while len(chosen) < count:
            chosen.append(rng.choice(signals))
        return [
            negate(s) if rng.random() < complemented_edge_probability else s
            for s in chosen
        ]

    for _ in range(num_gates):
        if gate_mix == "maj":
            kind = "maj"
        elif gate_mix == "aoig":
            kind = rng.choice(("and", "or"))
        else:
            kind = rng.choice(("and", "or", "xor", "maj", "mux"))
        if kind == "maj":
            signals.append(maj(*pick(3)))
        elif kind == "mux":
            signals.append(net.mux_(*pick(3)))
        elif kind == "xor":
            signals.append(net.xor_(*pick(2)))
        elif kind == "or":
            signals.append(net.or_(*pick(2)))
        else:
            signals.append(net.and_(*pick(2)))

    gate_signals = signals[num_pis:] or signals
    if num_pos is None:
        num_pos = max(1, len(gate_signals) // 8)
    # Guard the slice: gate_signals[-0:] would be the *whole* list.
    chosen = gate_signals[-num_pos:] if num_pos > 0 else []
    for index, sig in enumerate(chosen):
        net.add_po(sig, f"y{index}")
    return net


def rebuild_shuffled(network, seed: int = 1):
    """Rebuild the PO-reachable cone in a seeded random topological order.

    Returns a new network of the same class computing the same DAG —
    same PI/PO names and order, same gate fanin structure and complement
    bits — but with gates *created* in a different (uniformly drawn
    among valid) topological order, so raw node ids generally differ.
    The fuzz counterpart of the result-cache key contract: the rebuilt
    network must hit the same
    :func:`repro.parallel.corpus.canonical_fingerprint` (content
    address) while its id-exact
    :func:`~repro.parallel.corpus.structural_fingerprint` drifts.
    """
    rng = random.Random(seed)
    clone = type(network)()
    clone.name = network.name

    mapping = {0: 0}  # old constant node -> constant-0 signal
    for old_node, name in zip(network.pi_nodes(), network.pi_names()):
        mapping[old_node] = clone.add_pi(name)

    def map_signal(signal: int) -> int:
        return mapping[node_of(signal)] ^ (signal & 1)

    gates = [n for n in network.topological_order() if network.is_gate(n)]
    gate_set = set(gates)
    deps = {n: 0 for n in gates}
    dependents = {n: [] for n in gates}
    for node in gates:
        for fanin in network.fanins(node):
            source = node_of(fanin)
            if source in gate_set:
                deps[node] += 1
                dependents[source].append(node)

    ready = [n for n in gates if deps[n] == 0]
    while ready:
        node = ready.pop(rng.randrange(len(ready)))
        fanins = network.fanins(node)
        new_fanins = [map_signal(f) for f in fanins]
        if len(fanins) == 3:
            mapping[node] = clone.maj(*new_fanins)
        elif len(fanins) == 2:
            mapping[node] = clone.and_(*new_fanins)
        else:  # pragma: no cover - no current kernel has other arities
            raise ValueError(f"unsupported gate arity {len(fanins)}")
        for parent in dependents[node]:
            deps[parent] -= 1
            if deps[parent] == 0:
                ready.append(parent)

    for po, name in zip(network.po_signals(), network.po_names()):
        clone.add_po(map_signal(po), name)
    return clone


def mutate_network(network, seed: int = 1, in_place: bool = False):
    """Seeded single-gate mutation of a copy — or of ``network`` itself
    when ``in_place=True``.

    Returns ``(mutant, description)``.  One of three fault classes is
    injected — a complemented primary output, a complemented fanin edge,
    or a rewired fanin — mimicking the single-gate bugs an optimization
    pass could realistically introduce.  Used by the differential tests
    and the SAT-CEC acceptance harness to prove that every complete
    equivalence backend refutes broken networks with replayable
    counterexamples.

    ``in_place=True`` mutates ``network`` itself instead of a copy (and
    returns it) — the edit-sequence driver of the incremental-cut
    property tests, which need faults injected into a live network whose
    caches are being maintained.

    A mutation is *almost always* a functional change but can be masked
    by downstream don't-cares; callers that need a guaranteed-different
    mutant should confirm with an independent check and draw a new seed
    otherwise.
    """
    rng = random.Random(seed)
    mutant = network if in_place else network.copy()
    gates = list(mutant.topological_order())
    kinds = []
    if mutant.num_pos:
        kinds.append("negate_po")
    if gates:
        kinds.extend(("negate_fanin", "rewire_fanin"))
    if not kinds:
        raise ValueError("cannot mutate a network with no gates and no POs")
    kind = rng.choice(kinds)

    if kind == "negate_po":
        index = rng.randrange(mutant.num_pos)
        mutant.set_po(index, negate(mutant.po_signals()[index]))
        return mutant, {"kind": kind, "po": index}

    node = gates[rng.randrange(len(gates))]
    fanins = list(mutant.fanins(node))
    slot = rng.randrange(len(fanins))

    if kind == "negate_fanin":
        fanins[slot] = negate(fanins[slot])
        mutant.replace_fanins(node, tuple(fanins))
        return mutant, {"kind": kind, "node": node, "slot": slot}

    candidates = [make_signal(n) for n in mutant.pi_nodes()]
    candidates.extend(make_signal(g) for g in gates if g != node)
    for _ in range(16):
        target = candidates[rng.randrange(len(candidates))]
        if rng.random() < 0.5:
            target = negate(target)
        if node_of(target) == node_of(fanins[slot]):
            continue
        rewired = list(fanins)
        rewired[slot] = target
        try:
            mutant.replace_fanins(node, tuple(rewired))
        except ValueError:
            continue  # would create a combinational cycle; redraw
        return mutant, {"kind": kind, "node": node, "slot": slot}

    # All rewire attempts hit cycles: fall back to a PO polarity fault.
    mutant.set_po(0, negate(mutant.po_signals()[0]))
    return mutant, {"kind": "negate_po", "po": 0}


def rare_difference_mutant(network, po: int = 0, width: int = 16):
    """Copy of ``network`` whose PO ``po`` is XORed with the AND of its
    first ``width`` primary inputs.

    The mutant differs from ``network`` on exactly one input minterm in
    ``2**width``, so random simulation almost never separates the pair:
    a refutation has to come from a complete engine.  The differential
    tests and the SAT-CEC acceptance harness use it to keep the SAT
    sweep's refutation path exercised.
    """
    if network.num_pis < width:
        raise ValueError(f"need at least {width} PIs, got {network.num_pis}")
    mutant = network.copy()
    pis = mutant.pi_signals()
    conjunction = pis[0]
    for signal in pis[1:width]:
        conjunction = mutant.and_(conjunction, signal)
    mutant.set_po(po, mutant.xor_(mutant.po_signals()[po], conjunction))
    return mutant
