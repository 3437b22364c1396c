"""Signal-probability and switching-activity estimation.

The *activity* column of Table I is the total switching activity of the
network: the sum over all gates of the probability that the gate output
toggles between two independent input vectors.  Under the standard
temporal-independence model used by the paper this is ``2 · p · (1 − p)``
per gate, where ``p`` is the static probability that the gate output is
logic 1.

Probabilities are propagated from the primary inputs through the gates
assuming spatial independence of the fanins (the usual first-order
model): ``pa·pb`` for a two-input AND of an AIG, the majority formula for
a three-input MIG node, so the MIG and AIG columns of Table I use one
model.  Primary inputs default to ``p = 0.5`` but arbitrary input
profiles can be supplied, which is what the activity-optimization example
of Fig. 2(d) relies on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Mapping, Optional

from ..core.signal import CONST_NODE, is_complemented, node_of

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..network.base import LogicNetwork

__all__ = [
    "signal_probabilities",
    "node_switching_activities",
    "total_switching_activity",
    "estimate_activity_by_simulation",
]


def signal_probabilities(
    network: "LogicNetwork", pi_probabilities: Optional[Mapping[str, float]] = None
) -> Dict[int, float]:
    """Static probability of each live node of a MIG or AIG being logic 1.

    ``pi_probabilities`` maps primary-input names to their probability of
    being 1; missing inputs default to 0.5.  Raises ``ValueError`` on a
    probability outside ``[0, 1]`` or a name that is no input.
    """
    probs: Dict[int, float] = {CONST_NODE: 0.0}
    probs.update(zip(network.pi_nodes(), _input_probabilities(network, pi_probabilities)))

    for node in network.topological_order():
        fanins = network.fanins(node)
        if len(fanins) == 2:
            a, b = fanins
            probs[node] = _edge_probability(probs, a) * _edge_probability(probs, b)
            continue
        a, b, c = fanins
        pa = _edge_probability(probs, a)
        pb = _edge_probability(probs, b)
        pc = _edge_probability(probs, c)
        # P[M(a,b,c) = 1] under fanin independence.
        probs[node] = pa * pb + pa * pc + pb * pc - 2.0 * pa * pb * pc
    return probs


def node_switching_activities(
    network: "LogicNetwork", pi_probabilities: Optional[Mapping[str, float]] = None
) -> Dict[int, float]:
    """Per-gate switching activity ``2·p·(1−p)`` for all live gates."""
    probs = signal_probabilities(network, pi_probabilities)
    return {
        node: 2.0 * probs[node] * (1.0 - probs[node])
        for node in network.topological_order()
    }


def total_switching_activity(
    network: "LogicNetwork", pi_probabilities: Optional[Mapping[str, float]] = None
) -> float:
    """Total switching activity: the *Activity* metric of Table I."""
    return sum(node_switching_activities(network, pi_probabilities).values())


def estimate_activity_by_simulation(
    network: "LogicNetwork",
    num_vectors: int = 2048,
    seed: int = 1,
    pi_probabilities: Optional[Mapping[str, float]] = None,
) -> float:
    """Monte-Carlo estimate of the total switching activity of a MIG or AIG.

    Serves as an independent cross-check of the analytic propagation (the
    analytic model assumes fanin independence, which reconvergence breaks;
    simulation does not).  Uses bit-parallel random simulation through the
    network's own gate evaluation.
    """
    import random

    rng = random.Random(seed)
    patterns = []
    for p in _input_probabilities(network, pi_probabilities):
        bits = 0
        for i in range(num_vectors):
            if rng.random() < p:
                bits |= 1 << i
        patterns.append(bits)

    mask = (1 << num_vectors) - 1
    values = [0] * network.num_nodes
    for node, pattern in zip(network.pi_nodes(), patterns):
        values[node] = pattern

    total = 0.0
    for node in network.topological_order():
        out = network._eval_gate(values, network.fanins(node), mask)
        values[node] = out
        ones = bin(out).count("1")
        p = ones / num_vectors
        total += 2.0 * p * (1.0 - p)
    return total


def _edge_probability(probs: Mapping[int, float], signal: int) -> float:
    p = probs[node_of(signal)]
    return 1.0 - p if is_complemented(signal) else p


def _input_probabilities(
    network: "LogicNetwork", pi_probabilities: Optional[Mapping[str, float]]
) -> List[float]:
    """Probability of each primary input, in PI order, checked."""
    pi_probabilities = pi_probabilities or {}
    names = network.pi_names()
    unknown = sorted(set(pi_probabilities) - set(names))
    if unknown:
        raise ValueError(f"probabilities given for names that are no input: {unknown}")
    result = []
    for name in names:
        p = float(pi_probabilities.get(name, 0.5))
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability of input {name!r} out of range: {p}")
        result.append(p)
    return result
