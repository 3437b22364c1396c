"""Network quality metrics reported in the paper's experimental section.

Collects the three logic-level figures of merit of Table I (size, depth,
switching activity) plus the composite ``size · depth · activity`` figure
of merit used in Section V-A.2, for any network type that exposes the
small protocol implemented by :class:`repro.core.mig.Mig` and
:class:`repro.aig.aig.Aig`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

__all__ = [
    "NetworkMetrics",
    "measure_network",
    "geometric_improvement",
]


@dataclass(frozen=True)
class NetworkMetrics:
    """Size / depth / activity snapshot of one logic network."""

    name: str
    num_pis: int
    num_pos: int
    size: int
    depth: int
    activity: float
    runtime_s: float = 0.0

    @property
    def figure_of_merit(self) -> float:
        """The ``size · depth · activity`` composite used in Section V-A."""
        return float(self.size) * float(self.depth) * float(self.activity)

    def as_row(self) -> tuple:
        return (
            self.name,
            f"{self.num_pis}/{self.num_pos}",
            self.size,
            self.depth,
            round(self.activity, 2),
            round(self.runtime_s, 2),
        )


def measure_network(
    network,
    name: Optional[str] = None,
    runtime_s: float = 0.0,
    pi_probabilities: Optional[Mapping[str, float]] = None,
) -> NetworkMetrics:
    """Measure a MIG or AIG: size = gates, depth = levels, and the total
    switching activity of :mod:`repro.analysis.activity`."""
    from .activity import total_switching_activity

    return NetworkMetrics(
        name=name or network.name,
        num_pis=network.num_pis,
        num_pos=network.num_pos,
        size=network.num_gates,
        depth=network.depth(),
        activity=total_switching_activity(network, pi_probabilities),
        runtime_s=runtime_s,
    )


def geometric_improvement(reference: float, value: float) -> float:
    """Relative improvement of ``value`` over ``reference`` in percent.

    Positive numbers mean ``value`` is smaller (better) than ``reference``,
    matching the way the paper quotes "-18% depth w.r.t. AIG".
    """
    if reference == 0:
        return 0.0
    return 100.0 * (reference - value) / reference
