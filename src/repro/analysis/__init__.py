"""Analysis utilities: switching activity, probabilities and quality metrics."""

from .activity import (
    estimate_activity_by_simulation,
    node_switching_activities,
    signal_probabilities,
    total_switching_activity,
)
from .metrics import NetworkMetrics, geometric_improvement, measure_network

__all__ = [
    "signal_probabilities",
    "node_switching_activities",
    "total_switching_activity",
    "estimate_activity_by_simulation",
    "NetworkMetrics",
    "measure_network",
    "geometric_improvement",
]
