"""The paper's primary contribution: MIGs, their algebra and optimizers."""

from .mig import Mig
from .signal import (
    CONST_FALSE,
    CONST_TRUE,
    is_complemented,
    make_signal,
    negate,
    node_of,
)
from .rewrite import rewrite_mig
from .size_opt import SizeOptStats, optimize_size
from .depth_opt import DepthOptStats, optimize_depth
from .activity_opt import ActivityOptStats, optimize_activity
from .reshape import reshape
from .rules import RESHAPE_RULES
from .generation import (
    mig_from_truth_tables,
    mutate_network,
    random_aoig_mig,
    random_mig,
    random_network,
)

__all__ = [
    "Mig",
    "CONST_FALSE",
    "CONST_TRUE",
    "make_signal",
    "node_of",
    "negate",
    "is_complemented",
    "rewrite_mig",
    "optimize_size",
    "optimize_depth",
    "optimize_activity",
    "SizeOptStats",
    "DepthOptStats",
    "ActivityOptStats",
    "RESHAPE_RULES",
    "reshape",
    "random_mig",
    "random_aoig_mig",
    "random_network",
    "mutate_network",
    "mig_from_truth_tables",
]
