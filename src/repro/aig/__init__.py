"""AND-Inverter Graph substrate and the ABC-style baseline optimizer."""

from .aig import Aig
from .balance import balance
from .rewrite import refactor, rewrite, rewrite_aig_inplace
from .resyn import RESYN2_SCRIPT, resyn2, run_script

__all__ = [
    "Aig",
    "balance",
    "rewrite",
    "refactor",
    "rewrite_aig_inplace",
    "resyn2",
    "run_script",
    "RESYN2_SCRIPT",
]
