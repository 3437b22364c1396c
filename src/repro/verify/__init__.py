"""Verification utilities: CEC dispatch, CNF encoding, CDCL SAT, sweeping."""

from .equivalence import (
    EXHAUSTIVE_LIMIT,
    CounterexampleError,
    EquivalenceResult,
    assert_equivalent,
    check_equivalence,
)
from .cnf import GateGraph, encode_network
from .sat import SAT, UNKNOWN, UNSAT, SatSolver
from .sweep import SweepOutcome, sat_sweep

__all__ = [
    "EquivalenceResult",
    "CounterexampleError",
    "check_equivalence",
    "assert_equivalent",
    "EXHAUSTIVE_LIMIT",
    "GateGraph",
    "encode_network",
    "SatSolver",
    "SAT",
    "UNSAT",
    "UNKNOWN",
    "SweepOutcome",
    "sat_sweep",
]
