"""repro — a Python reproduction of the Majority-Inverter Graph (MIG) paper.

Public API highlights
---------------------
* :class:`repro.core.Mig` — the MIG data structure (Section III-A).
* :mod:`repro.core.algebra` — the MIG Boolean algebra (Section III-B), the
  language in which :data:`repro.core.rules.RULES` states each Ω / Ψ rule
  as a pattern pair.  Those patterns are the rule specification: the tests
  prove each pair sound, and a forged-match test checks that every graph
  rule builds exactly its right-hand side.
* :func:`repro.core.optimize_size` / :func:`repro.core.optimize_depth` /
  :func:`repro.core.optimize_activity` — Algorithms 1, 2 and the activity
  optimization of Section IV.
* :mod:`repro.aig`, :mod:`repro.bdd` — the AIG (ABC-style) and decomposed-BDD
  (BDS-style) baselines.
* :mod:`repro.mapping` — the 22-nm-class standard-cell library and mapper.
* :mod:`repro.flows` — the flow engine, the MIGhty flow and the Table I
  experiment (:func:`repro.flows.run_table1`, one row per benchmark that
  feeds Table I and Figs. 3-4); ``benchmarks/reproduce_paper.py`` runs it
  and commits the results as ``BENCH_table1.json``.
* :mod:`repro.bench_circuits` — the synthetic MCNC-like benchmark suite.
"""

from .core import (
    Mig,
    optimize_activity,
    optimize_depth,
    optimize_size,
)
from .aig import Aig, resyn2
from .verify import check_equivalence

__version__ = "1.0.0"

__all__ = [
    "Mig",
    "Aig",
    "optimize_size",
    "optimize_depth",
    "optimize_activity",
    "resyn2",
    "check_equivalence",
    "__version__",
]
