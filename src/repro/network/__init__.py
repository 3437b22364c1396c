"""Shared logic-network kernel and conversions between representations.

:class:`~repro.network.base.LogicNetwork` is the substrate both
:class:`repro.core.mig.Mig` and :class:`repro.aig.aig.Aig` are built on;
:mod:`repro.network.cuts` enumerates k-feasible cuts with truth tables
over any such network (one packed word array per node, read with
:func:`~repro.network.cuts.iter_cuts`), :mod:`repro.network.npn` canonicalizes the cut
functions and stores the precomputed optimal structures, and
:mod:`repro.network.rewrite` runs DAG-aware Boolean rewriting on top of
both; :mod:`repro.network.convert` translates between the two concrete
types (and is imported lazily here because it depends on both).
"""

from .base import LogicNetwork
from .cuts import CutManager, cut_cone, enumerate_cuts, iter_cuts, mffc_nodes
from .npn import (
    NpnTransform,
    apply_transform,
    extend_table,
    npn_canonical,
    npn_representatives,
)
from .rewrite import cut_rewrite

__all__ = [
    "LogicNetwork",
    "CutManager",
    "cut_cone",
    "enumerate_cuts",
    "iter_cuts",
    "mffc_nodes",
    "NpnTransform",
    "apply_transform",
    "extend_table",
    "npn_canonical",
    "npn_representatives",
    "cut_rewrite",
    "aig_to_mig",
    "mig_to_aig",
]


def __getattr__(name):
    # Lazy re-exports: ``convert`` imports Mig and Aig, which themselves
    # import this package for the kernel — resolving the conversion helpers
    # on first access keeps the import graph acyclic.
    if name in ("aig_to_mig", "mig_to_aig"):
        from . import convert

        return getattr(convert, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
