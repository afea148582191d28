"""Per-pair forms of the index's bounds, the references of its kernels.

Each function bounds one pair the way a row of
:func:`repro.index.bound_matrix` bounds it, through the same helpers of
:mod:`repro.graph.features` (so the values are bit-identical), and the
tests check them against both the batched kernels and the exact
distances they bound.
"""

from __future__ import annotations

from repro.graph.features import (
    GraphFeatures,
    _directed_edge_types,
    _dist_gu,
    _dist_mcs,
    _edit_bound,
    _mcs_cap,
    _normalized,
)
from repro.graph.labeled_graph import LabeledGraph


def edit_distance_lower_bound(f1: GraphFeatures, f2: GraphFeatures) -> float:
    """Admissible ``DistEd`` lower bound from features alone (uniform costs)."""
    return float(
        _edit_bound(
            f1, f2.order, f2.size, dict(f2.vertex_labels), dict(f2.edge_labels)
        )
    )


def normalized_edit_lower_bound(f1: GraphFeatures, f2: GraphFeatures) -> float:
    """:func:`edit_distance_lower_bound` normalised like ``edit-normalized``."""
    return _normalized(edit_distance_lower_bound(f1, f2))


def mcs_upper_bound(g1: LabeledGraph, g2: LabeledGraph) -> int:
    """Upper bound on ``|mcs(g1, g2)|``: the overlap of labelled edge types
    (proof at :func:`repro.graph.features._mcs_cap`)."""
    return _mcs_cap(g1, _directed_edge_types(g2))


def dist_mcs_lower_bound(f1: GraphFeatures, f2: GraphFeatures, mcs_cap: int) -> float:
    """Lower bound on ``DistMcs`` given features and an ``|mcs|`` bound."""
    return _dist_mcs(f1.size, f2.size, mcs_cap)


def dist_gu_lower_bound(f1: GraphFeatures, f2: GraphFeatures, mcs_cap: int) -> float:
    """Lower bound on ``DistGu`` given features and an ``|mcs|`` bound."""
    return _dist_gu(f1.size, f2.size, mcs_cap)
