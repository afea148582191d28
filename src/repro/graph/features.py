"""Cheap iso-invariant graph features for index filtering.

Candidates are pruned with features that bound the paper's distance
measures from below:

* size difference bounds ``DistEd`` (every edit changes at most one edge);
* ``|mcs|`` is bounded above by the overlap of edge-label multisets, which
  bounds ``DistMcs`` / ``DistGu`` from below.

:func:`optimistic_vector` assembles one graph's lower-bound vector; a
replay bounds its few added graphs with it. Full runs bound every row at
once with the bit-identical kernels of :mod:`repro.index.kernels`.

Labels are kept as the label objects themselves and matched by equality,
the rule of every cost model and solver: ``1``, ``1.0`` and ``True`` are
one label here too, so no bound can exceed the distance it bounds.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Hashable, Sequence
from dataclasses import dataclass
from functools import cached_property

from repro.graph.labeled_graph import LabeledGraph


@dataclass(frozen=True)
class GraphFeatures:
    """Summary statistics of a graph, comparable without the graph itself.

    ``vertex_labels`` / ``edge_labels`` are ``(label, count)`` pairs,
    sorted by the ``repr`` of the label for a deterministic layout.
    """

    order: int
    size: int
    vertex_labels: tuple[tuple[Hashable, int], ...]
    edge_labels: tuple[tuple[Hashable, int], ...]

    @classmethod
    def of(cls, graph: LabeledGraph) -> "GraphFeatures":
        """Extract features from ``graph``."""
        return cls(
            order=graph.order,
            size=graph.size,
            vertex_labels=_freeze(graph.vertex_label_multiset()),
            edge_labels=_freeze(graph.edge_label_multiset()),
        )

    # The Counter forms are materialized once per (frozen, immutable)
    # instance — the scalar bounds below are called per database pair,
    # and rebuilding a Counter for every pair dominated their cost.
    # ``cached_property`` writes straight into ``__dict__``, which a
    # frozen dataclass permits; equality/hash use the fields only.
    @cached_property
    def _vertex_counter(self) -> Counter:
        return Counter(dict(self.vertex_labels))

    @cached_property
    def _edge_counter(self) -> Counter:
        return Counter(dict(self.edge_labels))

    def vertex_label_counter(self) -> Counter:
        """The vertex-label multiset as a :class:`collections.Counter`.

        The same object on every call — treat it as read-only.
        """
        return self._vertex_counter

    def edge_label_counter(self) -> Counter:
        """The edge-label multiset as a :class:`collections.Counter`.

        The same object on every call — treat it as read-only.
        """
        return self._edge_counter


def _freeze(counter: Counter) -> tuple[tuple[Hashable, int], ...]:
    return tuple(sorted(counter.items(), key=lambda item: repr(item[0])))


def edit_distance_lower_bound(f1: GraphFeatures, f2: GraphFeatures) -> float:
    """Admissible ``DistEd`` lower bound from features alone (uniform costs)."""
    vertex_part = _counter_bound(
        f1.order,
        f2.order,
        _overlap(f1.vertex_label_counter(), f2.vertex_label_counter()),
    )
    edge_part = _counter_bound(
        f1.size, f2.size, _overlap(f1.edge_label_counter(), f2.edge_label_counter())
    )
    return float(vertex_part + edge_part)


def mcs_upper_bound(f1: GraphFeatures, f2: GraphFeatures) -> int:
    """Upper bound on ``|mcs|`` — shared edge-label stock caps any overlap."""
    return _overlap(f1.edge_label_counter(), f2.edge_label_counter())


def dist_mcs_lower_bound(f1: GraphFeatures, f2: GraphFeatures) -> float:
    """Lower bound on ``DistMcs`` given only features."""
    denominator = max(f1.size, f2.size)
    if denominator == 0:
        return 0.0
    return 1.0 - min(mcs_upper_bound(f1, f2), denominator) / denominator


def dist_gu_lower_bound(f1: GraphFeatures, f2: GraphFeatures) -> float:
    """Lower bound on ``DistGu`` given only features."""
    mcs_cap = min(mcs_upper_bound(f1, f2), min(f1.size, f2.size))
    union = f1.size + f2.size - mcs_cap
    if union <= 0:
        return 0.0
    return 1.0 - mcs_cap / union


def _normalized_edit_bound(f1: GraphFeatures, f2: GraphFeatures) -> float:
    raw = edit_distance_lower_bound(f1, f2)
    return raw / (1.0 + raw)


#: Per-measure lower-bound functions over feature pairs. Measures without
#: an entry get the trivial bound 0 (never pruned incorrectly).
_BOUND_FUNCTIONS = {
    "edit": edit_distance_lower_bound,
    "edit-normalized": _normalized_edit_bound,
    "mcs": dist_mcs_lower_bound,
    "union": dist_gu_lower_bound,
}


def optimistic_vector(
    features: GraphFeatures, query_features: GraphFeatures, measures: Sequence
) -> tuple[float, ...]:
    """Componentwise lower bound on ``GCS(graph, query)`` from features.

    Guaranteed ≤ the exact vector on every dimension; dimensions whose
    measure (by ``name``) has no known bound contribute 0.
    """
    bounds = []
    for measure in measures:
        bound_function = _BOUND_FUNCTIONS.get(measure.name)
        bounds.append(
            0.0
            if bound_function is None
            else float(bound_function(features, query_features))
        )
    return tuple(bounds)


def _overlap(counter1: Counter, counter2: Counter) -> int:
    """Size of the intersection of two label multisets."""
    return sum(
        min(count, counter2[label])
        for label, count in counter1.items()
        if label in counter2
    )


def _counter_bound(n1: int, n2: int, overlap: int) -> int:
    """Uniform-cost edits between multisets of ``n1`` and ``n2`` labels."""
    return abs(n1 - n2) + (min(n1, n2) - overlap)
