"""Cheap iso-invariant graph features for index filtering.

Candidates are pruned with features that bound the paper's distance
measures from below:

* size difference bounds ``DistEd`` (every edit changes at most one edge);
* ``|mcs|`` is bounded above by the overlap of labelled edge-type
  histograms (endpoint labels plus edge label, see
  :func:`mcs_upper_bound`), which bounds ``DistMcs`` / ``DistGu`` from
  below.

The edge types are counted from the graphs themselves, never stored:
:class:`GraphFeatures` keeps the label multisets only.
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


def mcs_upper_bound(g1: LabeledGraph, g2: LabeledGraph) -> int:
    """Upper bound on ``|mcs(g1, g2)|``: the overlap of labelled edge types.

    An edge ``{u, v}`` has type ``({l(u), l(v)}, l(u, v))``: its unordered
    endpoint-label pair and its own label. With ``c1``/``c2`` the type
    counts of the two graphs, ``|mcs| <= sum_t min(c1(t), c2(t))``.

    Proof: an MCS is an injective vertex mapping that preserves vertex
    and edge labels, so a common edge ``{u, v}`` of ``g1`` maps onto the
    ``g2`` edge ``{m(u), m(v)}`` of the same type, and distinct edges map
    onto distinct edges. The common edges of type ``t`` are therefore at
    most ``c1(t)`` and at most ``c2(t)``; summing over ``t`` gives the
    bound. It is never looser than the overlap of edge-label multisets:
    the types of one edge label split its count, and a sum of minima is
    at most the minimum of the sums.

    The count runs over directed types ``(l(u), l(v), l(u, v))`` in both
    orientations (:func:`_directed_edge_types`), which doubles every
    undirected count, so the overlap is exactly twice the bound:
    ``min(2x, 2y) = 2 min(x, y)``. Labels match by equality, as in the
    solvers, so the keys need no ordering of labels at all.
    """
    return _overlap(_directed_edge_types(g1), _directed_edge_types(g2)) // 2


def _directed_edge_types(graph: LabeledGraph) -> Counter:
    """``(l(u), l(v), l(u, v))`` counts, every edge once per orientation:
    an edge between equal labels adds 2 to one type."""
    labels, adjacency = graph.label_maps()
    return Counter(
        (labels[u], labels[v], label)
        for u, row in adjacency.items()
        for v, label in row.items()
    )


def dist_mcs_lower_bound(f1: GraphFeatures, f2: GraphFeatures, mcs_cap: int) -> float:
    """Lower bound on ``DistMcs`` given features and an ``|mcs|`` bound."""
    denominator = max(f1.size, f2.size)
    if denominator == 0:
        return 0.0
    return 1.0 - min(mcs_cap, denominator) / denominator


def dist_gu_lower_bound(f1: GraphFeatures, f2: GraphFeatures, mcs_cap: int) -> float:
    """Lower bound on ``DistGu`` given features and an ``|mcs|`` bound."""
    mcs_cap = min(mcs_cap, min(f1.size, f2.size))
    union = f1.size + f2.size - mcs_cap
    if union <= 0:
        return 0.0
    return 1.0 - mcs_cap / union


def _normalized_edit_bound(f1: GraphFeatures, f2: GraphFeatures) -> float:
    raw = edit_distance_lower_bound(f1, f2)
    return raw / (1.0 + raw)


#: Per-measure lower bounds over feature pairs: ``(function, takes_cap)``.
#: A function that takes the cap is passed the pair's |mcs| bound too.
#: Measures without an entry get the trivial bound 0 (never pruned
#: incorrectly).
_BOUND_FUNCTIONS = {
    "edit": (edit_distance_lower_bound, False),
    "edit-normalized": (_normalized_edit_bound, False),
    "mcs": (dist_mcs_lower_bound, True),
    "union": (dist_gu_lower_bound, True),
}


def optimistic_vector(
    graph: LabeledGraph,
    query: LabeledGraph,
    measures: Sequence,
    features: GraphFeatures | None = None,
    query_features: GraphFeatures | None = None,
) -> tuple[float, ...]:
    """Componentwise lower bound on ``GCS(graph, query)`` from features.

    Guaranteed ≤ the exact vector on every dimension; dimensions whose
    measure (by ``name``) has no known bound contribute 0. ``features``
    and ``query_features`` are the graphs' stored features (computed
    here when not given); the |mcs| bound counts both graphs' edge types
    on the fly, once per call and only for a measure that reads it.
    """
    if features is None:
        features = GraphFeatures.of(graph)
    if query_features is None:
        query_features = GraphFeatures.of(query)
    mcs_cap = None
    bounds = []
    for measure in measures:
        entry = _BOUND_FUNCTIONS.get(measure.name)
        if entry is None:
            bounds.append(0.0)
            continue
        function, takes_cap = entry
        if not takes_cap:
            bounds.append(float(function(features, query_features)))
            continue
        if mcs_cap is None:
            mcs_cap = mcs_upper_bound(graph, query)
        bounds.append(function(features, query_features, mcs_cap))
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
