"""Cheap iso-invariant graph features for index filtering.

Candidates are pruned with features that bound the paper's distance
measures from below:

* size difference bounds ``DistEd`` (every edit changes at most one edge);
* ``|mcs|`` is bounded above by the overlap of labelled edge-type
  histograms (endpoint labels plus edge label, see
  :func:`mcs_upper_bound`), which bounds ``DistMcs`` / ``DistGu`` from
  below.

The edge types are counted from the graphs themselves, never stored:
:class:`GraphFeatures` keeps the frozen label multisets only.
:class:`QueryBounds` is a query's side of the lower-bound vector,
prepared once per read; a replay bounds each graph it adds with
:meth:`QueryBounds.vector`, a loop over that graph's stored multisets and
edge list. Full runs bound every row at once with the bit-identical
kernels of :mod:`repro.index.kernels`. The per-pair functions
(:func:`edit_distance_lower_bound`, :func:`mcs_upper_bound`, …) share
the helpers of :class:`QueryBounds`, so there is one scalar form.

Labels are kept as the label objects themselves and matched by equality,
the rule of every cost model and solver: ``1``, ``1.0`` and ``True`` are
one label here too, so no bound can exceed the distance it bounds.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Hashable, Mapping, Sequence
from dataclasses import dataclass

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


def _freeze(counter: Counter) -> tuple[tuple[Hashable, int], ...]:
    return tuple(sorted(counter.items(), key=lambda item: repr(item[0])))


def _overlap(labels: tuple[tuple[Hashable, int], ...], counts: Mapping) -> int:
    """Size of the intersection of a frozen multiset and a label -> count map."""
    common = 0
    for label, count in labels:
        other = counts.get(label)
        if other:
            common += count if count < other else other
    return common


def _edit_bound(
    features: GraphFeatures,
    order: int,
    size: int,
    vertex_counts: Mapping,
    edge_counts: Mapping,
) -> int:
    """Uniform-cost ``DistEd`` lower bound against a graph of ``order``
    vertices and ``size`` edges with these label counts: the edits
    between the vertex-label multisets plus those between the edge-label
    multisets. Between multisets of ``n1`` and ``n2`` labels sharing
    ``c`` that is ``|n1 - n2| + min(n1, n2) - c = max(n1, n2) - c``."""
    return (
        max(features.order, order)
        - _overlap(features.vertex_labels, vertex_counts)
        + max(features.size, size)
        - _overlap(features.edge_labels, edge_counts)
    )


def _mcs_cap(graph: LabeledGraph, types: Mapping) -> int:
    """:func:`mcs_upper_bound` of ``graph`` against a graph whose directed
    edge types (:func:`_directed_edge_types`) are ``types``.

    Walks ``graph``'s edges once, each in both orientations, and takes
    every type from a copy of ``types`` while it lasts: that counts
    ``sum_t min(c_graph(t), types[t])`` without a histogram of ``graph``.
    """
    if not types:
        return 0
    labels, adjacency = graph.label_maps()
    left = dict(types)
    common = 0
    for u, row in adjacency.items():
        label_u = labels[u]
        for v, label in row.items():
            key = (label_u, labels[v], label)
            count = left.get(key)
            if count:
                left[key] = count - 1
                common += 1
    return common // 2


def _directed_edge_types(graph: LabeledGraph) -> Counter:
    """``(l(u), l(v), l(u, v))`` counts, every edge once per orientation:
    an edge between equal labels adds 2 to one type."""
    labels, adjacency = graph.label_maps()
    return Counter(
        (labels[u], labels[v], label)
        for u, row in adjacency.items()
        for v, label in row.items()
    )


def _dist_mcs(size1: int, size2: int, mcs_cap: int) -> float:
    denominator = max(size1, size2)
    if denominator == 0:
        return 0.0
    return 1.0 - min(mcs_cap, denominator) / denominator


def _dist_gu(size1: int, size2: int, mcs_cap: int) -> float:
    mcs_cap = min(mcs_cap, size1, size2)
    union = size1 + size2 - mcs_cap
    if union <= 0:
        return 0.0
    return 1.0 - mcs_cap / union


def _normalized(raw: int) -> float:
    raw = float(raw)
    return raw / (1.0 + raw)


def edit_distance_lower_bound(f1: GraphFeatures, f2: GraphFeatures) -> float:
    """Admissible ``DistEd`` lower bound from features alone (uniform costs)."""
    return float(
        _edit_bound(
            f1, f2.order, f2.size, dict(f2.vertex_labels), dict(f2.edge_labels)
        )
    )


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
    return _mcs_cap(g1, _directed_edge_types(g2))


def dist_mcs_lower_bound(f1: GraphFeatures, f2: GraphFeatures, mcs_cap: int) -> float:
    """Lower bound on ``DistMcs`` given features and an ``|mcs|`` bound."""
    return _dist_mcs(f1.size, f2.size, mcs_cap)


def dist_gu_lower_bound(f1: GraphFeatures, f2: GraphFeatures, mcs_cap: int) -> float:
    """Lower bound on ``DistGu`` given features and an ``|mcs|`` bound."""
    return _dist_gu(f1.size, f2.size, mcs_cap)


def _normalized_edit_bound(f1: GraphFeatures, f2: GraphFeatures) -> float:
    return _normalized(edit_distance_lower_bound(f1, f2))


#: Per-measure bound dimensions of :class:`QueryBounds`, by measure name:
#: each maps ``(raw edit bound, |mcs| bound, graph size, query size)`` to
#: the measure's lower bound. Measures without an entry get the trivial
#: bound 0 (never pruned incorrectly). The edit entries read only the raw
#: edit bound, the others only the |mcs| bound.
_BOUND_FUNCTIONS = {
    "edit": lambda raw, cap, size, query_size: float(raw),
    "edit-normalized": lambda raw, cap, size, query_size: _normalized(raw),
    "mcs": lambda raw, cap, size, query_size: _dist_mcs(size, query_size, cap),
    "union": lambda raw, cap, size, query_size: _dist_gu(size, query_size, cap),
}
_EDIT_MEASURES = frozenset(("edit", "edit-normalized"))
_MCS_MEASURES = frozenset(("mcs", "union"))


def _no_bound(raw: int, cap: int, size: int, query_size: int) -> float:
    return 0.0


class QueryBounds:
    """A query's side of the optimistic vector under ``measures``.

    Built once per read: it resolves the per-measure dispatch, keeps the
    query's order, size and label multisets (as dicts) and, only when an
    ``mcs``/``union`` measure reads the |mcs| bound, its directed edge
    types. :meth:`vector` then bounds one graph from its stored features
    and its edge list, computing the raw edit bound and the |mcs| bound
    at most once each. Nothing of it outlives the read.
    """

    __slots__ = (
        "_functions", "_order", "_size", "_vertex_counts", "_edge_counts",
        "_edit", "_types",
    )

    def __init__(
        self,
        query: LabeledGraph,
        measures: Sequence,
        features: GraphFeatures | None = None,
    ) -> None:
        if features is None:
            features = GraphFeatures.of(query)
        names = [measure.name for measure in measures]
        self._functions = tuple(_BOUND_FUNCTIONS.get(name, _no_bound) for name in names)
        self._order = features.order
        self._size = features.size
        self._vertex_counts = dict(features.vertex_labels)
        self._edge_counts = dict(features.edge_labels)
        self._edit = not _EDIT_MEASURES.isdisjoint(names)
        self._types = (
            _directed_edge_types(query) if not _MCS_MEASURES.isdisjoint(names) else None
        )

    def vector(self, graph: LabeledGraph, features: GraphFeatures) -> tuple[float, ...]:
        """Componentwise lower bound on ``GCS(graph, query)``.

        ``features`` are ``graph``'s stored features. Guaranteed ≤ the
        exact vector on every dimension, and bit-identical to the row of
        :func:`repro.index.bound_matrix` for ``graph``.
        """
        raw = (
            _edit_bound(
                features, self._order, self._size, self._vertex_counts, self._edge_counts
            )
            if self._edit
            else 0
        )
        cap = _mcs_cap(graph, self._types) if self._types is not None else 0
        size, query_size = features.size, self._size
        return tuple([function(raw, cap, size, query_size) for function in self._functions])
