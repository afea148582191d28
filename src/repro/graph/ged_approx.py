"""Approximate graph edit distance: bounds, bipartite assignment, beam search.

Three estimators complement the exact solver of :mod:`repro.graph.ged`:

* :func:`ged_lower_bound` — a cheap admissible bound from vertex- and
  edge-label multisets (never exceeds the exact distance). The database
  index uses it for pruning.
* :func:`bipartite_ged` — the Riesen–Bunke assignment heuristic: vertices
  of both graphs are matched by solving one linear assignment problem over
  a cost matrix that prices each substitution together with an estimate of
  its incident-edge costs; the induced edit cost of that full mapping is a
  valid upper bound.
* :func:`beam_ged` — a beam-limited variant of the exact depth-first
  search; wider beams tighten the bound at higher cost.

All estimators return a :class:`GedEstimate` whose ``distance`` comes from
:func:`induced_edit_cost`, so every reported value is the true cost of a
concrete vertex mapping (hence always an upper bound for the heuristics).
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from dataclasses import dataclass
from collections.abc import Hashable

from repro.graph.labeled_graph import LabeledGraph
from repro.graph.operations import CostModel, UNIFORM_COSTS, UniformCostModel
from repro.graph.pairview import (
    NO_EDGE,
    CostTables,
    GraphSide,
    PairView,
    assignment_bound,
)

VertexId = Hashable

#: Mapping image used for deleted vertices (mirrors repro.graph.ged).
DELETED = None


@dataclass
class GedEstimate:
    """An edit-distance estimate realised by a concrete vertex mapping."""

    distance: float
    mapping: dict[VertexId, VertexId | None]


def induced_edit_cost(
    g1: LabeledGraph,
    g2: LabeledGraph,
    mapping: dict[VertexId, VertexId | None],
    costs: CostModel = UNIFORM_COSTS,
) -> float:
    """Exact edit cost of transforming ``g1`` into ``g2`` along ``mapping``.

    ``mapping`` must cover every ``g1`` vertex (image ``None`` = deletion);
    ``g2`` vertices that are not images are insertions. The value is an
    upper bound on the true edit distance for any mapping, and equals it
    for an optimal one.
    """
    view = PairView(g1, g2)
    index2 = {vertex: i for i, vertex in enumerate(view.side2.ids)}
    deleted = len(index2)
    image = [
        deleted if mapping[u] is DELETED else index2[mapping[u]]
        for u in view.side1.ids
    ]
    return _induced_cost(view, CostTables(view, costs), image)


def _induced_cost(view: PairView, tables: CostTables, image: list[int]) -> float:
    """:func:`induced_edit_cost` over a pair view.

    ``image[u]`` is the ``g2`` index of ``g1`` vertex ``u``, or ``n2`` for
    a deletion. Terms are summed in the order the definition lists them
    (vertices, ``g1`` edges, ``g2`` edges), so the value is reproducible
    to the last bit whatever the prices.
    """
    side1, side2 = view.side1, view.side2
    deleted = len(side2.ids)
    edge = tables.edge
    cost = 0.0
    preimage: dict[int, int] = {}
    for u, w in enumerate(image):
        if w == deleted:
            cost += tables.vertex_del[side1.labels[u]]
        else:
            cost += tables.vertex_sub[side1.labels[u]][side2.labels[w]]
            preimage[w] = u
    for w, label in enumerate(side2.labels):
        if w not in preimage:
            cost += tables.vertex_ins[label]
    for u, v, label in side1.edges:
        a, b = image[u], image[v]
        kept = NO_EDGE if a == deleted or b == deleted else side2.rows[a][b]
        cost += edge[label][kept]  # a substitution, or a deletion when not kept
    for a, b, label in side2.edges:
        u, v = preimage.get(a), preimage.get(b)
        if u is None or v is None or side1.rows[u][v] == NO_EDGE:
            cost += edge[NO_EDGE][label]
    return cost


def multiset_bound(
    counter1: Counter, counter2: Counter, indel: float, mismatch: float
) -> float:
    """:func:`~repro.graph.pairview.assignment_bound` of two label multisets."""
    return assignment_bound(
        sum(counter1.values()),
        sum(counter2.values()),
        sum((counter1 & counter2).values()),
        indel,
        mismatch,
    )


def ged_lower_bound(
    g1: LabeledGraph,
    g2: LabeledGraph,
    costs: CostModel = UNIFORM_COSTS,
) -> float:
    """Admissible lower bound on ``DistEd(g1, g2)``.

    Sums independent assignment bounds over the vertex-label and edge-label
    multisets. For non-uniform cost models the bound degrades to 0.
    """
    if not isinstance(costs, UniformCostModel):
        return 0.0
    vertex_part = multiset_bound(
        g1.vertex_label_multiset(),
        g2.vertex_label_multiset(),
        costs.indel_cost,
        costs.mismatch_cost,
    )
    edge_part = multiset_bound(
        g1.edge_label_multiset(),
        g2.edge_label_multiset(),
        costs.indel_cost,
        costs.mismatch_cost,
    )
    return vertex_part + edge_part


def bipartite_ged(
    g1: LabeledGraph,
    g2: LabeledGraph,
    costs: CostModel = UNIFORM_COSTS,
) -> GedEstimate:
    """Riesen–Bunke bipartite upper bound on the edit distance.

    Builds the classic ``(n1+n2) x (n1+n2)`` cost matrix (substitutions in
    the top-left block, deletions/insertions on diagonals) where each entry
    adds a multiset estimate of incident-edge costs, solves one linear
    assignment problem, and prices the resulting complete mapping exactly.
    """
    view = PairView(g1, g2)
    return _bipartite_estimate(view, CostTables(view, costs), costs)


def _incident_labels(side: GraphSide) -> list[dict[int, int]]:
    """Per vertex: ``edge-label id -> count`` over its incident edges,
    keyed in adjacency order (the order the sums below associate in).
    Memoised per side."""
    incident = []
    for row, adjacent in zip(side.rows, side.neighbors):
        counts: dict[int, int] = {}
        for j in adjacent:
            counts[row[j]] = counts.get(row[j], 0) + 1
        incident.append(counts)
    return incident


def _bipartite_estimate(
    view: PairView, tables: CostTables, costs: CostModel
) -> GedEstimate:
    """:func:`bipartite_ged` over a pair view (the exact solver's seed)."""
    import numpy
    from scipy.optimize import linear_sum_assignment

    side1, side2 = view.side1, view.side2
    n1, n2 = len(side1.ids), len(side2.ids)
    size = n1 + n2
    if size == 0:
        return GedEstimate(0.0, {})
    if isinstance(costs, UniformCostModel):
        indel, mismatch = costs.indel_cost, costs.mismatch_cost
    else:  # conservative generic estimates for the edge term
        indel, mismatch = 1.0, 1.0
    edge = tables.edge
    incident1, incident2 = side1.memo(_incident_labels), side2.memo(_incident_labels)
    edge_to2 = view.edge_to2
    big = 1e9
    matrix = [[big] * size for _ in range(n1)]
    matrix += [[big] * n2 + [0.0] * n1 for _ in range(n2)]
    for i, counts1 in enumerate(incident1):
        row = matrix[i]
        substitution = tables.vertex_sub[side1.labels[i]]
        degree = len(side1.neighbors[i])
        # The same labels in g2's ids, where the overlaps look them up.
        shared = [(edge_to2[label], count) for label, count in counts1.items()]
        for j, counts2 in enumerate(incident2):
            overlap = 0
            for label, count in shared:
                other = counts2.get(label, 0)
                overlap += count if count < other else other
            edge_term = assignment_bound(
                degree, len(side2.neighbors[j]), overlap, indel, mismatch
            ) / 2.0
            row[j] = substitution[side2.labels[j]] + edge_term
        row[n2 + i] = tables.vertex_del[side1.labels[i]] + sum(
            edge[label][NO_EDGE] for label, count in counts1.items() for _ in range(count)
        ) / 2.0
    for j, counts2 in enumerate(incident2):
        matrix[n1 + j][j] = tables.vertex_ins[side2.labels[j]] + sum(
            edge[NO_EDGE][label] for label, count in counts2.items() for _ in range(count)
        ) / 2.0
    rows, cols = linear_sum_assignment(numpy.array(matrix))
    image = [n2] * n1
    for i, j in zip(rows.tolist(), cols.tolist()):
        if i < n1 and j < n2:
            image[i] = j
    targets = side2.ids + [DELETED]
    mapping = {u: targets[w] for u, w in zip(side1.ids, image)}
    return GedEstimate(_induced_cost(view, tables, image), mapping)


def beam_ged(
    g1: LabeledGraph,
    g2: LabeledGraph,
    costs: CostModel = UNIFORM_COSTS,
    beam_width: int = 16,
) -> GedEstimate:
    """Beam-limited assignment search (upper bound).

    Explores the same tree as the exact solver but keeps only the
    ``beam_width`` cheapest partial assignments per level. ``beam_width``
    of 1 is a greedy matcher; very large widths converge to the exact
    distance.
    """
    if beam_width < 1:
        raise ValueError("beam_width must be at least 1")
    order = sorted(g1.vertices(), key=lambda v: (-g1.degree(v), repr(v)))
    v2 = list(g2.vertices())
    counter = itertools.count()  # tie-breaker: heapq must never compare dicts
    beam: list[tuple[float, int, dict[VertexId, VertexId | None]]] = [(0.0, next(counter), {})]

    def partial_cost(mapping: dict, u: VertexId, w: VertexId | None) -> float:
        if w is DELETED:
            cost = costs.vertex_deletion(g1.vertex_label(u))
            for prev in mapping:
                if g1.has_edge(u, prev):
                    cost += costs.edge_deletion(g1.edge_label(u, prev))
            return cost
        cost = costs.vertex_substitution(g1.vertex_label(u), g2.vertex_label(w))
        for prev, image in mapping.items():
            edge1 = g1.has_edge(u, prev)
            edge2 = image is not DELETED and g2.has_edge(w, image)
            if edge1 and edge2:
                cost += costs.edge_substitution(
                    g1.edge_label(u, prev), g2.edge_label(w, image)
                )
            elif edge1:
                cost += costs.edge_deletion(g1.edge_label(u, prev))
            elif edge2:
                cost += costs.edge_insertion(g2.edge_label(w, image))
        return cost

    for u in order:
        next_beam: list[tuple[float, int, dict]] = []
        for cost_so_far, _, mapping in beam:
            used = {w for w in mapping.values() if w is not DELETED}
            options: list[VertexId | None] = [w for w in v2 if w not in used]
            options.append(DELETED)
            for w in options:
                new_cost = cost_so_far + partial_cost(mapping, u, w)
                entry = (new_cost, next(counter), {**mapping, u: w})
                if len(next_beam) < beam_width:
                    heapq.heappush(next_beam, _negate(entry))
                elif new_cost < -next_beam[0][0]:
                    heapq.heapreplace(next_beam, _negate(entry))
        beam = sorted(_negate(entry) for entry in next_beam)
    best_mapping = min(
        beam,
        key=lambda item: induced_edit_cost(g1, g2, item[2], costs),
    )[2]
    return GedEstimate(induced_edit_cost(g1, g2, best_mapping, costs), best_mapping)


def _negate(entry: tuple[float, int, dict]) -> tuple[float, int, dict]:
    """Flip the cost sign so heapq's min-heap acts as a bounded max-heap."""
    cost, tie, mapping = entry
    return (-cost, tie, mapping)
