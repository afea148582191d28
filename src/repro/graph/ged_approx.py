"""Approximate graph edit distance: bounds and bipartite assignment.

Two estimators complement the exact solver of :mod:`repro.graph.ged`:

* :func:`ged_lower_bound` — a cheap admissible bound from vertex- and
  edge-label multisets (never exceeds the exact distance). The database
  index uses it for pruning.
* :func:`bipartite_ged` — the Riesen–Bunke assignment heuristic: vertices
  of both graphs are matched by solving one linear assignment problem over
  a cost matrix that prices each substitution together with an estimate of
  its incident-edge costs; the induced edit cost of that full mapping is a
  valid upper bound. Under the uniform model the assignment's optimum is
  also a lower bound (BRANCH, Blumenthal & Gamper 2018), so one solve
  gives the certified :class:`GedBracket` the exact solver starts from.

:func:`bipartite_ged` returns a :class:`GedEstimate` whose ``distance``
comes from :func:`induced_edit_cost`, so the reported value is the true
cost of a concrete vertex mapping (hence always an upper bound).
"""

from __future__ import annotations

import math
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


class GedBracket:
    """Certified ``[lower, upper]`` around ``DistEd`` from one assignment.

    ``upper`` is the induced cost of the assignment's complete mapping
    (:attr:`mapping`), priced on first use: a caller that only needs to
    know that ``lower`` reaches a cutoff never pays for it. ``lower`` is
    the assignment's optimum when that is a proof (BRANCH under the
    uniform model with integral prices, rounded up since the distance is
    then an integer) and ``0.0`` otherwise. ``lower == upper`` pins the
    exact distance.
    """

    __slots__ = ("lower", "_view", "_tables", "_image", "_upper")

    def __init__(
        self, lower: float, view: PairView, tables: CostTables, image: list[int]
    ) -> None:
        self.lower = lower
        self._view = view
        self._tables = tables
        self._image = image  # g2 index per g1 vertex, n2 = deleted
        self._upper: float | None = None

    @property
    def upper(self) -> float:
        if self._upper is None:
            self._upper = _induced_cost(self._view, self._tables, self._image)
        return self._upper

    @property
    def mapping(self) -> dict[VertexId, VertexId | None]:
        targets = self._view.side2.ids + [DELETED]
        return {u: targets[w] for u, w in zip(self._view.side1.ids, self._image)}

    @property
    def settled(self) -> bool:
        return self.lower == self.upper


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
    bracket = _bipartite_estimate(view, CostTables(view, costs), costs)
    return GedEstimate(bracket.upper, bracket.mapping)


def ged_bracket(view: PairView, tables: CostTables, costs: CostModel) -> GedBracket:
    """The exact solver's starting bracket: :func:`bipartite_ged`'s
    assignment, or without SciPy/NumPy the full rewrite (delete all of
    ``g1``, insert all of ``g2``) with no lower side."""
    try:
        return _bipartite_estimate(view, tables, costs)
    except ImportError:
        n1, n2 = len(view.side1.ids), len(view.side2.ids)
        return GedBracket(0.0, view, tables, [n2] * n1)


def _branch_data(side: GraphSide) -> tuple:
    """Per vertex: its degree, and ``edge-label id -> count`` over its
    incident edges (as a dict and as its items), keyed in adjacency order
    (the order the sums below associate in). Memoised per side."""
    degrees, items, incident = [], [], []
    for row, adjacent in zip(side.rows, side.neighbors):
        counts: dict[int, int] = {}
        for j in adjacent:
            counts[row[j]] = counts.get(row[j], 0) + 1
        degrees.append(len(adjacent))
        items.append(list(counts.items()))
        incident.append(counts)
    return degrees, items, incident


def _incident_sum(prices: list[float], counts: list[tuple[int, int]]) -> float:
    """One price per incident edge, added edge by edge in adjacency order.

    Float addition is not associative, and the assignment chosen among
    equal-cost ties follows the matrix to the last bit; that choice is
    DF-GED's seed, pinned by ``tests/data/solver_golden.json``."""
    total = 0.0
    for price, (_, count) in zip(prices, counts):
        for _ in range(count):
            total += price
    return total


def _bipartite_estimate(
    view: PairView, tables: CostTables, costs: CostModel
) -> GedBracket:
    """:func:`bipartite_ged`'s assignment over a pair view, as a bracket.

    Every entry prices a vertex operation plus half the optimal
    assignment of its incident edges (:func:`~repro.graph.pairview.
    assignment_bound`, inlined), so under the uniform model the matrix
    optimum never exceeds the cost of any complete mapping: the BRANCH
    lower bound. Other models get a conservative edge estimate that
    proves nothing.
    """
    import numpy
    from scipy.optimize import linear_sum_assignment

    side1, side2 = view.side1, view.side2
    n1, n2 = len(side1.ids), len(side2.ids)
    size = n1 + n2
    if size == 0:
        return GedBracket(0.0, view, tables, [])
    proves = isinstance(costs, UniformCostModel)
    if proves:
        indel, mismatch = costs.indel_cost, costs.mismatch_cost
        proves = float(indel).is_integer() and float(mismatch).is_integer()
    else:  # conservative generic estimates for the edge term
        indel, mismatch = 1.0, 1.0
    pair = mismatch if mismatch < 2.0 * indel else 2.0 * indel
    edge, labels1, labels2 = tables.edge, side1.labels, side2.labels
    degrees1, items1, _ = side1.memo(_branch_data)
    degrees2, items2, incident2 = side2.memo(_branch_data)
    edge_to2 = view.edge_to2
    big = 1e9
    matrix = []
    for i, counts1 in enumerate(items1):
        substitution = tables.vertex_sub[labels1[i]]
        degree = degrees1[i]
        # The same labels in g2's ids, where the overlaps look them up.
        shared = [(edge_to2[label], count) for label, count in counts1]
        row = [big] * size
        for j, degree2 in enumerate(degrees2):
            overlap = 0
            if shared:
                counts2 = incident2[j]
                for label, count in shared:
                    other = counts2.get(label, 0)
                    overlap += count if count < other else other
            if degree < degree2:
                term = (degree2 - degree) * indel + (degree - overlap) * pair
            else:
                term = (degree - degree2) * indel + (degree2 - overlap) * pair
            row[j] = substitution[labels2[j]] + term / 2.0
        row[n2 + i] = tables.vertex_del[labels1[i]] + _incident_sum(
            [edge[label][NO_EDGE] for label, _ in counts1], counts1
        ) / 2.0
        matrix.append(row)
    free = [0.0] * n1
    insert = edge[NO_EDGE]
    for j, counts2 in enumerate(items2):
        row = [big] * n2 + free
        row[j] = tables.vertex_ins[labels2[j]] + _incident_sum(
            [insert[label] for label, _ in counts2], counts2
        ) / 2.0
        matrix.append(row)
    rows, cols = linear_sum_assignment(numpy.array(matrix))
    image = [n2] * n1
    optimum = 0.0
    for i, j in zip(rows.tolist(), cols.tolist()):
        optimum += matrix[i][j]  # halves and integers: an exact sum
        if i < n1 and j < n2:
            image[i] = j
    lower = float(math.ceil(optimum)) if proves else 0.0
    return GedBracket(lower, view, tables, image)
