"""Integer-indexed view of one ordered graph pair, shared by the solvers.

The exact solvers (:mod:`repro.graph.ged`, :mod:`repro.graph.mcs`) and the
bipartite seed (:mod:`repro.graph.ged_approx`) spend their time asking the
same few questions millions of times: is there an edge, what is its label,
do two labels agree, which of two vertices sorts first by ``repr``.
A :class:`PairView` answers them once per pair:

* vertices are ``0..n-1`` in insertion order;
* vertex and edge labels are interned *per pair* (both graphs share one
  id space, so "same label" is an ``int`` comparison); edge-label id
  :data:`NO_EDGE` (0) means "not adjacent", which lets an ``n x n`` row of
  label ids stand in for ``has_edge`` + ``edge_label``;
* neighbourhoods also exist as int bitmasks for the set tests;
* the ``repr`` order that breaks every tie in the solvers is ranked once.

A view is a snapshot: it is built on demand, lives as long as one
:class:`~repro.measures.base.PairContext` (or one bare solver call) and is
never attached to a graph, so there is nothing to invalidate.

The search trees are part of the wire contract (budgeted queries return
the interval a *truncated* search certified), so the view preserves every
order the object-graph solvers relied on: vertex insertion order,
adjacency order, and :meth:`LabeledGraph.edges` order.
"""

from __future__ import annotations

from collections.abc import Hashable

from repro.graph.labeled_graph import LabeledGraph
from repro.graph.operations import CostModel

VertexId = Hashable
Label = Hashable

#: Edge-label id of a non-adjacent vertex pair.
NO_EDGE = 0


def assignment_bound(
    n1: int, n2: int, overlap: int, indel: float, mismatch: float
) -> float:
    """Admissible assignment bound between two label multisets.

    Of ``n1`` and ``n2`` labels, ``overlap`` pair up for free; each
    remaining pair costs at least ``min(mismatch, 2 * indel)`` and the
    size difference costs ``indel`` each.
    """
    pair = mismatch if mismatch < 2.0 * indel else 2.0 * indel
    if n1 < n2:
        return (n2 - n1) * indel + (n1 - overlap) * pair
    return (n1 - n2) * indel + (n2 - overlap) * pair


class GraphSide:
    """One graph of the pair in integer form.

    Attributes
    ----------
    ids:
        ``index -> vertex id``, insertion order.
    index:
        ``vertex id -> index``.
    labels:
        Vertex-label id per vertex.
    rows:
        ``rows[i][j]`` is the label id of edge ``{i, j}``, :data:`NO_EDGE`
        when the vertices are not adjacent.
    neighbors:
        Neighbour indices per vertex, adjacency (edge insertion) order.
    masks:
        The same neighbourhoods as bitmasks (bit ``j`` set = adjacent).
    edges:
        ``(i, j, label id)`` in :meth:`LabeledGraph.edges` order.
    rank:
        Position of each vertex in the stable sort of ``ids`` by ``repr``.
    """

    __slots__ = ("ids", "index", "labels", "rows", "neighbors", "masks", "edges", "rank")

    def __init__(
        self,
        graph: LabeledGraph,
        vertex_label_ids: dict[Label, int],
        edge_label_ids: dict[Label, int],
    ) -> None:
        ids = graph.vertices()
        index = {vertex: i for i, vertex in enumerate(ids)}
        n = len(ids)
        self.ids = ids
        self.index = index
        self.labels = [
            vertex_label_ids.setdefault(graph.vertex_label(v), len(vertex_label_ids))
            for v in ids
        ]
        self.rows = rows = [[NO_EDGE] * n for _ in range(n)]
        self.neighbors = neighbors = []
        self.masks = masks = []
        self.edges = edges = []
        for i, vertex in enumerate(ids):
            row = rows[i]
            adjacent = [index[v] for v in graph.neighbors(vertex)]
            mask = 0
            for j in adjacent:
                label = row[j]
                if label == NO_EDGE:
                    # First endpoint in vertex order: where edges() yields it.
                    label = graph.edge_label(vertex, ids[j])
                    label = edge_label_ids.setdefault(label, len(edge_label_ids))
                    row[j] = rows[j][i] = label
                    edges.append((i, j, label))
                mask |= 1 << j
            neighbors.append(adjacent)
            masks.append(mask)
        rank = [0] * n
        for position, i in enumerate(sorted(range(n), key=lambda i: repr(ids[i]))):
            rank[i] = position
        self.rank = rank


class PairView:
    """Both graphs of an ordered pair over one interned label space."""

    __slots__ = ("side1", "side2", "vertex_labels", "edge_labels")

    def __init__(self, g1: LabeledGraph, g2: LabeledGraph) -> None:
        vertex_label_ids: dict[Label, int] = {}
        # Slot 0 is NO_EDGE; no real label can collide with a fresh object.
        edge_label_ids: dict[Label, int] = {object(): NO_EDGE}
        self.side1 = GraphSide(g1, vertex_label_ids, edge_label_ids)
        self.side2 = GraphSide(g2, vertex_label_ids, edge_label_ids)
        #: ``label id -> label`` (the first-seen representative).
        self.vertex_labels = list(vertex_label_ids)
        self.edge_labels = list(edge_label_ids)


class CostTables:
    """A cost model tabulated over one pair's label ids.

    ``vertex_sub[a][b]`` / ``edge[a][b]`` price turning a ``g1`` label
    ``a`` into a ``g2`` label ``b``. The edge table folds all three edge
    operations into one lookup through :data:`NO_EDGE`: ``edge[a][0]`` is
    the deletion of ``a``, ``edge[0][b]`` the insertion of ``b`` and
    ``edge[0][0]`` is ``0.0`` (adding it is exact, so callers need no
    branch). Only combinations that occur in the pair are priced — the
    model is never asked about a label it would not have seen before.
    """

    __slots__ = ("vertex_sub", "vertex_del", "vertex_ins", "edge")

    def __init__(self, view: PairView, costs: CostModel) -> None:
        vertex, edge = view.vertex_labels, view.edge_labels
        side1, side2 = view.side1, view.side2
        self.vertex_sub = [[0.0] * len(vertex) for _ in vertex]
        self.vertex_del = [0.0] * len(vertex)
        self.vertex_ins = [0.0] * len(vertex)
        from1, to2 = set(side1.labels), set(side2.labels)
        for a in from1:
            self.vertex_del[a] = costs.vertex_deletion(vertex[a])
            for b in to2:
                self.vertex_sub[a][b] = costs.vertex_substitution(vertex[a], vertex[b])
        for b in to2:
            self.vertex_ins[b] = costs.vertex_insertion(vertex[b])
        self.edge = [[0.0] * len(edge) for _ in edge]
        from1 = {label for _, _, label in side1.edges}
        to2 = {label for _, _, label in side2.edges}
        for a in from1:
            self.edge[a][NO_EDGE] = costs.edge_deletion(edge[a])
            for b in to2:
                self.edge[a][b] = costs.edge_substitution(edge[a], edge[b])
        for b in to2:
            self.edge[NO_EDGE][b] = costs.edge_insertion(edge[b])
