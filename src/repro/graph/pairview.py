"""Integer-indexed graph sides, cached per graph and paired per solve.

The exact solvers (:mod:`repro.graph.ged`, :mod:`repro.graph.mcs`) and the
bipartite seed (:mod:`repro.graph.ged_approx`) spend their time asking the
same few questions millions of times: is there an edge, what is its label,
do two labels agree, which of two vertices sorts first by ``repr``.
A :class:`GraphSide` answers them for one graph:

* vertices are ``0..n-1`` in insertion order;
* vertex and edge labels get small *side-local* ids, in first-seen order;
  edge-label id :data:`NO_EDGE` (0) means "not adjacent", which lets an
  ``n x n`` row of label ids stand in for ``has_edge`` + ``edge_label``;
* neighbourhoods also exist as int bitmasks for the set tests;
* the ``repr`` order that breaks every tie in the solvers is ranked once;
* whatever a solver derives from this graph alone (search orders,
  re-indexed rows, masks, incident-label counts) is memoised on the side
  (:meth:`GraphSide.memo`). Nothing priced by a cost model is: cost
  models are plain mutable objects, so prices are tabulated per pair.

Sides are **cached per graph**, not rebuilt per pair: a query's side is
built once for all its candidates, a database graph's once per version.
:func:`graph_side` keeps them in a process-wide LRU of
:data:`_SIDE_LIMIT` entries keyed by ``(id(graph), graph.mutation_count)``
— the :meth:`~repro.db.cache.PairCache.query_hash` idiom. Each entry holds
the graph itself, so its ``id`` cannot be reused while the entry lives
(and a hit is checked with ``is``), and every in-place mutation bumps
``mutation_count``, so an edited graph never meets its old side. The
cache is shared by every thread of the process under one lock.

Labels match across sides through one process-wide
:class:`~repro.graph.vocabulary.LabelVocabulary` — equality-keyed, the
rule every cost model applies. A :class:`PairView` pairs two sides and
translates ``g1``'s label ids into ``g2``'s id space, so per-pair work
stays O(pair) however many labels the process has seen. Label ids never
steer a search: ties are broken by ``repr`` ranks only.

The search trees are part of the wire contract (budgeted queries return
the interval a *truncated* search certified), so the sides preserve every
order the object-graph solvers relied on: vertex insertion order,
adjacency order, and :meth:`LabeledGraph.edges` order.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from collections.abc import Callable, Hashable

from repro.graph.labeled_graph import LabeledGraph
from repro.graph.operations import CostModel
from repro.graph.vocabulary import LabelVocabulary

VertexId = Hashable
Label = Hashable

#: Edge-label id of a non-adjacent vertex pair.
NO_EDGE = 0

#: The one vocabulary every solver side interns its labels into.
LABELS = LabelVocabulary()

#: LRU bound on cached graph sides (see :func:`graph_side`).
_SIDE_LIMIT = 256

_sides: "OrderedDict[tuple[int, int], tuple[LabeledGraph, GraphSide]]" = OrderedDict()
_sides_lock = threading.Lock()


def _reset_in_child() -> None:
    """A forked child starts afresh: a parent thread may have held a lock
    at the fork. The vocabulary goes too, and with it every cached side,
    whose label ids came from it."""
    global LABELS, _sides_lock
    LABELS = LabelVocabulary()
    _sides_lock = threading.Lock()
    _sides.clear()


if hasattr(os, "register_at_fork"):  # POSIX only
    os.register_at_fork(after_in_child=_reset_in_child)


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


def _slot(label: Label, slots: dict[int, int], labels: list[Label]) -> int:
    """The side-local id of ``label``, allocating the next one if new."""
    key = LABELS.id(label)
    slot = slots.get(key)
    if slot is None:
        slot = slots[key] = len(labels)
        labels.append(label)
    return slot


class GraphSide:
    """One graph in integer form, shared by every pair it takes part in.

    Attributes
    ----------
    ids:
        ``index -> vertex id``, insertion order.
    labels:
        Side-local vertex-label id per vertex.
    rows:
        ``rows[i][j]`` is the side-local label id of edge ``{i, j}``,
        :data:`NO_EDGE` when the vertices are not adjacent. Each row has
        one more column, ``j == n``, which is always :data:`NO_EDGE`:
        DF-GED's pseudo-vertex "deleted" is adjacent to nothing.
    neighbors:
        Neighbour indices per vertex, adjacency (edge insertion) order.
    masks:
        The same neighbourhoods as bitmasks (bit ``j`` set = adjacent).
    edges:
        ``(i, j, label id)`` in :meth:`LabeledGraph.edges` order.
    rank:
        Position of each vertex in the stable sort of ``ids`` by ``repr``.
    vertex_labels, edge_labels:
        ``side-local id -> label`` (this graph's own label objects; slot
        :data:`NO_EDGE` of ``edge_labels`` is a placeholder).
    vertex_keys, edge_keys:
        ``side-local id -> vocabulary id``: how labels match across sides
        (``edge_keys`` skips the :data:`NO_EDGE` slot).
    """

    __slots__ = (
        "ids", "labels", "rows", "neighbors", "masks", "edges", "rank",
        "vertex_labels", "edge_labels", "vertex_keys", "edge_keys", "_memo",
    )

    def __init__(self, graph: LabeledGraph) -> None:
        ids = graph.vertices()
        index = {vertex: i for i, vertex in enumerate(ids)}
        n = len(ids)
        self.ids = ids
        self.vertex_labels: list[Label] = []
        vertex_slots: dict[int, int] = {}
        self.labels = [
            _slot(graph.vertex_label(v), vertex_slots, self.vertex_labels) for v in ids
        ]
        self.edge_labels: list[Label] = [None]
        edge_slots: dict[int, int] = {}
        self.rows = rows = [[NO_EDGE] * (n + 1) for _ in range(n)]
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
                    label = _slot(
                        graph.edge_label(vertex, ids[j]), edge_slots, self.edge_labels
                    )
                    row[j] = rows[j][i] = label
                    edges.append((i, j, label))
                mask |= 1 << j
            neighbors.append(adjacent)
            masks.append(mask)
        rank = [0] * n
        for position, i in enumerate(sorted(range(n), key=lambda i: repr(ids[i]))):
            rank[i] = position
        self.rank = rank
        self.vertex_keys = list(vertex_slots)
        self.edge_keys = list(edge_slots)
        self._memo: dict[Callable, object] = {}

    def memo(self, build: Callable[["GraphSide"], object]):
        """``build(self)``, computed on first request and kept with the side.

        For what a solver derives from this graph alone — never from a
        cost model or the other graph of a pair. Callers treat the value
        as read-only: threads share it.
        """
        value = self._memo.get(build)
        if value is None:
            value = self._memo[build] = build(self)
        return value


def graph_side(graph: LabeledGraph) -> GraphSide:
    """The cached :class:`GraphSide` of ``graph``'s current version."""
    key = (id(graph), graph.mutation_count)
    with _sides_lock:
        entry = _sides.get(key)
        if entry is not None and entry[0] is graph:
            _sides.move_to_end(key)
            return entry[1]
    side = GraphSide(graph)
    with _sides_lock:
        _sides[key] = (graph, side)
        _sides.move_to_end(key)
        while len(_sides) > _SIDE_LIMIT:
            _sides.popitem(last=False)
    return side


def _into(keys1: list[int], keys2: list[int], first: int) -> tuple[list[int], int]:
    """Side-1 label ids in side 2's id space, and that space's size.

    ``keys1`` / ``keys2`` are the sides' vocabulary ids of their local
    ids ``first, first + 1, ...``. A label side 2 also carries takes its
    side-2 id; any other gets a fresh id past side 2's own.
    """
    slots2 = {key: slot for slot, key in enumerate(keys2, first)}
    span = first + len(keys2)
    out = []
    for key in keys1:
        slot = slots2.get(key)
        if slot is None:
            slot = span
            span += 1
        out.append(slot)
    return out, span


class PairView:
    """The cached sides of an ordered pair, with their labels matched.

    ``vertex_to2[a]`` is ``g1`` vertex-label id ``a`` in ``g2``'s id
    space: the id of the equal ``g2`` label, or a fresh id past ``g2``'s
    own when ``g2`` has none. ``vertex_span`` is the size of that space,
    at most the pair's distinct labels. ``edge_to2`` / ``edge_span`` do
    the same for edge labels (with ``edge_to2[NO_EDGE] == NO_EDGE``).
    Structures indexed by label in both graphs at once — multiset counts,
    label masks — are sized by the span, never by the vocabulary.
    """

    __slots__ = ("side1", "side2", "vertex_to2", "vertex_span", "edge_to2", "edge_span")

    def __init__(self, g1: LabeledGraph, g2: LabeledGraph) -> None:
        self.side1 = side1 = graph_side(g1)
        self.side2 = side2 = graph_side(g2)
        self.vertex_to2, self.vertex_span = _into(
            side1.vertex_keys, side2.vertex_keys, 0
        )
        edge_to2, self.edge_span = _into(
            side1.edge_keys, side2.edge_keys, NO_EDGE + 1
        )
        self.edge_to2 = [NO_EDGE] + edge_to2


class CostTables:
    """A cost model tabulated over one pair's side-local label ids.

    ``vertex_sub[a][b]`` / ``edge[a][b]`` price turning ``g1`` label ``a``
    into ``g2`` label ``b``, each id local to its own side. The edge table
    folds all three edge operations into one lookup through
    :data:`NO_EDGE`: ``edge[a][0]`` is the deletion of ``a``, ``edge[0][b]``
    the insertion of ``b`` and ``edge[0][0]`` is ``0.0`` (adding it is
    exact, so callers need no branch).

    Only combinations that occur in the pair are priced, each with the
    label objects of the graph it comes from: the tables are as large as
    the pair's label sets, and the model is never asked about a label the
    pair does not carry. Each pair context builds its tables once and no
    cache keeps them, so a cost model mutated between queries is repriced.
    """

    __slots__ = ("vertex_sub", "vertex_del", "vertex_ins", "edge")

    def __init__(self, view: PairView, costs: CostModel) -> None:
        vertex1, vertex2 = view.side1.vertex_labels, view.side2.vertex_labels
        self.vertex_sub = [
            [costs.vertex_substitution(a, b) for b in vertex2] for a in vertex1
        ]
        self.vertex_del = [costs.vertex_deletion(a) for a in vertex1]
        self.vertex_ins = [costs.vertex_insertion(b) for b in vertex2]
        edge1, edge2 = view.side1.edge_labels[1:], view.side2.edge_labels[1:]
        self.edge = [[0.0] + [costs.edge_insertion(b) for b in edge2]]
        self.edge += [
            [costs.edge_deletion(a)] + [costs.edge_substitution(a, b) for b in edge2]
            for a in edge1
        ]
