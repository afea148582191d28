"""Exact graph edit distance (Definition 8).

``DistEd(g1, g2)`` is the minimum total cost over all edit-operation
sequences transforming ``g1`` into ``g2``. The solver below is a
depth-first branch and bound over vertex assignments (DF-GED):

* ``g1`` vertices are processed in a fixed order; each is either mapped to
  an unused ``g2`` vertex (substitution) or deleted;
* edge costs are charged incrementally — when both endpoints of an edge
  have been processed its fate (substitution / deletion / insertion) is
  known;
* once every ``g1`` vertex is processed, the remaining ``g2`` vertices and
  their incident edges are inserted;
* an admissible lower bound built from vertex- and edge-label multisets
  prunes the search, and a bipartite-assignment upper bound
  (:mod:`repro.graph.ged_approx`) seeds the incumbent.

The default :class:`~repro.graph.operations.UniformCostModel` reproduces
the paper's uniform model, under which the distance is a metric and the
values of Fig. 1 / Table III are integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Hashable

from repro.graph.budget import Budget, Interval
from repro.graph.ged_approx import GedBracket, ged_bracket
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.operations import (
    CostModel,
    EdgeDeletion,
    EdgeInsertion,
    EdgeRelabeling,
    EditPath,
    UNIFORM_COSTS,
    UniformCostModel,
    VertexDeletion,
    VertexInsertion,
    VertexRelabeling,
)
from repro.graph.pairview import (
    NO_EDGE,
    CostTables,
    GraphSide,
    PairView,
    assignment_bound,
)

VertexId = Hashable

#: Mapping image used for deleted vertices.
DELETED = None


@dataclass
class GedResult:
    """Outcome of a graph-edit-distance computation.

    Attributes
    ----------
    distance:
        The (minimum, when ``optimal``) total edit cost.
    mapping:
        ``g1 vertex -> g2 vertex`` for substituted vertices and
        ``g1 vertex -> None`` for deleted ones. Unlisted ``g2`` vertices are
        insertions.
    optimal:
        ``False`` only when a ``node_limit`` or :class:`Budget` stopped the
        search early; the reported distance is then an upper bound.
    expanded_nodes:
        Number of search-tree nodes expanded (used by the ablation bench).
    lower_bound:
        Certified lower bound on the exact distance. Equals ``distance``
        when ``optimal``; on truncation it is the best admissible bound
        over the abandoned frontier (never above ``distance``).
    found:
        Whether ``mapping`` realises a complete solution of cost at most
        ``distance``. ``False`` only when a caller-supplied ``upper_bound``
        cut off every complete assignment before truncation — "truncated
        with incumbent" (``True``) vs "no solution found" (``False``).
    """

    distance: float
    mapping: dict[VertexId, VertexId | None]
    optimal: bool
    expanded_nodes: int
    lower_bound: float | None = None
    found: bool = True

    def interval(self) -> Interval:
        """Certified ``[lower, upper]`` interval around the exact distance
        (``upper`` is ``inf`` unless a mapping realises ``distance``)."""
        lower = self.lower_bound
        if lower is None:
            lower = self.distance if self.optimal else 0.0
        return Interval(
            lower=max(0.0, min(lower, self.distance)),
            upper=self.distance if self.found else math.inf,
        )


def _levels(side: GraphSide) -> tuple:
    """DF-GED's ``g1`` prep: vertices by search level (high degree first,
    ``repr`` breaking ties), their labels, the adjacency rows re-indexed by
    level, and per level the labels of the ``g1`` edges that close there."""
    order = sorted(
        range(len(side.ids)), key=lambda i: (-len(side.neighbors[i]), side.rank[i])
    )
    labels = [side.labels[u] for u in order]
    rows = [[side.rows[u][p] for p in order] for u in order]
    closing = [[label for label in row[:k] if label] for k, row in enumerate(rows)]
    return order, labels, rows, closing


def _image_rank(side: GraphSide) -> list[int]:
    """DF-GED's ``g2`` prep: the ``repr`` rank of every image, index ``n2``
    being "deleted" (the image ``None``)."""
    targets = side.ids + [DELETED]
    rank = [0] * len(targets)
    for position, j in enumerate(
        sorted(range(len(targets)), key=lambda j: repr(targets[j]))
    ):
        rank[j] = position
    return rank


def _df_ged(
    view: PairView,
    tables: CostTables,
    costs: CostModel,
    upper_bound: float,
    node_limit: int | None,
    budget: Budget | None,
    seed_mapping: dict[VertexId, VertexId | None] | None,
) -> GedResult:
    """One depth-first branch-and-bound run over the pair view.

    ``g1`` vertices are re-indexed by search level (high degree first,
    ``repr`` breaking ties) so "already processed" is simply "index below
    the current level"; ``g2`` keeps its insertion indices plus the pseudo
    index ``n2`` for "deleted", whose adjacency column is all
    :data:`NO_EDGE`. Both re-indexings are memoised on the graphs' sides.

    The admissible bound — vertex-label and open-edge-label multisets of
    the unprocessed part of both graphs — is kept as label counts plus
    their running overlap, adjusted when a vertex is pushed or popped
    instead of recounted per node. It only exists for the uniform model;
    other models search with a remaining bound of 0.
    """
    side1, side2 = view.side1, view.side2
    n1, n2 = len(side1.ids), len(side2.ids)
    order, labels1, rows1, closing1 = side1.memo(_levels)
    # Siblings are tried by (cost, repr of the image); "deleted" is the
    # image None, whose repr sorts among the vertex ids like any other.
    image_rank = side2.memo(_image_rank)
    labels2, rows2 = side2.labels, side2.rows
    masks2 = side2.masks
    vertex_sub, vertex_del = tables.vertex_sub, tables.vertex_del
    edge_cost = tables.edge
    # Inserting what is left of g2: vertices in insertion order, then
    # edges in edges() order (the float sums must associate as before).
    vertex_ins = [tables.vertex_ins[label] for label in labels2]
    edge_ins = [
        ((1 << a) | (1 << b), edge_cost[NO_EDGE][label])
        for a, b, label in side2.edges
    ]

    uniform = isinstance(costs, UniformCostModel)
    if uniform:
        indel, mismatch = costs.indel_cost, costs.mismatch_cost
        # Label counts of the unprocessed vertices / still-open edges of
        # each graph, both in g2's label ids (g1's translated through the
        # view); ``overlap`` is the size of their multiset intersection,
        # kept current through every +-1.
        vertex_to2, edge_to2 = view.vertex_to2, view.edge_to2
        counted1 = [vertex_to2[label] for label in labels1]
        closing1 = [[edge_to2[edge] for edge in edges] for edges in closing1]
        vertex_count1 = [0] * view.vertex_span
        vertex_count2 = [0] * view.vertex_span
        for label in counted1:
            vertex_count1[label] += 1
        for label in labels2:
            vertex_count2[label] += 1
        edge_count1 = [0] * view.edge_span
        edge_count2 = [0] * view.edge_span
        for _, _, label in side1.edges:
            edge_count1[edge_to2[label]] += 1
        for _, _, label in side2.edges:
            edge_count2[label] += 1
        vertex_overlap = sum(map(min, vertex_count1, vertex_count2))
        edge_overlap = sum(map(min, edge_count1, edge_count2))
    open_edges1, open_edges2 = len(side1.edges), len(side2.edges)

    image = [n2] * n1
    used = 0
    n_used = 0
    expanded = 0
    truncated = False
    # Best admissible bound over states the truncation abandoned: the
    # certified lower-bound side of the returned interval.
    abandoned_min = float("inf")
    best = upper_bound
    best_image: list[int] | None = None

    def remaining(level: int) -> float:
        if not uniform:
            return 0.0
        return assignment_bound(
            n1 - level, n2 - n_used, vertex_overlap, indel, mismatch
        ) + assignment_bound(open_edges1, open_edges2, edge_overlap, indel, mismatch)

    def extend(level: int, cost_so_far: float) -> None:
        nonlocal expanded, truncated, abandoned_min, best, best_image
        nonlocal used, n_used, vertex_overlap, edge_overlap, open_edges1, open_edges2
        if (
            truncated
            or (node_limit is not None and expanded >= node_limit)
            or (budget is not None and budget.exhausted(expanded))
        ):
            truncated = True
            bound = cost_so_far + remaining(level)
            if bound < abandoned_min:
                abandoned_min = bound
            return
        expanded += 1
        if level == n1:
            completion = 0.0
            for w in range(n2):
                if not used >> w & 1:
                    completion += vertex_ins[w]
            for ends, price in edge_ins:
                if used & ends != ends:
                    completion += price
            total = cost_so_far + completion
            if total < best:
                best = total
                best_image = image[:]
            return
        if cost_so_far + remaining(level) >= best:
            return
        label = labels1[level]
        # Edge-cost rows of this vertex's edges to each processed vertex,
        # beside that vertex's image: shared by every branch below.
        processed = [
            (edge_cost[edge], image[k]) for k, edge in enumerate(rows1[level][:level])
        ]
        sub_row = vertex_sub[label]
        branches = []
        for w in range(n2):
            if not used >> w & 1:
                cost = sub_row[labels2[w]]
                row2 = rows2[w]
                for prices, x in processed:
                    cost += prices[row2[x]]
                branches.append((cost, image_rank[w], w))
        cost = vertex_del[label]
        for prices, _ in processed:
            cost += prices[NO_EDGE]
        branches.append((cost, image_rank[n2], n2))
        branches.sort()
        if uniform:
            # Overlaps are plain ints: leaving a vertex restores them from
            # copies, and only the count lists are stepped back.
            overlaps = vertex_overlap, edge_overlap
            # The g1 side of the bound depends on the level only: advance
            # it once for all branches.
            counted = counted1[level]
            if vertex_count1[counted] <= vertex_count2[counted]:
                vertex_overlap -= 1
            vertex_count1[counted] -= 1
            for edge in closing1[level]:
                if edge_count1[edge] <= edge_count2[edge]:
                    edge_overlap -= 1
                edge_count1[edge] -= 1
            open_edges1 -= len(closing1[level])
            advanced = vertex_overlap, edge_overlap
        for step_cost, _, w in branches:
            new_cost = cost_so_far + step_cost
            if new_cost >= best:
                continue
            image[level] = w
            if w == n2:
                extend(level + 1, new_cost)
                continue
            if uniform:
                label2 = labels2[w]
                if vertex_count2[label2] <= vertex_count1[label2]:
                    vertex_overlap -= 1
                vertex_count2[label2] -= 1
                # g2 edges between w and the used vertices close.
                row2 = rows2[w]
                closing = masks2[w] & used
                closed = []
                while closing:
                    low = closing & -closing
                    closing ^= low
                    edge = row2[low.bit_length() - 1]
                    closed.append(edge)
                    if edge_count2[edge] <= edge_count1[edge]:
                        edge_overlap -= 1
                    edge_count2[edge] -= 1
                open_edges2 -= len(closed)
            used |= 1 << w
            n_used += 1
            extend(level + 1, new_cost)
            n_used -= 1
            used ^= 1 << w
            if uniform:
                vertex_count2[label2] += 1
                for edge in closed:
                    edge_count2[edge] += 1
                open_edges2 += len(closed)
                vertex_overlap, edge_overlap = advanced
        if uniform:
            vertex_count1[counted] += 1
            for edge in closing1[level]:
                edge_count1[edge] += 1
            open_edges1 += len(closing1[level])
            vertex_overlap, edge_overlap = overlaps

    extend(0, 0.0)
    if best_image is not None:
        targets = side2.ids + [DELETED]
        mapping = {
            side1.ids[u]: targets[w] for u, w in zip(order, best_image)
        }
    else:
        # Nothing beat the incumbent: hand back the seed assignment (a
        # real complete mapping) or, under a bare numeric cap, nothing.
        mapping = dict(seed_mapping or {})
    lower = min(best, abandoned_min) if truncated else best
    return GedResult(
        distance=best,
        mapping=mapping,
        optimal=not truncated,
        expanded_nodes=expanded,
        lower_bound=max(0.0, lower),
        found=best_image is not None or seed_mapping is not None,
    )


def graph_edit_distance(
    g1: LabeledGraph,
    g2: LabeledGraph,
    costs: CostModel = UNIFORM_COSTS,
    upper_bound: float | None = None,
    node_limit: int | None = None,
    budget: Budget | None = None,
    *,
    _view: PairView | None = None,
    _bracket: GedBracket | None = None,
) -> GedResult:
    """Exact ``DistEd(g1, g2)`` with the realising vertex mapping.

    Parameters
    ----------
    costs:
        Cost model; the default reproduces the paper's uniform model.
    upper_bound:
        Optional incumbent to start from. When omitted, a realised seed
        assignment (bipartite estimate, or the full-rewrite mapping
        without SciPy) starts the search for **every** cost model, so a
        truncated result always carries a finite, realised distance.
    node_limit:
        Optional cap on expanded nodes; when hit, the result carries
        ``optimal=False``, the distance is an upper bound and
        ``lower_bound`` a certified lower bound.
    budget:
        Optional :class:`~repro.graph.budget.Budget` (wall clock and/or
        expansions) checked inside the expansion loop; exhaustion
        truncates exactly like ``node_limit``.

    ``_view`` and ``_bracket`` are internal:
    :class:`~repro.measures.base.PairContext` hands over the pair view it
    already built for ``(g1, g2)`` and the bracket it already solved for
    them (whose mapping is the seed); bare calls build their own.
    """
    view = PairView(g1, g2) if _view is None else _view
    tables = CostTables(view, costs)
    seed_mapping = None
    seed = upper_bound
    if seed is None:
        # A realised seed for any cost model: the bipartite assignment's
        # mapping, or the full rewrite without SciPy/NumPy. Either way a
        # truncated run has a complete solution to hand back.
        if _bracket is None:
            _bracket = ged_bracket(view, tables, costs)
        seed_mapping = _bracket.mapping
        # Tiny epsilon: the search may re-find an equal-cost complete
        # mapping and record it (pruning uses >= best).
        seed = _bracket.upper + 1e-9
    result = _df_ged(
        view, tables, costs, float(seed), node_limit, budget, seed_mapping
    )
    if result.distance == float("inf") and result.optimal:
        # Only reachable with a caller-supplied infinite upper bound on a
        # completed search — kept as a defensive invariant.
        raise RuntimeError(  # pragma: no cover - defensive
            "edit-distance search failed to find any assignment"
        )
    return result


def ged(
    g1: LabeledGraph,
    g2: LabeledGraph,
    costs: CostModel = UNIFORM_COSTS,
) -> float:
    """Shorthand for the exact distance value only."""
    return graph_edit_distance(g1, g2, costs=costs).distance


def edit_path_from_mapping(
    g1: LabeledGraph,
    g2: LabeledGraph,
    mapping: dict[VertexId, VertexId | None],
) -> EditPath:
    """Materialise an explicit edit sequence realising ``mapping``.

    The returned path applies to ``g1`` (deletions first, then relabelings,
    then insertions) and produces a graph isomorphic to ``g2``. Vertices
    inserted from ``g2`` keep their ``g2`` identifier unless it collides
    with a surviving ``g1`` identifier, in which case a fresh tuple id
    ``("ins", id)`` is used.
    """
    path = EditPath()
    kept = {u: w for u, w in mapping.items() if w is not DELETED}
    deleted = [u for u, w in mapping.items() if w is DELETED]
    image_of = dict(kept)

    # 1. Delete g1 edges that have no counterpart edge in g2.
    for u, v, _label in list(g1.edges()):
        u_img, v_img = image_of.get(u), image_of.get(v)
        if u_img is None or v_img is None or not g2.has_edge(u_img, v_img):
            path.append(EdgeDeletion(u, v))

    # 2. Delete unmapped vertices (now isolated).
    for u in deleted:
        path.append(VertexDeletion(u))

    # 3. Relabel surviving vertices and edges.
    for u, w in kept.items():
        if g1.vertex_label(u) != g2.vertex_label(w):
            path.append(VertexRelabeling(u, g1.vertex_label(u), g2.vertex_label(w)))
    for u, v, label in g1.edges():
        u_img, v_img = image_of.get(u), image_of.get(v)
        if u_img is not None and v_img is not None and g2.has_edge(u_img, v_img):
            target_label = g2.edge_label(u_img, v_img)
            if label != target_label:
                path.append(EdgeRelabeling(u, v, label, target_label))

    # 4. Insert g2-only vertices, avoiding id collisions with survivors.
    survivors = set(kept)
    reverse = {w: u for u, w in kept.items()}
    inserted_id: dict[VertexId, VertexId] = {}
    for w in g2.vertices():
        if w in reverse:
            continue
        new_id = w if w not in survivors else ("ins", w)
        inserted_id[w] = new_id
        reverse[w] = new_id
        path.append(VertexInsertion(new_id, g2.vertex_label(w)))

    # 5. Insert g2 edges with no counterpart in g1.
    for a, b, label in g2.edges():
        u, v = reverse[a], reverse[b]
        already = (
            a not in inserted_id
            and b not in inserted_id
            and g1.has_edge(reverse_lookup_origin(a, kept), reverse_lookup_origin(b, kept))
        )
        if not already:
            path.append(EdgeInsertion(u, v, label))
    return path


def reverse_lookup_origin(
    image: VertexId, kept: dict[VertexId, VertexId]
) -> VertexId | None:
    """The ``g1`` vertex mapped onto ``image``, or ``None``."""
    for u, w in kept.items():
        if w == image:
            return u
    return None
