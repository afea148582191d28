"""Maximum common connected subgraph via the modular edge-product graph.

An independent second implementation of Definition 7, the reference the
tests cross-check the McGregor-style solver (:mod:`repro.graph.mcs`)
against. :func:`verify_embedding` checks the mappings both solvers return.

Construction (classic maximum-common-edge-subgraph reduction):

* a product vertex is an *oriented* compatible edge pair
  ``((u, v), (x, y))`` — edge ``{u, v}`` of ``g1`` mapped onto edge
  ``{x, y}`` of ``g2`` with ``u → x``, ``v → y`` and all labels matching
  (both orientations appear when labels allow);
* two product vertices are adjacent iff their partial vertex maps are
  consistent (agree on shared vertices, injective, distinct edges on both
  sides);
* cliques then correspond exactly to common edge subgraphs with one
  consistent injective label-preserving vertex mapping.

Definition 7 demands a *connected* common subgraph, and connectivity is
not closed under clique containment in general — but any connected common
subgraph sits inside some maximal clique, and within a clique every edge
subset is again a valid common subgraph. So scanning each maximal clique
and taking its largest connected component of ``g1`` edges is exact.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable, Mapping

from repro.graph.budget import Budget
from repro.graph.labeled_graph import LabeledGraph, edge_key
from repro.graph.mcs import McsResult

VertexId = Hashable

#: A product vertex: ((g1 u, g1 v), (g2 x, g2 y)) with u->x, v->y.
_ProductVertex = tuple[tuple[VertexId, VertexId], tuple[VertexId, VertexId]]


def _oriented_pairs(g1: LabeledGraph, g2: LabeledGraph) -> list[_ProductVertex]:
    pairs: list[_ProductVertex] = []
    for u, v, label1 in g1.edges():
        for x, y, label2 in g2.edges():
            if label1 != label2:
                continue
            if (
                g1.vertex_label(u) == g2.vertex_label(x)
                and g1.vertex_label(v) == g2.vertex_label(y)
            ):
                pairs.append(((u, v), (x, y)))
            if (
                g1.vertex_label(u) == g2.vertex_label(y)
                and g1.vertex_label(v) == g2.vertex_label(x)
            ):
                pairs.append(((u, v), (y, x)))
    return pairs


def _compatible(p: _ProductVertex, q: _ProductVertex) -> bool:
    (pu, pv), (px, py) = p
    (qu, qv), (qx, qy) = q
    if edge_key(pu, pv) == edge_key(qu, qv):
        return False  # same g1 edge
    if edge_key(px, py) == edge_key(qx, qy):
        return False  # same g2 edge
    map_p = {pu: px, pv: py}
    map_q = {qu: qx, qv: qy}
    # consistency: shared g1 vertices agree; injectivity both ways
    for vertex, image in map_q.items():
        if vertex in map_p and map_p[vertex] != image:
            return False
    images_p = {px, py}
    for vertex, image in map_q.items():
        if vertex not in map_p and image in images_p:
            return False  # two g1 vertices onto one g2 vertex
    return True


def _largest_connected_subset(
    edges: list[tuple[VertexId, VertexId]],
) -> list[tuple[VertexId, VertexId]]:
    """Largest connected component (by edge count) of an edge set."""
    if not edges:
        return []
    adjacency: dict[VertexId, list[int]] = {}
    for index, (u, v) in enumerate(edges):
        adjacency.setdefault(u, []).append(index)
        adjacency.setdefault(v, []).append(index)
    unseen = set(range(len(edges)))
    best: list[int] = []
    while unseen:
        start = next(iter(unseen))
        component = {start}
        queue = deque([start])
        unseen.discard(start)
        while queue:
            index = queue.popleft()
            u, v = edges[index]
            for vertex in (u, v):
                for neighbor in adjacency[vertex]:
                    if neighbor in unseen:
                        unseen.discard(neighbor)
                        component.add(neighbor)
                        queue.append(neighbor)
        if len(component) > len(best):
            best = list(component)
    return [edges[index] for index in sorted(best)]


def maximum_common_subgraph_clique(
    g1: LabeledGraph,
    g2: LabeledGraph,
    budget: Budget | None = None,
) -> McsResult:
    """Exact ``mcs(g1, g2)`` via maximal cliques of the edge-product graph.

    Requires ``networkx`` (clique enumeration). Exponential in the worst
    case like every exact MCS; intended for the small labeled graphs of
    this literature and as an independent oracle for the primary solver.
    With a :class:`Budget` the clique enumeration stops on exhaustion and
    the result reports ``optimal=False`` with the trivial certified
    ``size_upper`` of ``min(|g1|, |g2|)``.
    """
    import networkx

    product_vertices = _oriented_pairs(g1, g2)
    product = networkx.Graph()
    product.add_nodes_from(range(len(product_vertices)))
    for i in range(len(product_vertices)):
        for j in range(i + 1, len(product_vertices)):
            if _compatible(product_vertices[i], product_vertices[j]):
                product.add_edge(i, j)

    best_edges: list[tuple[VertexId, VertexId]] = []
    best_mapping: dict[VertexId, VertexId] = {}
    truncated = False
    for index, clique in enumerate(
        networkx.find_cliques(product) if product_vertices else []
    ):
        if budget is not None and budget.exhausted(index):
            truncated = True
            break
        clique_pairs = [product_vertices[i] for i in clique]
        g1_edges = [edge_key(u, v) for (u, v), _ in clique_pairs]
        connected = _largest_connected_subset(g1_edges)
        if len(connected) <= len(best_edges):
            continue
        chosen = set(connected)
        mapping: dict[VertexId, VertexId] = {}
        for (u, v), (x, y) in clique_pairs:
            if edge_key(u, v) in chosen:
                mapping[u] = x
                mapping[v] = y
        best_edges = connected
        best_mapping = mapping
    return McsResult(
        mapping=best_mapping,
        matched_edges=frozenset(best_edges),
        optimal=not truncated,
        size_upper=min(g1.size, g2.size) if truncated else None,
    )


def verify_embedding(
    pattern: LabeledGraph,
    target: LabeledGraph,
    mapping: Mapping[VertexId, VertexId],
) -> bool:
    """Check that ``mapping`` is a valid label-preserving embedding.

    The tests' independent check of every mapping a solver returns.
    """
    if len(mapping) != pattern.order:
        return False
    if len(set(mapping.values())) != len(mapping):
        return False
    for vertex, image in mapping.items():
        if not target.has_vertex(image):
            return False
        if pattern.vertex_label(vertex) != target.vertex_label(image):
            return False
    for u, v, label in pattern.edges():
        if not target.has_edge(mapping[u], mapping[v]):
            return False
        if target.edge_label(mapping[u], mapping[v]) != label:
            return False
    return True
