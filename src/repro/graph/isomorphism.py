"""Label-preserving graph isomorphism (Definition 4) and its matcher.

A VF2-style backtracking matcher specialised for
:class:`~repro.graph.labeled_graph.LabeledGraph`:

* :func:`find_isomorphism` / :func:`is_isomorphic` — Definition 4, a
  label-preserving bijection (both vertex and edge labels must match, and
  the edge sets must correspond exactly).
  :meth:`~repro.db.database.GraphDatabase.find_isomorphic` settles
  canonical-hash collisions with them.
* :func:`iter_subgraph_isomorphisms` — lazy enumeration of the
  embeddings of Definition 5: label-preserving *injections* from the
  pattern into the target under which every pattern edge appears in the
  target with the same label. This is the non-induced (monomorphism)
  flavor the paper relies on: the target may have extra edges between
  matched vertices.

The matcher orders pattern vertices connectivity-first (each vertex after
the first is adjacent to an earlier one whenever the pattern is connected),
which keeps candidate sets small, and prunes with vertex labels and degrees.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterator

from repro.graph.labeled_graph import LabeledGraph

VertexId = Hashable


def _matching_order(pattern: LabeledGraph) -> list[VertexId]:
    """Order pattern vertices so each one touches the already-ordered prefix.

    Within the frontier, higher-degree vertices come first (fail-fast). Each
    connected component is started from its highest-degree vertex.
    """
    remaining = set(pattern.vertices())
    order: list[VertexId] = []
    frontier: set[VertexId] = set()
    while remaining:
        if frontier:
            nxt = max(frontier, key=lambda v: (pattern.degree(v), repr(v)))
        else:
            nxt = max(remaining, key=lambda v: (pattern.degree(v), repr(v)))
        order.append(nxt)
        remaining.discard(nxt)
        frontier.discard(nxt)
        frontier.update(n for n in pattern.neighbors(nxt) if n in remaining)
    return order


def _candidate_targets(
    pattern: LabeledGraph,
    target: LabeledGraph,
    pattern_vertex: VertexId,
    mapping: dict[VertexId, VertexId],
    used: set[VertexId],
    induced: bool,
) -> Iterator[VertexId]:
    """Yield feasible target vertices for ``pattern_vertex`` given ``mapping``."""
    wanted_label = pattern.vertex_label(pattern_vertex)
    mapped_neighbors = [n for n in pattern.neighbors(pattern_vertex) if n in mapping]
    if mapped_neighbors:
        # Candidates must be adjacent to the image of some mapped neighbor;
        # start from the smallest image neighborhood.
        anchor = min(mapped_neighbors, key=lambda n: target.degree(mapping[n]))
        pool = target.neighbors(mapping[anchor])
    else:
        pool = target.vertices()
    for candidate in pool:
        if candidate in used:
            continue
        if target.vertex_label(candidate) != wanted_label:
            continue
        if target.degree(candidate) < pattern.degree(pattern_vertex):
            continue
        feasible = True
        for neighbor in pattern.neighbors(pattern_vertex):
            if neighbor not in mapping:
                continue
            image = mapping[neighbor]
            if not target.has_edge(candidate, image):
                feasible = False
                break
            if target.edge_label(candidate, image) != pattern.edge_label(
                pattern_vertex, neighbor
            ):
                feasible = False
                break
        if feasible and induced:
            # Induced matching additionally forbids target edges between
            # images of non-adjacent pattern vertices.
            for p_vertex, t_vertex in mapping.items():
                if p_vertex in pattern.neighbors(pattern_vertex):
                    continue
                if target.has_edge(candidate, t_vertex):
                    feasible = False
                    break
        if feasible:
            yield candidate


def iter_subgraph_isomorphisms(
    pattern: LabeledGraph,
    target: LabeledGraph,
    induced: bool = False,
) -> Iterator[dict[VertexId, VertexId]]:
    """Enumerate label-preserving embeddings of ``pattern`` into ``target``.

    Each yielded mapping is a dict ``pattern vertex -> target vertex``. With
    ``induced=True`` the embedding must also *reflect* non-edges (used by the
    exact-isomorphism check).
    """
    if pattern.order > target.order or pattern.size > target.size:
        return
    order = _matching_order(pattern)
    mapping: dict[VertexId, VertexId] = {}
    used: set[VertexId] = set()

    def extend(index: int) -> Iterator[dict[VertexId, VertexId]]:
        if index == len(order):
            yield dict(mapping)
            return
        pattern_vertex = order[index]
        for candidate in _candidate_targets(
            pattern, target, pattern_vertex, mapping, used, induced
        ):
            mapping[pattern_vertex] = candidate
            used.add(candidate)
            yield from extend(index + 1)
            del mapping[pattern_vertex]
            used.discard(candidate)

    yield from extend(0)


def find_isomorphism(
    g1: LabeledGraph,
    g2: LabeledGraph,
) -> dict[VertexId, VertexId] | None:
    """A label-preserving bijection ``V(g1) -> V(g2)``, or ``None`` (Def. 4)."""
    if g1.order != g2.order or g1.size != g2.size:
        return None
    if g1.vertex_label_multiset() != g2.vertex_label_multiset():
        return None
    if g1.edge_label_multiset() != g2.edge_label_multiset():
        return None
    # With equal orders and sizes, an induced embedding is a bijection whose
    # inverse also preserves edges: exactly Definition 4.
    for mapping in iter_subgraph_isomorphisms(g1, g2, induced=True):
        return mapping
    return None


def is_isomorphic(g1: LabeledGraph, g2: LabeledGraph) -> bool:
    """Whether ``g1 ≈ g2`` (Definition 4)."""
    return find_isomorphism(g1, g2) is not None
