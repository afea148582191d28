"""Maximum common connected subgraph (Definition 7).

The paper defines ``mcs(g1, g2)`` as the largest *connected* subgraph of
``g1`` that is subgraph-isomorphic to ``g2``, and measures it by its number
of edges (``|mcs(g1, g2)|`` in Definitions 9–10 counts edges).

The solver is a McGregor-style branch and bound:

* a state is an injective, label-preserving vertex mapping grown so that
  every vertex after the seed attaches to the mapped part through at least
  one *compatible* edge (a ``g1`` edge whose image is a ``g2`` edge with the
  same label) — this keeps the common subgraph connected by construction;
* the matched edge set is, for a given vertex mapping, *all* compatible
  edges between mapped vertices (always optimal for edge maximisation);
* branching picks one attachable ``g1`` vertex and tries every feasible
  image plus an "exclude this vertex" branch, which makes the enumeration
  complete;
* seed symmetry is broken by forbidding, for seed ``v0``, every ``g1``
  vertex that precedes ``v0`` in a fixed order;
* the bound ``matched + min(available g1 edges, available g2 edges)`` prunes
  hopeless branches.

Both objectives of Definition 7 are supported: ``"edges"`` (used by every
numeric example in the paper — the default) and ``"vertices"`` (the literal
reading of the definition text).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Hashable

from repro.graph.budget import Budget
from repro.graph.labeled_graph import LabeledGraph, edge_key
from repro.graph.pairview import GraphSide, PairView

VertexId = Hashable

_OBJECTIVES = ("edges", "vertices")


@dataclass
class McsResult:
    """Outcome of a maximum-common-subgraph computation.

    Attributes
    ----------
    mapping:
        Injective map from ``g1`` vertices to ``g2`` vertices realising the
        common subgraph.
    matched_edges:
        Canonical ``g1`` edge pairs included in the common subgraph.
    optimal:
        ``False`` only when a :class:`Budget` truncated the search; the
        realised subgraph is then a lower bound on the true MCS.
    size_upper:
        Certified upper bound on the true MCS edge count when truncated
        (``None`` means the search completed, i.e. the bound is ``size``).
    """

    mapping: dict[VertexId, VertexId] = field(default_factory=dict)
    matched_edges: frozenset[tuple[VertexId, VertexId]] = frozenset()
    optimal: bool = True
    size_upper: int | None = None

    @property
    def size(self) -> int:
        """Edge count — the paper's ``|mcs(g1, g2)|``."""
        return len(self.matched_edges)

    @property
    def edge_bound(self) -> int:
        """Certified upper bound on the true MCS edge count."""
        return self.size if self.size_upper is None else max(self.size, self.size_upper)

    def size_interval(self) -> tuple[int, int]:
        """Certified ``[realised, upper-bound]`` range of ``|mcs|``."""
        return (self.size, self.edge_bound)

    @property
    def order(self) -> int:
        """Vertex count of the common subgraph."""
        return len(self.mapping)

    def subgraph(self, g1: LabeledGraph) -> LabeledGraph:
        """Materialise the common subgraph as a subgraph of ``g1``."""
        if self.matched_edges:
            return g1.edge_subgraph(self.matched_edges)
        sub = LabeledGraph(name="mcs")
        for vertex in self.mapping:
            sub.add_vertex(vertex, g1.vertex_label(vertex))
        return sub


def _by_rank(side: GraphSide) -> tuple[list[int], list[int]]:
    """The vertices in ``repr`` rank order, and their neighbourhood masks
    over ranks."""
    rank = side.rank
    by_rank = sorted(range(len(rank)), key=rank.__getitem__)
    masks = [sum(1 << rank[v] for v in side.neighbors[u]) for u in by_rank]
    return by_rank, masks


def _ranked1(side: GraphSide) -> tuple:
    """McGregor's ``g1`` prep, vertices indexed by rank: rank order and
    masks, vertex labels, adjacency rows, and ``edge_bit[u][v]`` (one bit
    per edge, in ``edges()`` order)."""
    by_rank, masks = _by_rank(side)
    rank, n = side.rank, len(by_rank)
    labels = [side.labels[u] for u in by_rank]
    rows = [[side.rows[u][v] for v in by_rank] for u in by_rank]
    edge_bit = [[0] * n for _ in range(n)]
    for number, (u, v, _) in enumerate(side.edges):
        u, v = rank[u], rank[v]
        edge_bit[u][v] = edge_bit[v][u] = 1 << number
    return by_rank, masks, labels, rows, edge_bit


def _ranked2(side: GraphSide) -> tuple:
    """McGregor's ``g2`` prep, vertices indexed by rank: rank order and
    masks, ``same_label[l]`` (the vertices carrying label ``l``) and
    ``by_label[x][l]`` (the neighbours of ``x`` across an ``l``-labelled
    edge)."""
    by_rank, masks = _by_rank(side)
    rank = side.rank
    same_label = [0] * len(side.vertex_labels)
    for w, label in enumerate(side.labels):
        same_label[label] |= 1 << rank[w]
    by_label = [[0] * len(side.edge_labels) for _ in by_rank]
    for u, v, label in side.edges:
        u, v = rank[u], rank[v]
        by_label[u][label] |= 1 << v
        by_label[v][label] |= 1 << u
    return by_rank, masks, same_label, by_label


def _mcgregor(
    view: PairView,
    objective: str,
    budget: Budget | None,
    initial_best_edges: int | None,
) -> McsResult:
    """One McGregor branch-and-bound run over the pair view.

    Both graphs are re-indexed by ``repr`` rank, the order every tie is
    broken in: walking the set bits of a mask upwards then visits vertices
    in exactly that order, and the seed-symmetry rule ("vertices before
    the seed are forbidden") is the mask of the lower bits. A state is the
    image list plus a handful of masks and counters handed down the
    recursion, so the optimistic bounds — available edges on either side,
    open vertices — are adjusted per push rather than recounted per node.
    """
    side1, side2 = view.side1, view.side2
    n1, n2 = len(side1.ids), len(side2.ids)
    by_rank1, masks1, labels1, rows1, edge_bit = side1.memo(_ranked1)
    by_rank2, masks2, same_label2, by_label2 = side2.memo(_ranked2)
    # Images a g1 vertex may take: the g2 vertices carrying its label
    # (translated ids past g2's own labels match nothing).
    known = len(same_label2)
    compatible = [
        same_label2[label] if label < known else 0
        for label in map(view.vertex_to2.__getitem__, labels1)
    ]
    # by_label2[x][l]: the neighbours of g2 vertex x across an edge with
    # g1 label l.
    known = len(side2.edge_labels)
    by_label2 = [
        [row[label] if label < known else 0 for label in view.edge_to2]
        for row in by_label2
    ]
    size1, size2 = len(side1.edges), len(side2.edges)
    # A partial mapping as one int, (image + 1) in a fixed-width field
    # per g1 vertex: the memo key for visited states.
    width = (n2 + 1).bit_length()

    edges_first = objective == "edges"
    expanded = 0
    truncated = False
    # Best optimistic edge bound over states the truncation abandoned;
    # together with the incumbent it certifies ``size_upper``.
    abandoned_edges = 0
    best_edges = -1
    best_order = 0
    if initial_best_edges is not None and edges_first:
        # Refinement re-runs seed the incumbent size from the previous
        # truncated pass so pruning starts tight immediately.
        best_edges = initial_best_edges
    best_path: list[tuple[int, int]] = []
    best_matched = 0
    visited: set[int] = set()
    image = [0] * n1
    path: list[tuple[int, int]] = []
    forbidden = 0

    def record(matched: int) -> None:
        nonlocal best_edges, best_order, best_path, best_matched
        n_matched, order = matched.bit_count(), len(path)
        if edges_first:
            better = (n_matched, order) > (best_edges, best_order)
        else:
            better = (order, n_matched) > (best_order, best_edges)
        if better:
            best_edges, best_order = n_matched, order
            best_path = path[:]
            best_matched = matched

    def extend(
        mapped: int,
        used: int,
        reach: int,
        matched: int,
        available1: int,
        available2: int,
        key: int,
    ) -> None:
        # Branch over *every* feasible (vertex, image) extension: a vertex
        # with no feasible image now may gain one once more of the subgraph
        # is mapped, so single-vertex branching with a permanent exclusion
        # branch would be incomplete. Memoising visited partial mappings
        # removes the duplicate orderings this enumeration creates.
        nonlocal expanded, truncated, abandoned_edges
        edge_bound = matched.bit_count() + min(available1, available2)
        if truncated or (budget is not None and budget.exhausted(expanded)):
            # Record the state as a (realised) incumbent candidate, then
            # abandon it: its optimistic edge bound joins the certificate.
            truncated = True
            record(matched)
            if edge_bound > abandoned_edges:
                abandoned_edges = edge_bound
            return
        expanded += 1
        if key in visited:
            return
        visited.add(key)
        record(matched)
        order = len(path)
        closed = mapped | forbidden
        vertex_bound = order + min(n1 - closed.bit_count(), n2 - order)
        if edges_first:
            if (edge_bound, vertex_bound) <= (best_edges, best_order):
                return
        elif (vertex_bound, edge_bound) <= (best_order, best_edges):
            return
        # Unmapped, allowed g1 vertices adjacent to the mapped part.
        frontier = reach & ~closed
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            v = low.bit_length() - 1
            row = rows1[v]
            # Each mapped neighbour u of v offers the images that continue
            # the edge {v, u} with the same label; an image needs at least
            # one such edge, or the subgraph would fall apart.
            offers = []
            candidates = 0
            anchors = masks1[v] & mapped
            while anchors:
                bit = anchors & -anchors
                anchors ^= bit
                u = bit.bit_length() - 1
                offer = by_label2[image[u]][row[u]] & compatible[v] & ~used
                if offer:
                    offers.append((offer, edge_bit[v][u]))
                    candidates |= offer
            if not candidates:
                continue
            closing1 = (masks1[v] & closed).bit_count()
            shift = width * v
            while candidates:
                bit = candidates & -candidates
                candidates ^= bit
                w = bit.bit_length() - 1
                gained = 0
                for offer, edge in offers:
                    if offer & bit:
                        gained |= edge
                image[v] = w
                path.append((v, w))
                extend(
                    mapped | low,
                    used | bit,
                    reach | masks1[v],
                    matched | gained,
                    available1 - closing1,
                    available2 - (masks2[w] & used).bit_count(),
                    key | (w + 1) << shift,
                )
                path.pop()

    record(0)
    inside_forbidden = 0  # g1 edges with both ends before the seed
    for v0 in range(n1):
        if truncated or (budget is not None and budget.exhausted(expanded)):
            # Remaining seeds were never explored: only the global
            # bound min(|g1|, |g2|) covers them.
            truncated = True
            abandoned_edges = max(abandoned_edges, min(size1, size2))
            break
        # Seed symmetry breaking: the subgraph's first vertex in the
        # fixed order is its seed, so earlier vertices are excluded.
        forbidden = (1 << v0) - 1
        closing1 = (masks1[v0] & forbidden).bit_count()
        for w in side2.rank:  # g2 insertion order
            if compatible[v0] >> w & 1:
                image[v0] = w
                path.append((v0, w))
                extend(
                    1 << v0,
                    1 << w,
                    masks1[v0],
                    0,
                    size1 - inside_forbidden - closing1,
                    size2,
                    (w + 1) << width * v0,
                )
                path.pop()
        inside_forbidden += closing1
    ids1, ids2 = side1.ids, side2.ids
    matched_edges = frozenset(
        edge_key(ids1[u], ids1[v])
        for number, (u, v, _) in enumerate(side1.edges)
        if best_matched >> number & 1
    )
    upper = None
    if truncated:
        upper = max(best_edges, abandoned_edges, 0)
    return McsResult(
        {ids1[by_rank1[v]]: ids2[by_rank2[w]] for v, w in best_path},
        matched_edges,
        optimal=not truncated,
        size_upper=upper,
    )


def maximum_common_subgraph(
    g1: LabeledGraph,
    g2: LabeledGraph,
    objective: str = "edges",
    budget: Budget | None = None,
    initial_best_edges: int | None = None,
    *,
    _view: PairView | None = None,
) -> McsResult:
    """Compute ``mcs(g1, g2)`` (Definition 7).

    Parameters
    ----------
    objective:
        ``"edges"`` maximises the matched edge count (what every numeric
        example of the paper uses); ``"vertices"`` maximises the vertex
        count, matching the literal definition text.
    budget:
        Optional :class:`~repro.graph.budget.Budget`; on exhaustion the
        result carries ``optimal=False`` and a certified ``size_upper``.
    initial_best_edges:
        Pruning seed for refinement re-runs (``"edges"`` objective only):
        the edge count of an already-realised common subgraph. The search
        then only reports *strictly better* subgraphs — the caller must
        merge the result with the solution that realised the seed.

    ``_view`` is internal: :class:`~repro.measures.base.PairContext` hands
    over the pair view it already built for ``(g1, g2)``; bare calls build
    their own.
    """
    if objective not in _OBJECTIVES:
        raise ValueError(f"objective must be one of {_OBJECTIVES}, got {objective!r}")
    view = PairView(g1, g2) if _view is None else _view
    return _mcgregor(view, objective, budget, initial_best_edges)


def mcs_size(g1: LabeledGraph, g2: LabeledGraph) -> int:
    """``|mcs(g1, g2)|`` — the edge count of the maximum common subgraph."""
    return maximum_common_subgraph(g1, g2, objective="edges").size
