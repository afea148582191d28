"""Undirected labeled graphs (Definition 3 of the paper).

A graph is a 4-tuple ``(V, E, L, l)``: a set of vertices, a set of edges, a
set of labels, and a labeling function mapping every vertex and edge to a
label. Following the paper:

* graphs are **undirected** and **simple** (no self loops, no parallel
  edges);
* different vertices may carry the same label;
* the **size** of a graph is its number of edges, ``|g| = |E(g)|``.

Vertex identifiers can be any hashable value; labels can be any hashable
value (strings in all the paper's examples). The class keeps an adjacency
dictionary ``vertex -> {neighbor: edge_label}`` plus a vertex-label
dictionary, which makes every local operation O(1) expected time.
"""

from __future__ import annotations

from collections import Counter, deque
from collections.abc import Hashable, Iterable, Iterator, Mapping
from itertools import chain

from repro.errors import (
    DuplicateEdgeError,
    DuplicateVertexError,
    EdgeNotFoundError,
    SelfLoopError,
    VertexNotFoundError,
)

#: Label used for edges when the caller does not provide one. The paper's
#: Fig. 3 graphs only label vertices; a uniform edge label reproduces that.
DEFAULT_EDGE_LABEL = "-"

VertexId = Hashable
Label = Hashable


def _sort_key(value: Hashable) -> tuple[str, str]:
    """Deterministic ordering key for arbitrary hashable ids.

    Sorting by ``(type name, repr)`` keeps mixed id types (ints and strings)
    comparable, so edge iteration order is stable across runs.
    """
    return (type(value).__name__, repr(value))


def edge_key(u: VertexId, v: VertexId) -> tuple[VertexId, VertexId]:
    """Canonical (order-independent) key for the undirected edge ``{u, v}``."""
    if _sort_key(u) <= _sort_key(v):
        return (u, v)
    return (v, u)


class LabeledGraph:
    """A simple undirected graph with labeled vertices and labeled edges.

    Parameters
    ----------
    name:
        Optional human-readable name (used by datasets and reports).

    Examples
    --------
    >>> g = LabeledGraph(name="toy")
    >>> g.add_vertex(1, "A")
    >>> g.add_vertex(2, "B")
    >>> g.add_edge(1, 2, "x")
    >>> g.size
    1
    >>> g.vertex_label(1)
    'A'
    """

    __slots__ = (
        "name",
        "_vertex_labels",
        "_adjacency",
        "_edge_count",
        "_mutations",
        "__weakref__",
    )

    def __init__(self, name: str | None = None) -> None:
        self.name = name
        self._vertex_labels: dict[VertexId, Label] = {}
        self._adjacency: dict[VertexId, dict[VertexId, Label]] = {}
        self._edge_count = 0
        self._mutations = 0

    @property
    def mutation_count(self) -> int:
        """Counter bumped by every structural/label mutation.

        Lets caches memoize derived values (e.g. the canonical hash) per
        ``(object, mutation_count)`` soundly: in-place mutation changes
        the key, so a stale value can never be served for the same
        object — see :meth:`repro.db.cache.PairCache.query_hash`.
        """
        return self._mutations

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple],
        vertex_labels: Mapping[VertexId, Label] | None = None,
        name: str | None = None,
    ) -> "LabeledGraph":
        """Build a graph from an edge list.

        Each edge is either ``(u, v)`` (labeled :data:`DEFAULT_EDGE_LABEL`) or
        ``(u, v, label)``. Vertices referenced by edges are created on the
        fly; their labels come from ``vertex_labels`` and default to the
        vertex id itself, which is convenient for graphs whose vertices are
        identified by their label (as in the paper's figures).
        """
        graph = cls(name=name)
        labels = dict(vertex_labels) if vertex_labels is not None else {}
        for vertex, label in labels.items():
            graph.add_vertex(vertex, label)
        for edge in edges:
            if len(edge) == 2:
                u, v = edge
                label = DEFAULT_EDGE_LABEL
            elif len(edge) == 3:
                u, v, label = edge
            else:
                raise ValueError(f"edge tuples must have 2 or 3 items, got {edge!r}")
            for endpoint in (u, v):
                if not graph.has_vertex(endpoint):
                    graph.add_vertex(endpoint, labels.get(endpoint, endpoint))
            graph.add_edge(u, v, label)
        return graph

    def copy(self, name: str | None = None) -> "LabeledGraph":
        """Return an independent deep copy of this graph."""
        clone = LabeledGraph(name=self.name if name is None else name)
        clone._vertex_labels = dict(self._vertex_labels)
        clone._adjacency = {v: dict(nbrs) for v, nbrs in self._adjacency.items()}
        clone._edge_count = self._edge_count
        return clone

    # ------------------------------------------------------------------
    # Vertex operations
    # ------------------------------------------------------------------
    def add_vertex(self, vertex: VertexId, label: Label) -> None:
        """Insert an isolated vertex carrying ``label``."""
        if vertex in self._vertex_labels:
            raise DuplicateVertexError(vertex)
        self._vertex_labels[vertex] = label
        self._adjacency[vertex] = {}
        self._mutations += 1

    def remove_vertex(self, vertex: VertexId) -> None:
        """Remove ``vertex`` together with all its incident edges."""
        if vertex not in self._vertex_labels:
            raise VertexNotFoundError(vertex)
        neighbors = list(self._adjacency[vertex])
        for neighbor in neighbors:
            del self._adjacency[neighbor][vertex]
        self._edge_count -= len(neighbors)
        del self._adjacency[vertex]
        del self._vertex_labels[vertex]
        self._mutations += 1

    def relabel_vertex(self, vertex: VertexId, label: Label) -> None:
        """Replace the label of ``vertex``."""
        if vertex not in self._vertex_labels:
            raise VertexNotFoundError(vertex)
        self._vertex_labels[vertex] = label
        self._mutations += 1

    def has_vertex(self, vertex: VertexId) -> bool:
        """Whether ``vertex`` is in the graph."""
        return vertex in self._vertex_labels

    def vertex_label(self, vertex: VertexId) -> Label:
        """The label carried by ``vertex``."""
        try:
            return self._vertex_labels[vertex]
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    def vertices(self) -> list[VertexId]:
        """All vertex ids, in insertion order."""
        return list(self._vertex_labels)

    def degree(self, vertex: VertexId) -> int:
        """Number of edges incident to ``vertex``."""
        if vertex not in self._adjacency:
            raise VertexNotFoundError(vertex)
        return len(self._adjacency[vertex])

    def neighbors(self, vertex: VertexId) -> list[VertexId]:
        """Vertices adjacent to ``vertex``."""
        if vertex not in self._adjacency:
            raise VertexNotFoundError(vertex)
        return list(self._adjacency[vertex])

    # ------------------------------------------------------------------
    # Edge operations
    # ------------------------------------------------------------------
    def add_edge(self, u: VertexId, v: VertexId, label: Label = DEFAULT_EDGE_LABEL) -> None:
        """Insert the undirected edge ``{u, v}`` carrying ``label``."""
        if u == v:
            raise SelfLoopError(u)
        for endpoint in (u, v):
            if endpoint not in self._vertex_labels:
                raise VertexNotFoundError(endpoint)
        if v in self._adjacency[u]:
            raise DuplicateEdgeError(u, v)
        self._adjacency[u][v] = label
        self._adjacency[v][u] = label
        self._edge_count += 1
        self._mutations += 1

    def remove_edge(self, u: VertexId, v: VertexId) -> None:
        """Remove the undirected edge ``{u, v}``."""
        if u not in self._adjacency or v not in self._adjacency[u]:
            raise EdgeNotFoundError(u, v)
        del self._adjacency[u][v]
        del self._adjacency[v][u]
        self._edge_count -= 1
        self._mutations += 1

    def relabel_edge(self, u: VertexId, v: VertexId, label: Label) -> None:
        """Replace the label of edge ``{u, v}``."""
        if u not in self._adjacency or v not in self._adjacency[u]:
            raise EdgeNotFoundError(u, v)
        self._adjacency[u][v] = label
        self._adjacency[v][u] = label
        self._mutations += 1

    def has_edge(self, u: VertexId, v: VertexId) -> bool:
        """Whether the undirected edge ``{u, v}`` is in the graph."""
        return u in self._adjacency and v in self._adjacency[u]

    def edge_label(self, u: VertexId, v: VertexId) -> Label:
        """The label carried by edge ``{u, v}``."""
        if u not in self._adjacency or v not in self._adjacency[u]:
            raise EdgeNotFoundError(u, v)
        return self._adjacency[u][v]

    def edges(self) -> Iterator[tuple[VertexId, VertexId, Label]]:
        """Iterate over edges as ``(u, v, label)`` with a canonical endpoint order."""
        # An edge is yielded from whichever endpoint comes first in vertex
        # order; by the time the other endpoint is reached, the first is
        # finished, so each edge is keyed exactly once.
        finished: set[VertexId] = set()
        for u, nbrs in self._adjacency.items():
            for v, label in nbrs.items():
                if v not in finished:
                    first, second = edge_key(u, v)
                    yield (first, second, label)
            finished.add(u)

    def edge_set(self) -> set[tuple[VertexId, VertexId]]:
        """The set of edges as canonical ``(u, v)`` pairs (labels dropped)."""
        return {edge_key(u, v) for u, v, _ in self.edges()}

    # ------------------------------------------------------------------
    # Global properties
    # ------------------------------------------------------------------
    @property
    def order(self) -> int:
        """Number of vertices, ``|V(g)|``."""
        return len(self._vertex_labels)

    @property
    def size(self) -> int:
        """Number of edges — the paper's ``|g|`` (Definition 3)."""
        return self._edge_count

    def vertex_label_multiset(self) -> Counter:
        """Multiset of vertex labels (used by GED lower bounds)."""
        return Counter(self._vertex_labels.values())

    def edge_label_multiset(self) -> Counter:
        """Multiset of edge labels (used by GED lower bounds)."""
        # Every edge sits in the rows of both its endpoints.
        rows = Counter(chain.from_iterable(map(dict.values, self._adjacency.values())))
        return Counter({label: count // 2 for label, count in rows.items()})

    def label_maps(
        self,
    ) -> tuple[Mapping[VertexId, Label], Mapping[VertexId, Mapping[VertexId, Label]]]:
        """The vertex labels and the adjacency ``u -> {v: edge label}``, as
        stored: for walks over every edge that must not copy. Read-only."""
        return self._vertex_labels, self._adjacency

    def label_set(self) -> set[Label]:
        """The set ``L`` of all labels appearing on vertices or edges."""
        labels: set[Label] = set(self._vertex_labels.values())
        labels.update(label for _, _, label in self.edges())
        return labels

    # ------------------------------------------------------------------
    # Connectivity
    # ------------------------------------------------------------------
    def connected_components(self) -> list[set[VertexId]]:
        """Vertex sets of the connected components (BFS)."""
        remaining = set(self._vertex_labels)
        components: list[set[VertexId]] = []
        while remaining:
            start = next(iter(remaining))
            component = {start}
            queue = deque([start])
            while queue:
                current = queue.popleft()
                for neighbor in self._adjacency[current]:
                    if neighbor not in component:
                        component.add(neighbor)
                        queue.append(neighbor)
            components.append(component)
            remaining -= component
        return components

    def is_connected(self) -> bool:
        """Whether the graph has at most one connected component.

        The empty graph is considered connected.
        """
        return len(self.connected_components()) <= 1

    # ------------------------------------------------------------------
    # Subgraphs
    # ------------------------------------------------------------------
    def subgraph(self, vertices: Iterable[VertexId]) -> "LabeledGraph":
        """Vertex-induced subgraph on ``vertices`` (keeps all labels)."""
        keep = set(vertices)
        missing = keep - set(self._vertex_labels)
        if missing:
            raise VertexNotFoundError(next(iter(missing)))
        sub = LabeledGraph(name=self.name)
        for vertex in keep:
            sub.add_vertex(vertex, self._vertex_labels[vertex])
        for u, v, label in self.edges():
            if u in keep and v in keep:
                sub.add_edge(u, v, label)
        return sub

    def edge_subgraph(self, edges: Iterable[tuple[VertexId, VertexId]]) -> "LabeledGraph":
        """Edge-induced subgraph: the given edges plus their endpoints."""
        sub = LabeledGraph(name=self.name)
        for u, v in edges:
            if not self.has_edge(u, v):
                raise EdgeNotFoundError(u, v)
            for endpoint in (u, v):
                if not sub.has_vertex(endpoint):
                    sub.add_vertex(endpoint, self._vertex_labels[endpoint])
            sub.add_edge(u, v, self._adjacency[u][v])
        return sub

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    def __contains__(self, vertex: VertexId) -> bool:
        return vertex in self._vertex_labels

    def __len__(self) -> int:
        return self._edge_count

    def __iter__(self) -> Iterator[VertexId]:
        return iter(self._vertex_labels)

    def __eq__(self, other: object) -> bool:
        """Structural identity: same vertex ids, labels and labeled edges.

        This is *not* isomorphism — use :mod:`repro.graph.isomorphism` for
        label-preserving isomorphism tests.
        """
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        if self._vertex_labels != other._vertex_labels:
            return False
        return dict(self._iter_edge_items()) == dict(other._iter_edge_items())

    def __hash__(self) -> int:  # pragma: no cover - defensive
        raise TypeError("LabeledGraph is mutable and unhashable; use canonical_form()")

    def _iter_edge_items(self) -> Iterator[tuple[tuple[VertexId, VertexId], Label]]:
        for u, v, label in self.edges():
            yield (edge_key(u, v), label)

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<LabeledGraph{label}: {self.order} vertices, {self.size} edges>"
