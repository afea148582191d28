"""Isomorphism-invariant canonical forms and hashing.

Used to deduplicate graphs (database ingestion)
and to memoise pairwise computations. Colour refinement (1-dimensional
Weisfeiler–Leman) over vertex and incident-edge labels splits the vertices
into classes; the form is the smallest labeled edge list over the vertex
orders that list the classes in colour order, trying every order within a
class of up to :data:`_PERMUTATION_CAP` members. So isomorphic graphs share
a form (and hash) unless a class outgrows the cap, and equal forms always
mean isomorphic graphs: a form spells out every label and every edge.

Labels are keyed by equality (:func:`label_key`), the rule of every solver
and cost model: ``1``, ``1.0`` and ``True`` are one label here too.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
from collections.abc import Hashable

from repro.graph.labeled_graph import LabeledGraph

_PERMUTATION_CAP = 6  # 6! = 720 orders per colour class at most


@functools.lru_cache(maxsize=4096)  # labels repeat across graphs
def label_key(label: Hashable) -> str:
    """A string naming ``label`` up to equality: ``a == b`` gives one key.

    A number equal to a float is keyed by that float (``1``, ``1.0`` and
    ``True`` all give ``'1.0'``); any other label by its own ``repr``.
    """
    if isinstance(label, (int, float)):
        try:
            if float(label) == label:
                return repr(float(label) + 0.0)  # + 0.0 folds -0.0 into 0.0
        except OverflowError:  # an int no float can hold equals no float
            pass
    return repr(label)


def wl_colors(graph: LabeledGraph, rounds: int | None = None) -> dict[Hashable, int]:
    """Isomorphism-invariant integer vertex colours (ranks, so they mean
    nothing across graphs): each round ranks the distinct signatures, a
    vertex's colour plus its sorted ``(edge label, neighbour colour)``
    pairs, until the class count stops growing or ``rounds`` rounds ran."""
    return dict(zip(graph.vertices(), _refine(graph, rounds)[1]))


def canonical_form(graph: LabeledGraph) -> str:
    """A string invariant under isomorphism, canonical for small graphs."""
    vertex_keys, colors, classes, edge_keys, neighbors = _refine(graph)
    n = len(colors)

    def encode(place) -> list[tuple[int, int, str]]:
        edges = [
            (place[u], place[v], key)
            for u in range(n)
            for key, v in zip(edge_keys[u], neighbors[u])
            if place[u] < place[v]
        ]
        edges.sort()
        return edges

    if classes == n:  # all singletons: the colours are the order
        best = encode(colors)
    else:
        members: dict[int, list[int]] = {}
        for vertex, color in enumerate(colors):
            members.setdefault(color, []).append(vertex)
        best = min(
            encode(dict(zip(itertools.chain.from_iterable(parts), itertools.count())))
            for parts in itertools.product(*(_orders(members[c]) for c in sorted(members)))
        )
    # Colours refine the label order, so sorted keys are the labels by place.
    return repr((sorted(vertex_keys), best))


def canonical_hash(graph: LabeledGraph) -> str:
    """Short hex digest of :func:`canonical_form` (cache / index key)."""
    return hashlib.sha256(canonical_form(graph).encode("utf-8")).hexdigest()[:16]


def _refine(graph: LabeledGraph, rounds: int | None = None) -> tuple:
    """Label keys, colours and class count of the vertices (by insertion
    index), with each vertex's edge label keys and neighbour indices."""
    # The graph's own dicts (same package), both in insertion order.
    vertices = list(graph._vertex_labels)
    index = dict(zip(vertices, itertools.count()))
    vertex_keys = list(map(label_key, graph._vertex_labels.values()))
    rows = list(map(graph._adjacency.__getitem__, vertices))
    edge_keys = [tuple(map(label_key, row.values())) for row in rows]
    neighbors = [tuple(map(index.__getitem__, row)) for row in rows]
    # Round one reads the label keys as colours. A signature starts with
    # its colour, so a round that splits no class keeps the colour order.
    colors, classes = vertex_keys, len(set(vertex_keys))
    for _ in range(len(vertices) if rounds is None else rounds):
        if classes == len(vertices):
            break
        previous = classes
        colors, classes = _ranks(
            [
                (color, *sorted(zip(keys_u, map(colors.__getitem__, neighbors_u))))
                for color, keys_u, neighbors_u in zip(colors, edge_keys, neighbors)
            ]
        )
        if classes == previous:
            break
    if colors is vertex_keys:  # no round ran
        colors, classes = _ranks(vertex_keys)
    return vertex_keys, colors, classes, edge_keys, neighbors


def _ranks(signatures: list) -> tuple[list[int], int]:
    """Each signature's rank among the sorted distinct ones, and their count."""
    rank = dict(zip(sorted(set(signatures)), itertools.count()))
    return list(map(rank.__getitem__, signatures)), len(rank)


def _orders(members: list[int]):
    """Every order of a small class; one fixed order of a huge one, which
    gives up canonicity (never correctness: every user of the hash confirms
    a match with an exact isomorphism test)."""
    if len(members) <= _PERMUTATION_CAP:
        return itertools.permutations(members)
    return [members]
