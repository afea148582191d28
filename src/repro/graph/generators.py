"""Graph generators: structured families, random graphs, and mutations.

Everything takes an explicit :class:`random.Random` (or a seed) so that
datasets, tests and benchmarks are reproducible. The mutation helpers
implement the workload model used throughout the evaluation benches: a
query graph is answered by a database of graphs derived from it (and from
distractors) through controlled numbers of random edit operations — the
standard way similarity-search papers build ground-truth-ish workloads.
"""

from __future__ import annotations

import random
from collections.abc import Hashable, Sequence

from repro.errors import GraphError
from repro.graph.labeled_graph import DEFAULT_EDGE_LABEL, LabeledGraph

Label = Hashable

#: Default label alphabets, sized like small chemical alphabets.
DEFAULT_VERTEX_LABELS: tuple[str, ...] = ("A", "B", "C", "D")
DEFAULT_EDGE_LABELS: tuple[str, ...] = (DEFAULT_EDGE_LABEL,)


def _rng(seed: int | random.Random | None) -> random.Random:
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


# ----------------------------------------------------------------------
# Structured families
# ----------------------------------------------------------------------
def path_graph(labels: Sequence[Label], edge_label: Label = DEFAULT_EDGE_LABEL,
               name: str | None = None) -> LabeledGraph:
    """A path whose i-th vertex (id ``i``) carries ``labels[i]``."""
    graph = LabeledGraph(name=name)
    for i, label in enumerate(labels):
        graph.add_vertex(i, label)
    for i in range(len(labels) - 1):
        graph.add_edge(i, i + 1, edge_label)
    return graph


def cycle_graph(labels: Sequence[Label], edge_label: Label = DEFAULT_EDGE_LABEL,
                name: str | None = None) -> LabeledGraph:
    """A cycle over ``len(labels)`` (at least 3) labeled vertices."""
    if len(labels) < 3:
        raise GraphError("a cycle needs at least 3 vertices")
    graph = path_graph(labels, edge_label, name)
    graph.add_edge(len(labels) - 1, 0, edge_label)
    return graph


# ----------------------------------------------------------------------
# Random graphs
# ----------------------------------------------------------------------
def random_labeled_graph(
    n_vertices: int,
    n_edges: int,
    vertex_labels: Sequence[Label] = DEFAULT_VERTEX_LABELS,
    edge_labels: Sequence[Label] = DEFAULT_EDGE_LABELS,
    seed: int | random.Random | None = None,
    connected: bool = True,
    name: str | None = None,
) -> LabeledGraph:
    """A uniformly random simple labeled graph.

    With ``connected=True`` a random spanning tree is laid down first
    (requiring ``n_edges >= n_vertices - 1``), then the remaining edges are
    sampled uniformly from the missing pairs.
    """
    rng = _rng(seed)
    max_edges = n_vertices * (n_vertices - 1) // 2
    if n_edges > max_edges:
        raise GraphError(f"{n_edges} edges do not fit in {n_vertices} vertices")
    if connected and n_vertices > 0 and n_edges < n_vertices - 1:
        raise GraphError("a connected graph needs at least n-1 edges")
    graph = LabeledGraph(name=name)
    for v in range(n_vertices):
        graph.add_vertex(v, rng.choice(list(vertex_labels)))
    chosen: set[tuple[int, int]] = set()
    if connected and n_vertices > 1:
        # Random spanning tree: attach each new vertex to a random earlier one.
        vertices = list(range(n_vertices))
        rng.shuffle(vertices)
        for i in range(1, n_vertices):
            u, v = vertices[i], rng.choice(vertices[:i])
            chosen.add((min(u, v), max(u, v)))
    candidates = [
        (u, v)
        for u in range(n_vertices)
        for v in range(u + 1, n_vertices)
        if (u, v) not in chosen
    ]
    rng.shuffle(candidates)
    for u, v in candidates[: n_edges - len(chosen)]:
        chosen.add((u, v))
    for u, v in sorted(chosen):
        graph.add_edge(u, v, rng.choice(list(edge_labels)))
    return graph


# ----------------------------------------------------------------------
# Mutations (workload model)
# ----------------------------------------------------------------------
def mutate(
    graph: LabeledGraph,
    n_operations: int,
    vertex_labels: Sequence[Label] = DEFAULT_VERTEX_LABELS,
    edge_labels: Sequence[Label] = DEFAULT_EDGE_LABELS,
    seed: int | random.Random | None = None,
    keep_connected: bool = True,
    name: str | None = None,
) -> LabeledGraph:
    """Apply ``n_operations`` random edit operations to a copy of ``graph``.

    Operations are drawn from: edge insertion, edge deletion, vertex
    relabeling, edge relabeling, and leaf-vertex insertion (a new vertex
    plus an attaching edge, counted as two operations like in the edit
    model). The edit distance to the original is *at most* the number of
    operations applied; it can be smaller when operations cancel out.
    """
    rng = _rng(seed)
    mutant = graph.copy(name=name or (f"{graph.name}~" if graph.name else None))
    budget = n_operations
    fresh = 0
    attempts_left = 200 * max(n_operations, 1)
    while budget > 0:
        attempts_left -= 1
        if attempts_left < 0:
            raise GraphError(
                "mutate() could not make progress; the graph/label alphabet "
                "leaves no applicable operations"
            )
        moves = ["relabel_vertex", "relabel_edge", "add_edge", "remove_edge"]
        if budget >= 2:
            moves.append("grow_leaf")
        move = rng.choice(moves)
        if move == "relabel_vertex" and mutant.order > 0:
            vertex = rng.choice(mutant.vertices())
            new_label = rng.choice(list(vertex_labels))
            if new_label != mutant.vertex_label(vertex):
                mutant.relabel_vertex(vertex, new_label)
                budget -= 1
        elif move == "relabel_edge" and mutant.size > 0 and len(edge_labels) > 1:
            u, v, label = rng.choice(list(mutant.edges()))
            new_label = rng.choice(list(edge_labels))
            if new_label != label:
                mutant.relabel_edge(u, v, new_label)
                budget -= 1
        elif move == "add_edge":
            vertices = mutant.vertices()
            missing = [
                (u, v)
                for i, u in enumerate(vertices)
                for v in vertices[i + 1 :]
                if not mutant.has_edge(u, v)
            ]
            if missing:
                u, v = rng.choice(missing)
                mutant.add_edge(u, v, rng.choice(list(edge_labels)))
                budget -= 1
        elif move == "remove_edge" and mutant.size > 0:
            u, v, label = rng.choice(list(mutant.edges()))
            mutant.remove_edge(u, v)
            if keep_connected and not mutant.is_connected():
                mutant.add_edge(u, v, label)  # undo and retry another move
            else:
                budget -= 1
        elif move == "grow_leaf" and mutant.order > 0:
            new_id = f"m{fresh}"
            while mutant.has_vertex(new_id):
                fresh += 1
                new_id = f"m{fresh}"
            anchor = rng.choice(mutant.vertices())
            mutant.add_vertex(new_id, rng.choice(list(vertex_labels)))
            mutant.add_edge(new_id, anchor, rng.choice(list(edge_labels)))
            fresh += 1
            budget -= 2
    return mutant
