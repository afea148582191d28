"""Descriptive statistics of labeled graphs and graph collections.

Used for dataset characterisation, the CLI's ``generate`` output, and
by anyone validating that a synthetic workload resembles the intended
domain (densities, label entropies, degree profiles of chemical
datasets).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from collections.abc import Sequence

from repro.graph.labeled_graph import LabeledGraph


@dataclass(frozen=True)
class GraphStatistics:
    """Summary statistics of one graph."""

    order: int
    size: int
    density: float
    connected: bool
    components: int
    min_degree: int
    max_degree: int
    mean_degree: float
    vertex_label_entropy: float
    edge_label_entropy: float
    distinct_vertex_labels: int
    distinct_edge_labels: int


def _entropy(counter: Counter) -> float:
    total = sum(counter.values())
    if total == 0:
        return 0.0
    entropy = 0.0
    for count in counter.values():
        p = count / total
        entropy -= p * math.log2(p)
    return entropy


def graph_statistics(graph: LabeledGraph) -> GraphStatistics:
    """Compute :class:`GraphStatistics` for ``graph``."""
    degrees = [graph.degree(v) for v in graph.vertices()]
    max_possible = graph.order * (graph.order - 1) / 2
    components = graph.connected_components()
    return GraphStatistics(
        order=graph.order,
        size=graph.size,
        density=(graph.size / max_possible) if max_possible else 0.0,
        connected=graph.is_connected(),
        components=len(components),
        min_degree=min(degrees) if degrees else 0,
        max_degree=max(degrees) if degrees else 0,
        mean_degree=(sum(degrees) / len(degrees)) if degrees else 0.0,
        vertex_label_entropy=_entropy(graph.vertex_label_multiset()),
        edge_label_entropy=_entropy(graph.edge_label_multiset()),
        distinct_vertex_labels=len(graph.vertex_label_multiset()),
        distinct_edge_labels=len(graph.edge_label_multiset()),
    )


@dataclass(frozen=True)
class CollectionStatistics:
    """Aggregate statistics of a graph collection (a database/workload)."""

    count: int
    total_vertices: int
    total_edges: int
    mean_order: float
    mean_size: float
    min_size: int
    max_size: int
    connected_fraction: float
    vertex_label_vocabulary: tuple[str, ...]
    edge_label_vocabulary: tuple[str, ...]


def collection_statistics(graphs: Sequence[LabeledGraph]) -> CollectionStatistics:
    """Aggregate statistics of ``graphs`` (empty collections allowed)."""
    if not graphs:
        return CollectionStatistics(
            count=0, total_vertices=0, total_edges=0, mean_order=0.0,
            mean_size=0.0, min_size=0, max_size=0, connected_fraction=0.0,
            vertex_label_vocabulary=(), edge_label_vocabulary=(),
        )
    orders = [graph.order for graph in graphs]
    sizes = [graph.size for graph in graphs]
    vertex_vocab: Counter = Counter()
    edge_vocab: Counter = Counter()
    connected = 0
    for graph in graphs:
        vertex_vocab.update(graph.vertex_label_multiset())
        edge_vocab.update(graph.edge_label_multiset())
        if graph.is_connected():
            connected += 1
    return CollectionStatistics(
        count=len(graphs),
        total_vertices=sum(orders),
        total_edges=sum(sizes),
        mean_order=sum(orders) / len(graphs),
        mean_size=sum(sizes) / len(graphs),
        min_size=min(sizes),
        max_size=max(sizes),
        connected_fraction=connected / len(graphs),
        vertex_label_vocabulary=tuple(sorted(map(repr, vertex_vocab))),
        edge_label_vocabulary=tuple(sorted(map(repr, edge_vocab))),
    )


def describe_graph(graph: LabeledGraph) -> str:
    """Multi-line plain-text description (used by examples and the CLI)."""
    stats = graph_statistics(graph)
    name = graph.name or "(unnamed)"
    lines = [
        f"graph {name}: {stats.order} vertices, {stats.size} edges "
        f"(|g| in the paper's sense)",
        f"  density {stats.density:.3f}, "
        f"{'connected' if stats.connected else f'{stats.components} components'}",
        f"  degrees: min {stats.min_degree}, mean {stats.mean_degree:.2f}, "
        f"max {stats.max_degree}",
        f"  labels: {stats.distinct_vertex_labels} vertex "
        f"(entropy {stats.vertex_label_entropy:.2f} bits), "
        f"{stats.distinct_edge_labels} edge "
        f"(entropy {stats.edge_label_entropy:.2f} bits)",
    ]
    return "\n".join(lines)
