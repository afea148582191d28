"""Equal labels are one label everywhere: ``1``, ``1.0`` and ``True``.

Every solver and cost model matches labels with ``==``. The index bounds
must use the same rule: a bound that tells ``1`` from ``1.0`` exceeds the
distance it bounds, and every backend with an index then prunes true
answers. Each backend is checked against the exhaustive oracle on graphs
whose labels mix ``int``, ``float`` and ``bool`` spellings.
"""

from __future__ import annotations

import random

import pytest

import repro
from repro.graph import (
    GraphFeatures,
    LabeledGraph,
    canonical_hash,
    edit_distance_lower_bound,
    is_isomorphic,
)
from repro.testkit.oracle import Oracle

BACKENDS = ["memory", "indexed", "vectorized", "auto", "sharded"]

#: Equal spellings of three labels.
SPELLINGS = ((0, 0.0, False), (1, 1.0, True), (2, 2.0))


def _path(labels: list, edge_label: object) -> LabeledGraph:
    graph = LabeledGraph()
    for vertex, label in enumerate(labels):
        graph.add_vertex(vertex, label)
    for vertex in range(1, len(labels)):
        graph.add_edge(vertex - 1, vertex, edge_label)
    return graph


def _mixed_graph(rng: random.Random, order: int) -> LabeledGraph:
    """A random tree whose labels are random spellings of three values."""
    graph = LabeledGraph()
    for vertex in range(order):
        graph.add_vertex(vertex, rng.choice(rng.choice(SPELLINGS)))
    for vertex in range(1, order):
        graph.add_edge(vertex, rng.randrange(vertex), rng.choice(rng.choice(SPELLINGS)))
    return graph


def _respell(label: object) -> object:
    """An equal label of another type."""
    spelling = next(s for s in SPELLINGS if label in s)
    return next(other for other in spelling if type(other) is not type(label))


def _respelled(graph: LabeledGraph) -> LabeledGraph:
    out = LabeledGraph()
    for vertex in graph.vertices():
        out.add_vertex(vertex, _respell(graph.vertex_label(vertex)))
    for u, v, label in graph.edges():
        out.add_edge(u, v, _respell(label))
    return out


def _connect(graphs: list[LabeledGraph], backend: str) -> repro.Session:
    return repro.connect(graphs, backend=backend)


def test_features_match_labels_by_equality():
    f1 = GraphFeatures.of(_path([1, 2, 1], 1))
    f2 = GraphFeatures.of(_path([1.0, 2.0, True], True))
    assert dict(f1.vertex_labels) == dict(f2.vertex_labels)
    assert dict(f1.edge_labels) == dict(f2.edge_labels)
    assert edit_distance_lower_bound(f1, f2) == 0.0


@pytest.mark.parametrize("backend", BACKENDS)
def test_respelled_copy_is_found_at_distance_zero(backend):
    """A path ``1-2-1`` (edge ``1``) queried as ``1.0-2.0-1.0`` (edge
    ``1.0``) is at distance 0 — answered by ``memory`` only, before."""
    graphs = [_path([1, 2, 1], 1), _path(["x", "y"], "e"), _path(["z"] * 4, "f")]
    query = _path([1.0, 2.0, 1.0], 1.0)
    with _connect(graphs, backend) as session:
        assert session.execute(repro.Query(query).threshold(0.0)).ids == [0]


@pytest.mark.parametrize("backend", BACKENDS)
def test_mixed_type_labels_answer_like_the_oracle(backend):
    rng = random.Random(11)
    graphs = [_mixed_graph(rng, rng.randint(2, 5)) for _ in range(8)]
    queries = [_respelled(graphs[0]), _respelled(graphs[5]), _mixed_graph(rng, 4)]
    oracle = Oracle()
    for index, graph in enumerate(graphs):
        oracle.add(str(index), graph)
    with _connect(graphs, backend) as session:
        for query in queries:
            for spec in (
                repro.Query(query).skyline().build(),
                repro.Query(query).skyband(2).build(),
                repro.Query(query).topk(3).build(),
                repro.Query(query).threshold(0.0).build(),
                repro.Query(query).threshold(2.0).build(),
            ):
                want = [int(handle) for handle in oracle.answer(spec)]
                assert session.execute(spec).ids == want, spec.kind


def test_respelled_graphs_share_a_canonical_hash_and_deduplicate():
    """Canonical hashing keys labels by equality too, so a respelled copy
    is the same database graph: dropped by deduplication, found by
    ``find_isomorphic``."""
    graph = _path([1, 2.0, True, 0], False)
    twin = _path([True, 2, 1.0, 0.0], 0)
    assert is_isomorphic(graph, twin)
    assert canonical_hash(graph) == canonical_hash(twin)
    database = repro.GraphDatabase.from_graphs([graph, twin], deduplicate=True)
    assert database.ids() == [0]
    assert database.find_isomorphic(twin) == 0
