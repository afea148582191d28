"""Tests for canonical forms and iso-invariant hashing."""

import random

from repro.graph import (
    LabeledGraph,
    canonical_form,
    canonical_hash,
    is_isomorphic,
    path_graph,
    wl_colors,
)
from repro.graph.canonical import label_key
from tests.conftest import make_random_graph


def shuffled_copy(graph: LabeledGraph, seed: int) -> LabeledGraph:
    """Same graph with renamed vertex ids and shuffled insertion order."""
    rng = random.Random(seed)
    vertices = graph.vertices()
    new_ids = {v: f"n{i}" for i, v in enumerate(rng.sample(vertices, len(vertices)))}
    clone = LabeledGraph(name=graph.name)
    for v in rng.sample(vertices, len(vertices)):
        clone.add_vertex(new_ids[v], graph.vertex_label(v))
    edges = list(graph.edges())
    rng.shuffle(edges)
    for u, v, label in edges:
        clone.add_edge(new_ids[u], new_ids[v], label)
    return clone


def test_isomorphic_graphs_share_canonical_form():
    for seed in range(20):
        graph = make_random_graph(seed)
        twin = shuffled_copy(graph, seed + 1)
        assert is_isomorphic(graph, twin)
        assert canonical_form(graph) == canonical_form(twin), f"seed {seed}"
        assert canonical_hash(graph) == canonical_hash(twin)


def test_different_labels_different_form():
    g1 = path_graph(["A", "B", "C"])
    g2 = path_graph(["A", "B", "D"])
    assert canonical_form(g1) != canonical_form(g2)


def test_different_structure_different_form():
    path = path_graph(["A", "A", "A", "A"])
    star = LabeledGraph.from_edges(
        [(0, 1), (0, 2), (0, 3)], vertex_labels={i: "A" for i in range(4)}
    )
    assert canonical_form(path) != canonical_form(star)


def test_edge_labels_in_form():
    g1 = LabeledGraph.from_edges([("A", "B", "x")])
    g2 = LabeledGraph.from_edges([("A", "B", "y")])
    assert canonical_form(g1) != canonical_form(g2)


def test_empty_graph_form_is_stable():
    assert canonical_form(LabeledGraph()) == canonical_form(LabeledGraph())


def test_wl_colors_partition_by_structure():
    # In a path A-A-A, the middle vertex must get its own color.
    g = path_graph(["A", "A", "A"])
    colors = wl_colors(g)
    assert colors[0] == colors[2]
    assert colors[1] != colors[0]


def test_wl_colors_respect_labels():
    g = path_graph(["A", "B"])
    colors = wl_colors(g)
    assert colors[0] != colors[1]


def test_wl_rounds_zero_is_label_hash():
    g = path_graph(["A", "A", "B"])
    colors = wl_colors(g, rounds=0)
    assert colors[0] == colors[1]
    assert colors[0] != colors[2]


def test_highly_symmetric_graph_stable_form():
    """A 4-cycle with one label has a big automorphism group; canonical
    form must still be permutation-invariant."""
    from repro.graph import cycle_graph

    c4 = cycle_graph(["A", "A", "A", "A"])
    twin = shuffled_copy(c4, 99)
    assert canonical_form(c4) == canonical_form(twin)


def test_label_key_follows_equality():
    assert label_key(1) == label_key(1.0) == label_key(True) == "1.0"
    assert label_key(0) == label_key(-0.0) == label_key(False)
    assert label_key("1.0") != label_key(1.0)
    assert label_key(10**400) == repr(10**400)  # no float holds it
    # 2**53 + 1 has no float twin, so it equals no float and keeps its own key.
    assert label_key(2**53 + 1) != label_key(float(2**53 + 1))
