"""Tests for label-preserving (sub)graph isomorphism (Definitions 4-6)."""

import pytest

from repro.graph import (
    LabeledGraph,
    find_isomorphism,
    is_isomorphic,
    iter_subgraph_isomorphisms,
    path_graph,
)
from repro.testkit.reference import verify_embedding
from tests.conftest import embeds, make_random_graph


def test_isomorphic_to_relabeled_copy():
    g1 = LabeledGraph.from_edges([(1, 2, "x"), (2, 3, "y")],
                                 vertex_labels={1: "A", 2: "B", 3: "C"})
    g2 = LabeledGraph.from_edges([("u", "v", "y"), ("w", "u", "x")],
                                 vertex_labels={"u": "B", "v": "C", "w": "A"})
    mapping = find_isomorphism(g1, g2)
    assert mapping is not None
    assert verify_embedding(g1, g2, mapping)
    assert is_isomorphic(g2, g1)


def test_vertex_labels_block_isomorphism():
    g1 = path_graph(["A", "B", "C"])
    g2 = path_graph(["A", "B", "D"])
    assert not is_isomorphic(g1, g2)


def test_edge_labels_block_isomorphism():
    g1 = LabeledGraph.from_edges([("A", "B", "x")])
    g2 = LabeledGraph.from_edges([("A", "B", "y")])
    assert not is_isomorphic(g1, g2)


def test_structure_blocks_isomorphism():
    path = path_graph(["A", "A", "A", "A"])
    star = LabeledGraph.from_edges([(0, 1), (0, 2), (0, 3)],
                                   vertex_labels={i: "A" for i in range(4)})
    assert path.size == star.size and path.order == star.order
    assert not is_isomorphic(path, star)


def test_subgraph_isomorphism_is_not_induced():
    """Definition 5 demands edge preservation one way only."""
    path = path_graph(["A", "B", "C"])
    triangle = LabeledGraph.from_edges(
        [("A", "B"), ("B", "C"), ("C", "A")]
    )
    assert embeds(path, triangle)
    assert not embeds(triangle, path)


def test_subgraph_isomorphism_respects_labels():
    pattern = LabeledGraph.from_edges([("A", "B", "x")])
    target_good = LabeledGraph.from_edges([("A", "B", "x"), ("B", "C", "y")])
    target_bad = LabeledGraph.from_edges([("A", "B", "y"), ("B", "C", "x")])
    assert embeds(pattern, target_good)
    assert not embeds(pattern, target_bad)


def test_size_pruning_fast_path():
    big = path_graph(["A"] * 5)
    small = path_graph(["A"] * 3)
    assert not embeds(big, small)


def test_count_embeddings_path_in_cycle():
    # An unlabeled-ish (single label) 2-edge path embeds into a triangle
    # once per (center, ordered pair of neighbors): 3 * 2 = 6 ways.
    pattern = path_graph(["A", "A", "A"])
    triangle = LabeledGraph.from_edges(
        [(0, 1), (1, 2), (2, 0)], vertex_labels={0: "A", 1: "A", 2: "A"}
    )
    assert len(list(iter_subgraph_isomorphisms(pattern, triangle))) == 6


def test_iter_yields_valid_distinct_embeddings():
    pattern = path_graph(["A", "A"])
    target = LabeledGraph.from_edges(
        [(0, 1), (1, 2)], vertex_labels={0: "A", 1: "A", 2: "A"}
    )
    embeddings = list(iter_subgraph_isomorphisms(pattern, target))
    assert len(embeddings) == 4  # 2 edges x 2 orientations
    assert all(verify_embedding(pattern, target, m) for m in embeddings)
    assert len({tuple(sorted(m.items())) for m in embeddings}) == 4


def test_disconnected_pattern():
    pattern = LabeledGraph.from_edges([(0, 1)], vertex_labels={0: "A", 1: "B"})
    pattern.add_vertex(2, "C")
    target = LabeledGraph.from_edges(
        [("a", "b"), ("b", "c")], vertex_labels={"a": "A", "b": "B", "c": "C"}
    )
    mapping = next(iter_subgraph_isomorphisms(pattern, target))
    assert verify_embedding(pattern, target, mapping)


def test_empty_pattern_embeds_everywhere():
    empty = LabeledGraph()
    target = path_graph(["A", "B"])
    assert embeds(empty, target)
    assert is_isomorphic(empty, LabeledGraph())


def test_verify_embedding_rejects_bad_mappings():
    pattern = path_graph(["A", "B"])
    target = path_graph(["A", "B", "C"])
    assert not verify_embedding(pattern, target, {})  # wrong size
    assert not verify_embedding(pattern, target, {0: 0, 1: 2})  # no edge/label
    assert not verify_embedding(pattern, target, {0: 0, 1: 99})  # missing
    assert not verify_embedding(path_graph(["A", "A"]), target, {0: 0, 1: 0})


def test_cross_check_against_networkx():
    """Our matcher must agree with networkx's VF2 on random graphs."""
    import networkx

    def to_nx(graph):
        nx_graph = networkx.Graph()
        for v in graph.vertices():
            nx_graph.add_node(v, label=graph.vertex_label(v))
        for u, v, label in graph.edges():
            nx_graph.add_edge(u, v, label=label)
        return nx_graph

    def nx_iso(g1, g2):
        return networkx.is_isomorphic(
            to_nx(g1),
            to_nx(g2),
            node_match=lambda a, b: a["label"] == b["label"],
            edge_match=lambda a, b: a["label"] == b["label"],
        )

    for seed in range(40):
        g1 = make_random_graph(seed)
        g2 = make_random_graph(seed + 1000)
        assert is_isomorphic(g1, g2) == nx_iso(g1, g2)
        # a graph is always isomorphic to itself
        assert is_isomorphic(g1, g1.copy())
