"""Tests for the maximum common connected subgraph solver (Definition 7)."""

import itertools

import pytest

from repro.graph import (
    LabeledGraph,
    maximum_common_subgraph,
    mcs_size,
    path_graph,
)
from repro.testkit.reference import verify_embedding
from tests.conftest import embeds, make_random_graph


def brute_force_mcs_edges(g1: LabeledGraph, g2: LabeledGraph) -> int:
    """Oracle: largest connected edge-subgraph of g1 embeddable into g2."""
    edges = list(g1.edge_set())
    best = 0
    for size in range(len(edges), 0, -1):
        if size <= best:
            break
        for subset in itertools.combinations(edges, size):
            sub = g1.edge_subgraph(subset)
            if not sub.is_connected():
                continue
            if embeds(sub, g2):
                best = size
                break
    return best


def test_mcs_of_identical_graphs_is_whole_graph(triangle):
    result = maximum_common_subgraph(triangle, triangle.copy())
    assert result.size == triangle.size
    assert result.order == triangle.order


def test_mcs_paper_fig2(fig1_g1, fig1_g2):
    """Fig. 2: the mcs of the Fig. 1 pair has 4 edges."""
    result = maximum_common_subgraph(fig1_g1, fig1_g2)
    assert result.size == 4
    sub = result.subgraph(fig1_g1)
    assert sub.is_connected()
    assert embeds(sub, fig1_g2)
    assert verify_embedding(sub, fig1_g2, result.mapping)


def test_mcs_no_common_labels():
    g1 = path_graph(["A", "B"])
    g2 = path_graph(["C", "D"])
    result = maximum_common_subgraph(g1, g2)
    assert result.size == 0
    assert result.order == 0


def test_mcs_single_common_vertex_has_zero_edges():
    g1 = path_graph(["A", "B"])
    g2 = path_graph(["A", "C"])
    assert mcs_size(g1, g2) == 0
    # vertex objective still finds the shared A vertex
    result = maximum_common_subgraph(g1, g2, objective="vertices")
    assert result.order == 1
    assert result.size == 0


def test_mcs_requires_connectivity():
    """Two separate common pieces must not be merged (Definition 7)."""
    # g1: two disjoint paths X-Y and P-Q joined through a Z vertex
    g1 = LabeledGraph.from_edges(
        [("x", "y"), ("y", "z"), ("z", "p"), ("p", "q")],
        vertex_labels={"x": "X", "y": "Y", "z": "Z", "p": "P", "q": "Q"},
    )
    # g2 has X-Y and P-Q but no Z at all: common pieces are disconnected.
    g2 = LabeledGraph.from_edges(
        [("x", "y"), ("y", "w"), ("w", "p"), ("p", "q")],
        vertex_labels={"x": "X", "y": "Y", "w": "W", "p": "P", "q": "Q"},
    )
    assert mcs_size(g1, g2) == 1  # X-Y or P-Q, not both
    assert brute_force_mcs_edges(g1, g2) == 1


def test_mcs_edge_labels_matter():
    g1 = LabeledGraph.from_edges([("A", "B", "x"), ("B", "C", "x")])
    g2 = LabeledGraph.from_edges([("A", "B", "x"), ("B", "C", "y")])
    assert mcs_size(g1, g2) == 1


def test_mcs_symmetry_in_size():
    for seed in range(12):
        g1 = make_random_graph(seed, max_vertices=5)
        g2 = make_random_graph(seed + 500, max_vertices=5)
        assert mcs_size(g1, g2) == mcs_size(g2, g1)


def test_mcs_upper_bounds():
    for seed in range(12):
        g1 = make_random_graph(seed, max_vertices=5)
        g2 = make_random_graph(seed + 700, max_vertices=5)
        size = mcs_size(g1, g2)
        assert size <= min(g1.size, g2.size)


def test_mcs_subgraph_relation():
    """If q is a subgraph of g, mcs(g, q) = |q| (paper, g7 case)."""
    q = path_graph(["A", "B", "C", "D"])
    g = q.copy()
    g.add_vertex(99, "E")
    g.add_edge(99, 0)
    g.add_edge(99, 2)
    assert mcs_size(g, q) == q.size


def test_mcs_against_brute_force_oracle():
    for seed in range(18):
        g1 = make_random_graph(seed, max_vertices=5)
        g2 = make_random_graph(seed + 300, max_vertices=5)
        assert mcs_size(g1, g2) == brute_force_mcs_edges(g1, g2), f"seed {seed}"


def test_mcs_result_mapping_is_valid_embedding():
    for seed in (3, 7, 11):
        g1 = make_random_graph(seed, max_vertices=5)
        g2 = make_random_graph(seed + 17, max_vertices=5)
        result = maximum_common_subgraph(g1, g2)
        if result.size > 0:
            sub = result.subgraph(g1)
            assert sub.is_connected()
            assert verify_embedding(sub, g2, {
                v: result.mapping[v] for v in sub.vertices()
            })


def test_mcs_vertices_objective_at_least_edge_objective_order():
    for seed in (2, 9, 21):
        g1 = make_random_graph(seed, max_vertices=5)
        g2 = make_random_graph(seed + 40, max_vertices=5)
        by_edges = maximum_common_subgraph(g1, g2, objective="edges")
        by_vertices = maximum_common_subgraph(g1, g2, objective="vertices")
        assert by_vertices.order >= by_edges.order
        assert by_edges.size >= by_vertices.size or by_vertices.size == by_edges.size


def test_mcs_invalid_objective():
    g = path_graph(["A", "B"])
    with pytest.raises(ValueError):
        maximum_common_subgraph(g, g, objective="nope")


def test_mcs_empty_graphs():
    empty = LabeledGraph()
    g = path_graph(["A", "B"])
    assert mcs_size(empty, g) == 0
    assert mcs_size(empty, LabeledGraph()) == 0
