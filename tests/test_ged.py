"""Tests for the exact graph edit distance solver (Definition 8)."""

import itertools

import pytest

from repro.graph import (
    LabeledGraph,
    UniformCostModel,
    edit_path_from_mapping,
    graph_edit_distance,
    is_isomorphic,
    path_graph,
)
from repro.graph.ged_approx import induced_edit_cost
from tests.conftest import make_random_graph


def test_ged_identical_graphs_zero(triangle):
    assert graph_edit_distance(triangle, triangle.copy()).distance == 0.0


def test_ged_isomorphic_graphs_zero():
    """The paper notes edit distance between isomorphic graphs is zero."""
    g1 = LabeledGraph.from_edges([(1, 2, "x"), (2, 3, "y")],
                                 vertex_labels={1: "A", 2: "B", 3: "C"})
    g2 = LabeledGraph.from_edges([("w", "u", "x"), ("u", "v", "y")],
                                 vertex_labels={"u": "B", "v": "C", "w": "A"})
    assert graph_edit_distance(g1, g2).distance == 0.0


def test_ged_single_operations():
    base = path_graph(["A", "B", "C"], name="base")
    relabeled = base.copy()
    relabeled.relabel_vertex(0, "Z")
    assert graph_edit_distance(base, relabeled).distance == 1.0

    edge_less = base.copy()
    edge_less.remove_edge(0, 1)
    assert graph_edit_distance(base, edge_less).distance == 1.0

    extra_edge = base.copy()
    extra_edge.add_edge(0, 2, "w")
    assert graph_edit_distance(base, extra_edge).distance == 1.0

    extra_vertex = base.copy()
    extra_vertex.add_vertex(9, "Q")
    assert graph_edit_distance(base, extra_vertex).distance == 1.0


def test_ged_fig1_pair_is_four(fig1_g1, fig1_g2):
    """Example 2: DistEd(g1, g2) = 4."""
    assert graph_edit_distance(fig1_g1, fig1_g2).distance == 4.0


def test_ged_fig1_optimal_sequence_composition(fig1_g1, fig1_g2):
    """The optimal mapping realises exactly the paper's four operations:
    one edge deletion, one edge relabeling, one vertex relabeling, one
    edge insertion."""
    result = graph_edit_distance(fig1_g1, fig1_g2)
    path = edit_path_from_mapping(fig1_g1, fig1_g2, result.mapping)
    kinds = sorted(type(op).__name__ for op in path)
    assert kinds == [
        "EdgeDeletion",
        "EdgeInsertion",
        "EdgeRelabeling",
        "VertexRelabeling",
    ]
    assert path.cost() == 4.0


def test_ged_symmetry_uniform_costs():
    for seed in range(10):
        g1 = make_random_graph(seed, max_vertices=5)
        g2 = make_random_graph(seed + 100, max_vertices=5)
        assert graph_edit_distance(g1, g2).distance == graph_edit_distance(g2, g1).distance, f"seed {seed}"


def test_ged_triangle_inequality_on_sample():
    graphs = [make_random_graph(seed, max_vertices=4) for seed in range(6)]
    distance = {}
    for i, j in itertools.combinations(range(len(graphs)), 2):
        distance[(i, j)] = distance[(j, i)] = graph_edit_distance(graphs[i], graphs[j]).distance
    for i, j, k in itertools.permutations(range(len(graphs)), 3):
        assert distance[(i, j)] <= distance[(i, k)] + distance[(k, j)] + 1e-9


def test_ged_mapping_cost_matches_distance():
    for seed in range(10):
        g1 = make_random_graph(seed, max_vertices=5)
        g2 = make_random_graph(seed + 200, max_vertices=5)
        result = graph_edit_distance(g1, g2)
        assert result.optimal
        realised = induced_edit_cost(g1, g2, result.mapping)
        assert realised == pytest.approx(result.distance)


def test_ged_edit_path_transforms_g1_into_g2():
    for seed in (1, 5, 13, 27):
        g1 = make_random_graph(seed, max_vertices=5)
        g2 = make_random_graph(seed + 404, max_vertices=5)
        result = graph_edit_distance(g1, g2)
        path = edit_path_from_mapping(g1, g2, result.mapping)
        assert path.cost() == pytest.approx(result.distance)
        transformed = path.apply(g1)
        assert is_isomorphic(transformed, g2)


def test_ged_to_empty_graph():
    g = path_graph(["A", "B", "C"])
    empty = LabeledGraph()
    # delete 2 edges + 3 vertices (or insert, in the other direction)
    assert graph_edit_distance(g, empty).distance == 5.0
    assert graph_edit_distance(empty, g).distance == 5.0


def test_ged_custom_cost_model():
    base = path_graph(["A", "B"])
    relabeled = path_graph(["A", "Z"])
    cheap_relabel = UniformCostModel(indel_cost=10.0, mismatch_cost=0.5)
    assert graph_edit_distance(base, relabeled, costs=cheap_relabel).distance == 0.5
    # with expensive relabels, delete+insert the vertex is still worse
    # (it costs 2 indels for the vertex plus edge churn), relabel wins
    pricey = UniformCostModel(indel_cost=1.0, mismatch_cost=1.5)
    assert graph_edit_distance(base, relabeled, costs=pricey).distance == 1.5


def test_ged_respects_upper_bound_seed():
    g1 = path_graph(["A", "B", "C"])
    g2 = path_graph(["A", "B", "Z"])
    result = graph_edit_distance(g1, g2, upper_bound=10.0)
    assert result.distance == 1.0


def test_ged_node_limit_gives_upper_bound():
    g1 = make_random_graph(33, max_vertices=6)
    g2 = make_random_graph(77, max_vertices=6)
    exact = graph_edit_distance(g1, g2)
    limited = graph_edit_distance(g1, g2, node_limit=1)
    assert limited.expanded_nodes <= 1
    assert not limited.optimal
    assert limited.distance >= exact.distance  # seed UB is still valid


def test_ged_size_difference_lower_bound():
    for seed in range(8):
        g1 = make_random_graph(seed, max_vertices=5)
        g2 = make_random_graph(seed + 900, max_vertices=5)
        assert graph_edit_distance(g1, g2).distance >= abs(g1.size - g2.size)
        assert graph_edit_distance(g1, g2).distance >= abs(g1.order - g2.order)


def test_ged_deleted_vertex_mapping_reported():
    g1 = path_graph(["A", "B", "C"])  # 3 vertices
    g2 = path_graph(["A", "B"])  # 2 vertices
    result = graph_edit_distance(g1, g2)
    assert result.distance == 2.0  # delete edge B-C + vertex C
    assert None in result.mapping.values()


def test_ged_empty_vs_empty():
    assert graph_edit_distance(LabeledGraph(), LabeledGraph()).distance == 0.0
