"""Cross-checks between the primary and alternative exact engines."""

import pytest

from repro.datasets import figure1_pair, figure3_database, figure3_query
from repro.graph import (
    LabeledGraph,
    graph_edit_distance,
    maximum_common_subgraph,
    path_graph,
)
from repro.testkit.reference import (
    graph_edit_distance_astar,
    maximum_common_subgraph_clique,
    verify_embedding,
)
from tests.conftest import make_random_graph


# ----------------------------------------------------------------------
# Clique-based MCS vs McGregor
# ----------------------------------------------------------------------
def test_clique_mcs_on_paper_pair():
    g1, g2 = figure1_pair()
    assert maximum_common_subgraph_clique(g1, g2).size == 4


def test_clique_mcs_on_table2():
    query = figure3_query()
    expected = (4, 4, 4, 3, 5, 5, 6)
    for graph, target in zip(figure3_database(), expected):
        assert maximum_common_subgraph_clique(graph, query).size == target, graph.name


def test_clique_mcs_agrees_with_mcgregor_on_random_graphs():
    for seed in range(25):
        g1 = make_random_graph(seed, max_vertices=5)
        g2 = make_random_graph(seed + 800, max_vertices=5)
        primary = maximum_common_subgraph(g1, g2).size
        clique = maximum_common_subgraph_clique(g1, g2).size
        assert primary == clique, f"seed {seed}: {primary} vs {clique}"


def test_clique_mcs_result_is_valid_embedding():
    for seed in (4, 14, 24):
        g1 = make_random_graph(seed, max_vertices=5)
        g2 = make_random_graph(seed + 60, max_vertices=5)
        result = maximum_common_subgraph_clique(g1, g2)
        if result.size:
            sub = result.subgraph(g1)
            assert sub.is_connected()
            mapping = {v: result.mapping[v] for v in sub.vertices()}
            assert verify_embedding(sub, g2, mapping)


def test_clique_mcs_degenerate_inputs():
    empty = LabeledGraph()
    g = path_graph(["A", "B"])
    assert maximum_common_subgraph_clique(empty, g).size == 0
    assert maximum_common_subgraph_clique(g, g.copy()).size == 1
    disjoint = path_graph(["X", "Y"])
    assert maximum_common_subgraph_clique(g, disjoint).size == 0


# ----------------------------------------------------------------------
# A* GED vs depth-first branch and bound
# ----------------------------------------------------------------------
def test_astar_on_paper_pair():
    g1, g2 = figure1_pair()
    result = graph_edit_distance_astar(g1, g2)
    assert result.distance == 4.0
    assert result.optimal


def test_astar_agrees_with_dfs_on_random_graphs():
    for seed in range(20):
        g1 = make_random_graph(seed, max_vertices=5)
        g2 = make_random_graph(seed + 900, max_vertices=5)
        dfs = graph_edit_distance(g1, g2).distance
        astar = graph_edit_distance_astar(g1, g2).distance
        assert dfs == pytest.approx(astar), f"seed {seed}"


def test_astar_mapping_realises_distance():
    from repro.graph import induced_edit_cost

    for seed in (6, 16):
        g1 = make_random_graph(seed, max_vertices=5)
        g2 = make_random_graph(seed + 70, max_vertices=5)
        result = graph_edit_distance_astar(g1, g2)
        assert induced_edit_cost(g1, g2, result.mapping) == pytest.approx(
            result.distance
        )


def test_astar_node_limit_gives_upper_bound():
    g1 = make_random_graph(31, max_vertices=6)
    g2 = make_random_graph(73, max_vertices=6)
    exact = graph_edit_distance_astar(g1, g2)
    limited = graph_edit_distance_astar(g1, g2, node_limit=1)
    assert not limited.optimal
    assert limited.distance >= exact.distance - 1e-9


def test_astar_identical_graphs():
    g = path_graph(["A", "B", "C"])
    result = graph_edit_distance_astar(g, g.copy())
    assert result.distance == 0.0


def test_astar_empty_graphs():
    assert graph_edit_distance_astar(LabeledGraph(), LabeledGraph()).distance == 0.0
    g = path_graph(["A", "B"])
    assert graph_edit_distance_astar(LabeledGraph(), g).distance == 3.0
