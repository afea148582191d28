"""Tests for GED bounds and heuristics (bipartite / lower bound)."""

import pytest

from repro.graph import (
    LabeledGraph,
    UniformCostModel,
    bipartite_ged,
    ged,
    ged_lower_bound,
    induced_edit_cost,
    path_graph,
)
from tests.conftest import make_random_graph


def test_lower_bound_is_admissible():
    for seed in range(15):
        g1 = make_random_graph(seed, max_vertices=5)
        g2 = make_random_graph(seed + 111, max_vertices=5)
        assert ged_lower_bound(g1, g2) <= ged(g1, g2) + 1e-9, f"seed {seed}"


def test_lower_bound_zero_for_identical():
    g = path_graph(["A", "B", "C"])
    assert ged_lower_bound(g, g.copy()) == 0.0


def test_lower_bound_counts_label_differences():
    g1 = path_graph(["A", "B"])
    g2 = path_graph(["A", "Z"])
    assert ged_lower_bound(g1, g2) == 1.0


def test_lower_bound_generic_cost_model_degrades_to_zero():
    class Weird(UniformCostModel):
        pass

    weird = Weird()
    g1, g2 = path_graph(["A", "B"]), path_graph(["C", "D"])
    # subclass of UniformCostModel still gets the real bound
    assert ged_lower_bound(g1, g2, costs=weird) > 0

    from repro.graph.operations import CostModel

    class Opaque(CostModel):
        def vertex_substitution(self, a, b):
            return 0.5

        vertex_deletion = vertex_insertion = lambda self, label: 0.5
        edge_substitution = lambda self, a, b: 0.5
        edge_deletion = edge_insertion = lambda self, label: 0.5

    assert ged_lower_bound(g1, g2, costs=Opaque()) == 0.0


def test_bipartite_is_upper_bound():
    for seed in range(15):
        g1 = make_random_graph(seed, max_vertices=5)
        g2 = make_random_graph(seed + 222, max_vertices=5)
        estimate = bipartite_ged(g1, g2)
        exact = ged(g1, g2)
        assert estimate.distance >= exact - 1e-9, f"seed {seed}"


def test_bipartite_mapping_realises_reported_distance():
    g1 = make_random_graph(4, max_vertices=5)
    g2 = make_random_graph(44, max_vertices=5)
    estimate = bipartite_ged(g1, g2)
    assert induced_edit_cost(g1, g2, estimate.mapping) == pytest.approx(
        estimate.distance
    )


def test_bipartite_exact_on_identical():
    g = path_graph(["A", "B", "C", "D"])
    assert bipartite_ged(g, g.copy()).distance == 0.0


def test_bipartite_empty_graphs():
    empty = LabeledGraph()
    assert bipartite_ged(empty, empty).distance == 0.0
    g = path_graph(["A", "B"])
    assert bipartite_ged(empty, g).distance == 3.0  # 2 vertices + 1 edge


def test_induced_cost_of_explicit_mapping():
    g1 = path_graph(["A", "B"])  # vertices 0,1
    g2 = path_graph(["A", "B"])
    assert induced_edit_cost(g1, g2, {0: 0, 1: 1}) == 0.0
    # cross mapping: both vertices mismatch, edge still maps
    assert induced_edit_cost(g1, g2, {0: 1, 1: 0}) == 2.0
    # deleting everything: 2 vertex dels + 1 edge del + reinsert all of g2
    assert induced_edit_cost(g1, g2, {0: None, 1: None}) == 6.0
