"""Tests for the extension cost models."""

import pytest

from repro.graph import (
    LabelMatrixCostModel,
    WeightedCostModel,
    graph_edit_distance,
    path_graph,
)


def test_weighted_cost_model_prices():
    model = WeightedCostModel(
        vertex_indel=2.0, vertex_mismatch=0.5, edge_indel=3.0, edge_mismatch=0.25
    )
    assert model.vertex_deletion("A") == 2.0
    assert model.vertex_insertion("A") == 2.0
    assert model.vertex_substitution("A", "B") == 0.5
    assert model.vertex_substitution("A", "A") == 0.0
    assert model.edge_deletion("x") == 3.0
    assert model.edge_substitution("x", "y") == 0.25
    with pytest.raises(ValueError):
        WeightedCostModel(vertex_indel=-1.0)


def test_weighted_costs_change_optimal_solution():
    base = path_graph(["A", "B"])
    relabeled = path_graph(["A", "Z"])
    cheap_relabel = WeightedCostModel(vertex_mismatch=0.1)
    assert graph_edit_distance(base, relabeled, costs=cheap_relabel).distance == pytest.approx(0.1)
    pricey_relabel = WeightedCostModel(
        vertex_mismatch=10.0, vertex_indel=1.0, edge_indel=0.5
    )
    # delete vertex+edge, insert vertex+edge: 1 + 0.5 + 1 + 0.5 = 3 < 10
    assert graph_edit_distance(base, relabeled, costs=pricey_relabel).distance == pytest.approx(3.0)


def test_label_matrix_cost_model_lookup():
    model = LabelMatrixCostModel(
        vertex_matrix={("C", "N"): 0.3},
        edge_matrix={("single", "double"): 0.2},
        default_mismatch=5.0,
    )
    assert model.vertex_substitution("C", "N") == 0.3
    assert model.vertex_substitution("N", "C") == 0.3  # symmetric lookup
    assert model.vertex_substitution("C", "C") == 0.0
    assert model.vertex_substitution("C", "O") == 5.0  # default
    assert model.edge_substitution("double", "single") == 0.2
    with pytest.raises(ValueError):
        LabelMatrixCostModel(vertex_matrix={("A", "B"): -1.0})
    with pytest.raises(ValueError):
        LabelMatrixCostModel(indel_cost=-0.5)


def test_label_matrix_model_in_exact_solver():
    g1 = path_graph(["C", "C", "N"])
    g2 = path_graph(["C", "C", "O"])
    cheap_no = LabelMatrixCostModel(vertex_matrix={("N", "O"): 0.1})
    assert graph_edit_distance(g1, g2, costs=cheap_no).distance == pytest.approx(0.1)
