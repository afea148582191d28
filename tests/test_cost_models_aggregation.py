"""Tests for extension cost models and scalarization measures."""

import pytest

from repro.errors import QueryError
from repro.graph import (
    LabelMatrixCostModel,
    WeightedCostModel,
    ged,
    path_graph,
)
from repro.measures import (
    ChebyshevMeasure,
    PairContext,
    WeightedSumMeasure,
    default_measures,
    weighted_sum_ranking_is_skyline_subset,
)
from repro.datasets import figure3_database, figure3_query


# ----------------------------------------------------------------------
# Cost models
# ----------------------------------------------------------------------
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
    assert ged(base, relabeled, costs=cheap_relabel) == pytest.approx(0.1)
    pricey_relabel = WeightedCostModel(
        vertex_mismatch=10.0, vertex_indel=1.0, edge_indel=0.5
    )
    # delete vertex+edge, insert vertex+edge: 1 + 0.5 + 1 + 0.5 = 3 < 10
    assert ged(base, relabeled, costs=pricey_relabel) == pytest.approx(3.0)


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
    assert ged(g1, g2, costs=cheap_no) == pytest.approx(0.1)


# ----------------------------------------------------------------------
# Scalarization measures
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def paper_pair():
    database = figure3_database()
    return database[0], figure3_query()


def test_weighted_sum_measure(paper_pair):
    g1, query = paper_pair
    aggregated = WeightedSumMeasure(("edit", "mcs", "union"), (1.0, 1.0, 1.0))
    context = PairContext(g1, query)
    components = [
        measure.distance(g1, query, context) for measure in default_measures()
    ]
    assert aggregated.distance(g1, query, context) == pytest.approx(sum(components))
    assert aggregated.name.startswith("wsum(")


def test_chebyshev_measure(paper_pair):
    g1, query = paper_pair
    aggregated = ChebyshevMeasure(("mcs", "union"), (1.0, 1.0))
    context = PairContext(g1, query)
    assert aggregated.distance(g1, query, context) == pytest.approx(0.5)  # max


def test_aggregation_weight_validation():
    with pytest.raises(QueryError):
        WeightedSumMeasure(("edit",), (1.0, 2.0))  # length mismatch
    with pytest.raises(QueryError):
        WeightedSumMeasure(("edit",), (-1.0,))
    with pytest.raises(QueryError):
        WeightedSumMeasure(("edit", "mcs"), (0.0, 0.0))


def test_weighted_sum_minimiser_is_skyline_member():
    """The textbook theorem, on the paper's own example."""
    database = figure3_database()
    query = figure3_query()
    for weights in ((1.0, 1.0, 1.0), (0.1, 1.0, 2.0), (5.0, 0.5, 0.5)):
        assert weighted_sum_ranking_is_skyline_subset(
            database, query, ("edit", "mcs", "union"), weights
        ), weights


def test_weighted_sum_check_rejects_zero_weights():
    with pytest.raises(QueryError):
        weighted_sum_ranking_is_skyline_subset(
            figure3_database(), figure3_query(), ("edit",), (0.0,)
        )
