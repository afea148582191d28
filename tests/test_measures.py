"""Tests for the distance measures of Section IV."""

import pytest

from repro.errors import QueryError
from repro.graph import LabeledGraph, path_graph
from repro.measures import (
    EditDistance,
    FunctionMeasure,
    GraphUnionDistance,
    McsDistance,
    NormalizedEditDistance,
    PairContext,
    available_measures,
    check_gu_dominated_by_mcs,
    check_measure_properties,
    default_measures,
    diversity_measures,
    get_measure,
    graph_union_similarity,
    mcs_similarity,
    resolve_measures,
)
from tests import solver_golden
from tests.conftest import make_random_graph


# ----------------------------------------------------------------------
# The paper's worked pair (Examples 2-4)
# ----------------------------------------------------------------------
def test_paper_pair_edit_distance(fig1_g1, fig1_g2):
    assert EditDistance().distance(fig1_g1, fig1_g2) == 4.0


def test_paper_pair_mcs_distance(fig1_g1, fig1_g2):
    assert McsDistance().distance(fig1_g1, fig1_g2) == pytest.approx(1 - 4 / 6)


def test_paper_pair_union_distance(fig1_g1, fig1_g2):
    assert GraphUnionDistance().distance(fig1_g1, fig1_g2) == pytest.approx(0.5)


def test_normalized_edit_distance(fig1_g1, fig1_g2):
    value = NormalizedEditDistance().distance(fig1_g1, fig1_g2)
    assert value == pytest.approx(4 / 5)


# ----------------------------------------------------------------------
# Semantics
# ----------------------------------------------------------------------
def test_similarities_on_identical_graphs(triangle):
    context = PairContext(triangle, triangle.copy())
    assert mcs_similarity(triangle, triangle.copy(), context) == 1.0
    assert graph_union_similarity(triangle, triangle.copy(), context) == 1.0


def test_empty_graphs_at_distance_zero():
    empty1, empty2 = LabeledGraph(), LabeledGraph()
    assert McsDistance().distance(empty1, empty2) == 0.0
    assert GraphUnionDistance().distance(empty1, empty2) == 0.0
    assert EditDistance().distance(empty1, empty2) == 0.0


def test_gu_is_stronger_than_mcs():
    """SimGu <= SimMcs for every pair (paper, Section IV-C)."""
    graphs = [make_random_graph(seed, max_vertices=5) for seed in range(8)]
    assert check_gu_dominated_by_mcs(graphs) == []


def test_gu_reacts_to_smaller_graph_growth():
    """The paper's motivation for DistGu: growing the smaller graph while
    the mcs stays constant changes DistGu but not DistMcs."""
    big = path_graph(["A", "B", "C", "D", "E", "F"], name="big")  # 5 edges
    small = path_graph(["A", "B", "C"], name="small")  # 2 edges
    grown = path_graph(["A", "B", "C"], name="grown")
    grown.add_vertex(9, "Z")
    grown.add_edge(9, 0, "w")  # 3 edges now, mcs with big unchanged (2)
    mcs_measure, gu_measure = McsDistance(), GraphUnionDistance()
    assert mcs_measure.distance(big, small) == mcs_measure.distance(big, grown)
    assert gu_measure.distance(big, grown) > gu_measure.distance(big, small)


def test_pair_context_caches_mcs_and_ged(fig1_g1, fig1_g2):
    context = PairContext(fig1_g1, fig1_g2)
    first = context.mcs
    assert context.mcs is first  # memoised
    first_ged = context.ged
    assert context.ged is first_ged


def test_context_speeds_shared_computation(fig1_g1, fig1_g2):
    context = PairContext(fig1_g1, fig1_g2)
    d_mcs = McsDistance().distance(fig1_g1, fig1_g2, context)
    d_gu = GraphUnionDistance().distance(fig1_g1, fig1_g2, context)
    # both used the same mcs result: consistent values
    size = context.mcs.size
    assert d_mcs == pytest.approx(1 - size / max(fig1_g1.size, fig1_g2.size))
    assert d_gu == pytest.approx(
        1 - size / (fig1_g1.size + fig1_g2.size - size)
    )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_registry_contains_all_measures():
    names = available_measures()
    for expected in ("edit", "edit-normalized", "mcs", "union"):
        assert expected in names


def test_get_measure_by_name_and_instance():
    assert isinstance(get_measure("edit"), EditDistance)
    instance = McsDistance()
    assert get_measure(instance) is instance
    with pytest.raises(QueryError):
        get_measure("no-such-measure")


def test_resolve_measures_rejects_empty():
    with pytest.raises(QueryError):
        resolve_measures(())


def test_default_and_diversity_vectors():
    assert [m.name for m in default_measures()] == ["edit", "mcs", "union"]
    assert [m.name for m in diversity_measures()] == [
        "edit-normalized", "mcs", "union",
    ]


def test_function_measure_adapter(triangle, small_path):
    measure = FunctionMeasure(
        lambda a, b: abs(a.size - b.size), name="size-gap", normalized=False
    )
    assert measure.distance(triangle, small_path) == 0.0
    assert measure.name == "size-gap"
    assert "size-gap" in repr(measure)


# ----------------------------------------------------------------------
# Property harness
# ----------------------------------------------------------------------
def test_property_harness_paper_measures_are_metrics():
    graphs = [make_random_graph(seed, max_vertices=4) for seed in range(6)]
    for measure in default_measures():
        report = check_measure_properties(measure, graphs)
        assert report.ok, f"{measure.name}: {report.violations}"
        assert report.checked_pairs == 15


def test_property_harness_detects_violations():
    bad = FunctionMeasure(
        lambda a, b: a.size - b.size,  # negative + asymmetric
        name="bad",
        normalized=True,
    )
    graphs = [path_graph(["A"] * n) for n in (2, 3, 4)]
    report = check_measure_properties(bad, graphs, check_triangle=False)
    assert not report.ok
    assert "symmetry" in report.violations or "non-negativity" in report.violations


def test_property_harness_triangle_toggle():
    graphs = [make_random_graph(seed, max_vertices=3) for seed in range(4)]
    report = check_measure_properties(
        McsDistance(), graphs, check_triangle=False
    )
    assert report.checked_triples == 0


@pytest.mark.parametrize("model", sorted(solver_golden.COST_MODELS))
def test_edit_distances_claim_metricity_only_under_the_uniform_model(model):
    from repro.graph.operations import UniformCostModel

    costs = solver_golden.COST_MODELS[model]
    uniform = isinstance(costs, UniformCostModel)
    assert EditDistance(costs).is_metric is uniform
    assert NormalizedEditDistance(costs).is_metric is uniform
    assert EditDistance().is_metric and NormalizedEditDistance().is_metric
    assert not EditDistance(UniformCostModel(mismatch_cost=0.0)).is_metric
