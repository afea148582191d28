"""Tests for the GED bracket's two sides and the induced edit cost of a mapping.

The bracket (``PairContext.ged_bracket()``) is one bipartite assignment:
its lower side is the BRANCH bound under the uniform model, its upper side
the induced cost of the assignment's complete mapping.
"""

import pytest

from repro.graph import (
    LabeledGraph,
    UniformCostModel,
    graph_edit_distance,
    induced_edit_cost,
    path_graph,
)
from repro.graph.operations import CostModel
from repro.measures.base import PairContext
from tests.conftest import make_random_graph


def _bracket(g1, g2, costs=None):
    if costs is None:
        return PairContext(g1, g2).ged_bracket()
    return PairContext(g1, g2, costs).ged_bracket()


def test_lower_bound_is_admissible():
    pytest.importorskip("scipy")
    for seed in range(15):
        g1 = make_random_graph(seed, max_vertices=5)
        g2 = make_random_graph(seed + 111, max_vertices=5)
        exact = graph_edit_distance(g1, g2).distance
        assert _bracket(g1, g2).lower <= exact + 1e-9, f"seed {seed}"


def test_lower_bound_zero_for_identical():
    g = path_graph(["A", "B", "C"])
    assert _bracket(g, g.copy()).lower == 0.0


def test_lower_bound_counts_label_differences():
    pytest.importorskip("scipy")
    g1 = path_graph(["A", "B"])
    g2 = path_graph(["A", "Z"])
    assert _bracket(g1, g2).lower == 1.0


def test_lower_bound_generic_cost_model_degrades_to_zero():
    pytest.importorskip("scipy")

    class Weird(UniformCostModel):
        pass

    g1, g2 = path_graph(["A", "B"]), path_graph(["C", "D"])
    # a subclass of UniformCostModel still gets the real bound
    assert _bracket(g1, g2, Weird()).lower > 0

    class Opaque(CostModel):
        def vertex_substitution(self, a, b):
            return 0.5

        vertex_deletion = vertex_insertion = lambda self, label: 0.5
        edge_substitution = lambda self, a, b: 0.5
        edge_deletion = edge_insertion = lambda self, label: 0.5

    opaque = Opaque()
    bracket = _bracket(g1, g2, opaque)
    assert bracket.lower == 0.0
    # the upper side is still a realised mapping under that model
    exact = graph_edit_distance(g1, g2, costs=opaque).distance
    assert bracket.upper >= exact - 1e-9


def test_bipartite_is_upper_bound():
    for seed in range(15):
        g1 = make_random_graph(seed, max_vertices=5)
        g2 = make_random_graph(seed + 222, max_vertices=5)
        exact = graph_edit_distance(g1, g2).distance
        assert _bracket(g1, g2).upper >= exact - 1e-9, f"seed {seed}"


def test_bracket_mapping_realises_its_upper_side():
    pytest.importorskip("scipy")
    for seed in range(15):
        g1 = make_random_graph(seed, max_vertices=5)
        g2 = make_random_graph(seed + 222, max_vertices=5)
        bracket = PairContext(g1, g2).ged_bracket()
        assert induced_edit_cost(g1, g2, bracket.mapping) == bracket.upper
        exact = graph_edit_distance(g1, g2).distance
        assert bracket.upper >= exact - 1e-9, f"seed {seed}"


def test_bipartite_exact_on_identical():
    pytest.importorskip("scipy")
    g = path_graph(["A", "B", "C", "D"])
    bracket = _bracket(g, g.copy())
    assert bracket.upper == 0.0
    assert bracket.settled


def test_bipartite_empty_graphs():
    empty = LabeledGraph()
    assert _bracket(empty, empty).upper == 0.0
    g = path_graph(["A", "B"])
    assert _bracket(empty, g).upper == 3.0  # 2 vertices + 1 edge


def test_induced_cost_of_explicit_mapping():
    g1 = path_graph(["A", "B"])  # vertices 0,1
    g2 = path_graph(["A", "B"])
    assert induced_edit_cost(g1, g2, {0: 0, 1: 1}) == 0.0
    # cross mapping: both vertices mismatch, edge still maps
    assert induced_edit_cost(g1, g2, {0: 1, 1: 0}) == 2.0
    # deleting everything: 2 vertex dels + 1 edge del + reinsert all of g2
    assert induced_edit_cost(g1, g2, {0: None, 1: None}) == 6.0
