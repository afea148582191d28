"""Tests for index features and the bound functions they power."""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings

from repro.graph import (
    GraphFeatures,
    dist_gu_lower_bound,
    dist_mcs_lower_bound,
    edit_distance_lower_bound,
    ged,
    mcs_size,
    mcs_upper_bound,
    path_graph,
)
from repro.graph.mcs_clique import maximum_common_subgraph_clique
from repro.measures import GraphUnionDistance, McsDistance, PairContext
from tests.conftest import make_random_graph, small_labeled_graphs

#: Equal-by-``==`` spellings beside plain strings.
MIXED_VERTEX_LABELS = (1, 1.0, True, "C", "N")
MIXED_EDGE_LABELS = (1, True, 1.0, "single", "double")


def test_features_extraction():
    g = path_graph(["A", "A", "B"])
    features = GraphFeatures.of(g)
    assert features.order == 3
    assert features.size == 2
    assert features.vertex_labels == (("A", 2), ("B", 1))


def test_features_are_hashable_and_comparable():
    f1 = GraphFeatures.of(path_graph(["A", "B"]))
    f2 = GraphFeatures.of(path_graph(["A", "B"]))
    assert f1 == f2
    assert hash(f1) == hash(f2)


def test_features_hold_their_fields_only():
    """Bounding a pair leaves no derived object on the stored features:
    they live as long as their graph, so a cache there would too."""
    g1, g2 = path_graph(["A", "A", "B"]), path_graph(["A", "B"])
    f1, f2 = GraphFeatures.of(g1), GraphFeatures.of(g2)
    edit_distance_lower_bound(f1, f2)
    dist_gu_lower_bound(f1, f2, mcs_upper_bound(g1, g2))
    assert set(vars(f1)) == set(vars(f2)) == {
        "order", "size", "vertex_labels", "edge_labels"
    }


def test_edit_lower_bound_admissible():
    for seed in range(15):
        g1 = make_random_graph(seed, max_vertices=5)
        g2 = make_random_graph(seed + 50, max_vertices=5)
        bound = edit_distance_lower_bound(GraphFeatures.of(g1), GraphFeatures.of(g2))
        assert bound <= ged(g1, g2) + 1e-9, f"seed {seed}"


def test_mcs_upper_bound_sound():
    for seed in range(15):
        g1 = make_random_graph(seed, max_vertices=5)
        g2 = make_random_graph(seed + 60, max_vertices=5)
        cap = mcs_upper_bound(g1, g2)
        assert mcs_size(g1, g2) <= cap, f"seed {seed}"


def _edge_label_overlap(g1, g2) -> int:
    """The index's |mcs| bound before edge types: edge labels only."""
    return sum((g1.edge_label_multiset() & g2.edge_label_multiset()).values())


def _undirected_type_overlap(g1, g2) -> int:
    """The bound with each edge keyed once, by an unordered label pair."""

    def types(graph):
        return Counter(
            (frozenset((graph.vertex_label(u), graph.vertex_label(v))), label)
            for u, v, label in graph.edges()
        )

    return sum((types(g1) & types(g2)).values())


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    g1=small_labeled_graphs(5, MIXED_VERTEX_LABELS, MIXED_EDGE_LABELS),
    g2=small_labeled_graphs(5, MIXED_VERTEX_LABELS, MIXED_EDGE_LABELS),
)
def test_edge_type_bound_brackets_mcs_below_the_edge_label_overlap(g1, g2):
    """exact |mcs| <= edge-type overlap <= edge-label overlap, with labels
    ``1``, ``1.0`` and ``True`` one label on vertices and edges alike; the
    exact size from both MCS solvers."""
    pytest.importorskip("networkx")
    cap = mcs_upper_bound(g1, g2)
    exact = mcs_size(g1, g2)
    assert exact == maximum_common_subgraph_clique(g1, g2).size
    assert exact <= cap <= _edge_label_overlap(g1, g2)
    assert cap == mcs_upper_bound(g2, g1) == _undirected_type_overlap(g1, g2)


def test_edge_type_bound_separates_endpoint_labels():
    # Same edge labels, different endpoints: nothing can be common.
    g1 = path_graph(["A", "B", "A"])
    g2 = path_graph(["C", "D", "C"])
    assert _edge_label_overlap(g1, g2) == 2
    assert mcs_upper_bound(g1, g2) == 0 == mcs_size(g1, g2)
    # Equal spellings of one label are one endpoint label.
    assert mcs_upper_bound(path_graph([1, 2, 1]), path_graph([True, 2.0, 1.0])) == 2


def test_dist_mcs_lower_bound_sound():
    measure = McsDistance()
    for seed in range(15):
        g1 = make_random_graph(seed, max_vertices=5)
        g2 = make_random_graph(seed + 70, max_vertices=5)
        bound = dist_mcs_lower_bound(
            GraphFeatures.of(g1), GraphFeatures.of(g2), mcs_upper_bound(g1, g2)
        )
        actual = measure.distance(g1, g2, PairContext(g1, g2))
        assert bound <= actual + 1e-9, f"seed {seed}"


def test_dist_gu_lower_bound_sound():
    measure = GraphUnionDistance()
    for seed in range(15):
        g1 = make_random_graph(seed, max_vertices=5)
        g2 = make_random_graph(seed + 80, max_vertices=5)
        bound = dist_gu_lower_bound(
            GraphFeatures.of(g1), GraphFeatures.of(g2), mcs_upper_bound(g1, g2)
        )
        actual = measure.distance(g1, g2, PairContext(g1, g2))
        assert bound <= actual + 1e-9, f"seed {seed}"


def test_bounds_tight_for_identical_graphs():
    g = path_graph(["A", "B", "C"])
    f = GraphFeatures.of(g)
    cap = mcs_upper_bound(g, g)
    assert cap == g.size
    assert edit_distance_lower_bound(f, f) == 0.0
    assert dist_mcs_lower_bound(f, f, cap) == 0.0
    assert dist_gu_lower_bound(f, f, cap) == 0.0


def test_bounds_with_empty_graph():
    from repro.graph import LabeledGraph

    empty = GraphFeatures.of(LabeledGraph())
    assert mcs_upper_bound(LabeledGraph(), path_graph(["A", "B"])) == 0
    assert dist_mcs_lower_bound(empty, empty, 0) == 0.0
    assert dist_gu_lower_bound(empty, empty, 0) == 0.0
    nonempty = GraphFeatures.of(path_graph(["A", "B"]))
    assert dist_mcs_lower_bound(empty, nonempty, 0) == 1.0
