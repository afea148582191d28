"""Tests for index features and the bound functions they power."""

import pytest

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
from repro.measures import GraphUnionDistance, McsDistance, PairContext
from tests.conftest import make_random_graph


def test_features_extraction():
    g = path_graph(["A", "A", "B"])
    features = GraphFeatures.of(g)
    assert features.order == 3
    assert features.size == 2
    assert features.vertex_label_counter() == {"A": 2, "B": 1}


def test_features_are_hashable_and_comparable():
    f1 = GraphFeatures.of(path_graph(["A", "B"]))
    f2 = GraphFeatures.of(path_graph(["A", "B"]))
    assert f1 == f2
    assert hash(f1) == hash(f2)


def test_counters_are_cached_per_instance():
    """Micro-regression: the Counter forms are built once, not per call.

    The scalar bounds call these per database pair; rebuilding a Counter
    each time dominated their cost (the satellite fix this test pins).
    """
    f = GraphFeatures.of(path_graph(["A", "A", "B"]))
    assert f.vertex_label_counter() is f.vertex_label_counter()
    assert f.edge_label_counter() is f.edge_label_counter()
    # Caching must not leak into equality or hashing (fields only).
    g = GraphFeatures.of(path_graph(["A", "A", "B"]))
    g.vertex_label_counter()
    assert f == g and hash(f) == hash(g)


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
        cap = mcs_upper_bound(GraphFeatures.of(g1), GraphFeatures.of(g2))
        assert mcs_size(g1, g2) <= cap, f"seed {seed}"


def test_dist_mcs_lower_bound_sound():
    measure = McsDistance()
    for seed in range(15):
        g1 = make_random_graph(seed, max_vertices=5)
        g2 = make_random_graph(seed + 70, max_vertices=5)
        bound = dist_mcs_lower_bound(GraphFeatures.of(g1), GraphFeatures.of(g2))
        actual = measure.distance(g1, g2, PairContext(g1, g2))
        assert bound <= actual + 1e-9, f"seed {seed}"


def test_dist_gu_lower_bound_sound():
    measure = GraphUnionDistance()
    for seed in range(15):
        g1 = make_random_graph(seed, max_vertices=5)
        g2 = make_random_graph(seed + 80, max_vertices=5)
        bound = dist_gu_lower_bound(GraphFeatures.of(g1), GraphFeatures.of(g2))
        actual = measure.distance(g1, g2, PairContext(g1, g2))
        assert bound <= actual + 1e-9, f"seed {seed}"


def test_bounds_tight_for_identical_graphs():
    g = path_graph(["A", "B", "C"])
    f = GraphFeatures.of(g)
    assert edit_distance_lower_bound(f, f) == 0.0
    assert dist_mcs_lower_bound(f, f) == 0.0
    assert dist_gu_lower_bound(f, f) == 0.0


def test_bounds_with_empty_graph():
    from repro.graph import LabeledGraph

    empty = GraphFeatures.of(LabeledGraph())
    assert dist_mcs_lower_bound(empty, empty) == 0.0
    assert dist_gu_lower_bound(empty, empty) == 0.0
    nonempty = GraphFeatures.of(path_graph(["A", "B"]))
    assert dist_mcs_lower_bound(empty, nonempty) == 1.0
