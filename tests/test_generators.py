"""Tests for graph generators and the mutation workload model."""

import random

import pytest

from repro.errors import GraphError
from repro.graph import (
    LabeledGraph,
    cycle_graph,
    graph_edit_distance,
    is_isomorphic,
    mutate,
    path_graph,
    random_labeled_graph,
)


def test_path_graph_shape():
    g = path_graph(["A", "B", "C", "D"])
    assert g.order == 4
    assert g.size == 3
    assert g.degree(0) == 1
    assert g.degree(1) == 2
    assert g.is_connected()


def test_cycle_graph_shape():
    g = cycle_graph(["A", "B", "C"])
    assert g.size == 3
    assert all(g.degree(v) == 2 for v in g.vertices())
    with pytest.raises(GraphError):
        cycle_graph(["A", "B"])


def test_random_graph_respects_counts_and_connectivity():
    for seed in range(10):
        g = random_labeled_graph(7, 9, seed=seed)
        assert g.order == 7
        assert g.size == 9
        assert g.is_connected()


def test_random_graph_deterministic_by_seed():
    g1 = random_labeled_graph(6, 8, seed=42)
    g2 = random_labeled_graph(6, 8, seed=42)
    assert g1 == g2
    g3 = random_labeled_graph(6, 8, seed=43)
    assert not is_isomorphic(g1, g3) or g1 != g3  # almost surely different


def test_random_graph_disconnected_allowed():
    g = random_labeled_graph(6, 2, connected=False, seed=1)
    assert g.size == 2


def test_random_graph_validation():
    with pytest.raises(GraphError):
        random_labeled_graph(3, 4)  # too many edges
    with pytest.raises(GraphError):
        random_labeled_graph(5, 2, connected=True)  # too few for connected


def test_mutate_bounds_edit_distance():
    base = path_graph(["A", "B", "C", "D", "E"], name="base")
    for seed in range(8):
        mutant = mutate(base, 3, seed=seed)
        assert graph_edit_distance(base, mutant).distance <= 3.0, f"seed {seed}"


def test_mutate_zero_operations_is_identity():
    base = path_graph(["A", "B", "C"])
    assert mutate(base, 0, seed=1) == base


def test_mutate_keeps_connectivity_by_default():
    base = cycle_graph(["A", "B", "C", "D"])
    for seed in range(8):
        assert mutate(base, 4, seed=seed).is_connected()


def test_mutate_gives_up_when_stuck():
    # Single vertex, one label, nothing to do except spin.
    g = LabeledGraph()
    g.add_vertex(0, "A")
    with pytest.raises(GraphError):
        mutate(g, 1, vertex_labels=("A",), edge_labels=("-",), seed=0)


def test_mutate_accepts_shared_rng():
    rng = random.Random(7)
    base = path_graph(["A", "B", "C"])
    first = mutate(base, 2, seed=rng)
    second = mutate(base, 2, seed=rng)
    # consuming one stream: almost surely different mutants
    assert first != second or graph_edit_distance(first, second).distance == 0
