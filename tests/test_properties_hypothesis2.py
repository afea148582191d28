"""Second property-based suite: algebra, ranks, skyband."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.diversity import dense_ranks_descending
from repro.graph import graph_intersection, graph_union
from repro.skyline import (
    dominator_counts,
    k_skyband,
    naive_skyline,
    top_k_dominating,
)
from tests.conftest import small_labeled_graphs, vector_lists

SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# ----------------------------------------------------------------------
# Graph algebra
# ----------------------------------------------------------------------
@SETTINGS
@given(small_labeled_graphs(vertex_labels=("A",), edge_labels=("x",)),
       small_labeled_graphs(vertex_labels=("A",), edge_labels=("x",)))
def test_union_size_identity(g1, g2):
    """|union| = |g1| + |g2| - |intersection| for id-aligned graphs with
    a single label alphabet (no conflicts possible)."""
    union = graph_union(g1, g2)
    intersection = graph_intersection(g1, g2)
    assert union.size == g1.size + g2.size - intersection.size
    assert union.order == g1.order + g2.order - intersection.order


@SETTINGS
@given(small_labeled_graphs(vertex_labels=("A",), edge_labels=("x",)))
def test_union_intersection_with_self(graph):
    assert graph_union(graph, graph).size == graph.size
    assert graph_intersection(graph, graph).size == graph.size


@SETTINGS
@given(small_labeled_graphs(vertex_labels=("A",), edge_labels=("x",)),
       small_labeled_graphs(vertex_labels=("A",), edge_labels=("x",)))
def test_intersection_is_subgraph_of_both(g1, g2):
    intersection = graph_intersection(g1, g2)
    for u, v, label in intersection.edges():
        assert g1.has_edge(u, v) and g1.edge_label(u, v) == label
        assert g2.has_edge(u, v) and g2.edge_label(u, v) == label


# ----------------------------------------------------------------------
# Dense ranks
# ----------------------------------------------------------------------
@SETTINGS
@given(st.lists(st.integers(min_value=0, max_value=10).map(float), max_size=20))
def test_dense_ranks_properties(values):
    ranks = dense_ranks_descending(values)
    assert len(ranks) == len(values)
    if values:
        assert min(ranks) == 1
        assert max(ranks) == len(set(values))
        # equal values share ranks; larger values get smaller ranks
        for i, vi in enumerate(values):
            for j, vj in enumerate(values):
                if vi == vj:
                    assert ranks[i] == ranks[j]
                elif vi > vj:
                    assert ranks[i] < ranks[j]


# ----------------------------------------------------------------------
# k-skyband
# ----------------------------------------------------------------------
@SETTINGS
@given(vector_lists(max_points=20))
def test_skyband_k1_is_skyline(vectors):
    assert k_skyband(vectors, 1) == naive_skyline(vectors)


@SETTINGS
@given(vector_lists(max_points=20), st.integers(min_value=1, max_value=5))
def test_skyband_membership_definition(vectors, k):
    members = set(k_skyband(vectors, k))
    counts = dominator_counts(vectors)
    for i in range(len(vectors)):
        assert (i in members) == (counts[i] < k)


@SETTINGS
@given(vector_lists(max_points=15))
def test_topk_dominating_is_sorted_by_counts(vectors):
    from repro.skyline import dominance_counts

    order = top_k_dominating(vectors, len(vectors))
    counts = dominance_counts(vectors)
    scored = [counts[i] for i in order]
    assert scored == sorted(scored, reverse=True)
