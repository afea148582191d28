"""Property-based tests (hypothesis) for core invariants.

Graph-pair properties run on small random labeled graphs where the exact
solvers stay fast; skyline properties run on random integer vectors.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.graph import (
    graph_edit_distance,
    canonical_form,
    is_isomorphic,
    mcs_size,
)
from repro.measures import (
    GraphUnionDistance,
    McsDistance,
    PairContext,
    graph_union_similarity,
    mcs_similarity,
)
from repro.skyline import dominates, is_skyline, skyline
from tests.conftest import (
    MIXED_EDGE_LABELS,
    MIXED_VERTEX_LABELS,
    small_labeled_graphs,
    vector_lists,
)

GRAPH_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
VECTOR_SETTINGS = settings(max_examples=120, deadline=None)


# ----------------------------------------------------------------------
# GED properties
# ----------------------------------------------------------------------
@GRAPH_SETTINGS
@given(small_labeled_graphs(), small_labeled_graphs())
def test_ged_symmetric(g1, g2):
    assert graph_edit_distance(g1, g2).distance == pytest.approx(graph_edit_distance(g2, g1).distance)


@GRAPH_SETTINGS
@given(small_labeled_graphs())
def test_ged_identity(graph):
    assert graph_edit_distance(graph, graph.copy()).distance == 0.0


@GRAPH_SETTINGS
@given(small_labeled_graphs(), small_labeled_graphs())
def test_ged_zero_iff_isomorphic(g1, g2):
    distance = graph_edit_distance(g1, g2).distance
    assert (distance == 0.0) == is_isomorphic(g1, g2)


@GRAPH_SETTINGS
@given(small_labeled_graphs(), small_labeled_graphs())
def test_ged_bounds_sandwich(g1, g2):
    exact = graph_edit_distance(g1, g2).distance
    bracket = PairContext(g1, g2).ged_bracket()
    assert bracket.lower <= exact + 1e-9
    assert bracket.upper >= exact - 1e-9


# ----------------------------------------------------------------------
# MCS / measure properties
# ----------------------------------------------------------------------
@GRAPH_SETTINGS
@given(small_labeled_graphs(), small_labeled_graphs())
def test_mcs_symmetric_and_bounded(g1, g2):
    size = mcs_size(g1, g2)
    assert size == mcs_size(g2, g1)
    assert 0 <= size <= min(g1.size, g2.size)


@GRAPH_SETTINGS
@given(small_labeled_graphs(), small_labeled_graphs())
def test_sim_gu_never_exceeds_sim_mcs(g1, g2):
    """The dominance SimGu <= SimMcs claimed in Section IV-C."""
    context = PairContext(g1, g2)
    assert graph_union_similarity(g1, g2, context) <= (
        mcs_similarity(g1, g2, context) + 1e-12
    )


@GRAPH_SETTINGS
@given(small_labeled_graphs(), small_labeled_graphs())
def test_distances_normalized(g1, g2):
    context = PairContext(g1, g2)
    for measure in (McsDistance(), GraphUnionDistance()):
        value = measure.distance(g1, g2, context)
        assert -1e-12 <= value <= 1.0 + 1e-12


MIXED_GRAPHS = small_labeled_graphs(
    connected=True,
    vertex_labels=MIXED_VERTEX_LABELS,
    edge_labels=MIXED_EDGE_LABELS,
)


@GRAPH_SETTINGS
@given(MIXED_GRAPHS, MIXED_GRAPHS)
def test_canonical_form_isomorphism_invariant(g1, g2):
    """Equal canonical forms coincide with isomorphism on small graphs,
    labels matched by equality (``1``, ``1.0`` and ``True`` are one)."""
    same_form = canonical_form(g1) == canonical_form(g2)
    assert same_form == is_isomorphic(g1, g2)


# ----------------------------------------------------------------------
# Skyline properties
# ----------------------------------------------------------------------
@VECTOR_SETTINGS
@given(vector_lists())
def test_skyline_is_sound_and_complete(vectors):
    assert is_skyline(vectors, skyline(vectors))


@VECTOR_SETTINGS
@given(vector_lists(max_points=15))
def test_skyline_members_undominated_nonmembers_dominated(vectors):
    members = set(skyline(vectors))
    for i, p in enumerate(vectors):
        dominated = any(
            dominates(q, p) for j, q in enumerate(vectors) if j != i
        )
        assert (i in members) == (not dominated)


@VECTOR_SETTINGS
@given(vector_lists(max_points=15))
def test_dominance_is_a_strict_partial_order(vectors):
    # irreflexive + asymmetric + transitive on the sample
    for i, p in enumerate(vectors):
        assert not dominates(p, p)
        for q in vectors:
            if dominates(p, q):
                assert not dominates(q, p)
    for p in vectors:
        for q in vectors:
            for r in vectors:
                if dominates(p, q) and dominates(q, r):
                    assert dominates(p, r)


@VECTOR_SETTINGS
@given(vector_lists(max_points=20))
def test_skyline_invariant_under_duplication(vectors):
    """Appending a copy of a skyline point must keep both copies in."""
    if not vectors:
        return
    base = skyline(vectors)
    if not base:
        return
    duplicated = list(vectors) + [vectors[base[0]]]
    result = set(skyline(duplicated))
    assert base[0] in result
    assert len(duplicated) - 1 in result
