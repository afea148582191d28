"""Edge-case sweep: branches not reached by the main suites."""

import time

import pytest

from repro import Query, connect
from repro.core import graph_similarity_skyline
from repro.db.stats import PhaseTimer, QueryStats
from repro.errors import QueryError
from repro.graph import (
    LabeledGraph,
    canonical_form,
    edit_path_from_mapping,
    graph_edit_distance,
    is_isomorphic,
    maximum_common_subgraph,
    path_graph,
)
from repro.skyline import is_skyline, k_skyband, skyline


# ----------------------------------------------------------------------
# Edit-path id collisions
# ----------------------------------------------------------------------
def test_edit_path_with_colliding_vertex_ids():
    """g2-only vertices whose ids also exist in g1 must get fresh ids."""
    g1 = LabeledGraph.from_edges([(1, 2)], vertex_labels={1: "A", 2: "B"})
    # g2 reuses id 1 for a *different* role and has an extra vertex id 2
    g2 = LabeledGraph.from_edges(
        [(1, 2), (2, 3)], vertex_labels={1: "X", 2: "Y", 3: "Z"}
    )
    result = graph_edit_distance(g1, g2)
    path = edit_path_from_mapping(g1, g2, result.mapping)
    transformed = path.apply(g1)
    assert is_isomorphic(transformed, g2)
    assert path.cost() == pytest.approx(result.distance)


def test_edit_path_total_replacement():
    g1 = path_graph(["A", "B"])
    g2 = LabeledGraph.from_edges(
        [(0, 1)], vertex_labels={0: "X", 1: "Y"}
    )  # same ids, disjoint labels
    result = graph_edit_distance(g1, g2)
    path = edit_path_from_mapping(g1, g2, result.mapping)
    assert is_isomorphic(path.apply(g1), g2)


# ----------------------------------------------------------------------
# Skyline selection over degenerate vector sets
# ----------------------------------------------------------------------
def test_skyline_with_all_identical_vectors():
    vectors = [(1.0, 1.0)] * 40  # nobody dominates a copy of itself
    assert skyline(vectors) == list(range(40))
    assert k_skyband(vectors, 1, tolerance=0.5) == list(range(40))


def test_skyline_with_single_splittable_dimension():
    vectors = [(1.0, float(i % 5)) for i in range(40)]
    answer = skyline(vectors)
    assert answer == list(range(0, 40, 5))  # every copy of (1, 0)
    assert is_skyline(vectors, answer)


# ----------------------------------------------------------------------
# Canonical forms of highly symmetric graphs (permutation cap fallback)
# ----------------------------------------------------------------------
def test_canonical_form_large_automorphism_class_is_deterministic():
    big_star = LabeledGraph.from_edges(  # 9 interchangeable leaves
        [(0, leaf) for leaf in range(1, 10)],
        vertex_labels={0: "C", **{leaf: "L" for leaf in range(1, 10)}},
    )
    first = canonical_form(big_star)
    second = canonical_form(big_star.copy())
    assert first == second


# ----------------------------------------------------------------------
# MCS vertex objective choosing differently from edge objective
# ----------------------------------------------------------------------
def test_mcs_objectives_can_disagree_on_shape():
    # g1: a triangle (3 edges / 3 vertices) plus a disjoint 4-path region
    # reachable only through a label-mismatched hinge, so the common
    # subgraphs are: the triangle (3 edges, 3 vertices) for g2a, and a
    # 4-vertex path (3 edges, 4 vertices) — vertex objective must prefer
    # more vertices when edges tie.
    g1 = LabeledGraph.from_edges(
        [("t1", "t2"), ("t2", "t3"), ("t3", "t1"),
         ("t1", "p1"), ("p1", "p2"), ("p2", "p3"), ("p3", "p4")],
        vertex_labels={"t1": "T", "t2": "T", "t3": "T",
                       "p1": "P", "p2": "P", "p3": "P", "p4": "P"},
    )
    g2 = LabeledGraph.from_edges(
        [("a", "b"), ("b", "c"), ("c", "a"),
         ("x1", "x2"), ("x2", "x3"), ("x3", "x4")],
        vertex_labels={"a": "T", "b": "T", "c": "T",
                       "x1": "P", "x2": "P", "x3": "P", "x4": "P"},
    )
    by_edges = maximum_common_subgraph(g1, g2, objective="edges")
    by_vertices = maximum_common_subgraph(g1, g2, objective="vertices")
    assert by_edges.size == 3
    assert by_vertices.order == 4  # the path, not the triangle
    assert by_vertices.size == 3


# ----------------------------------------------------------------------
# Stats / timers
# ----------------------------------------------------------------------
def test_phase_timer_accumulates():
    stats = QueryStats()
    with PhaseTimer(stats, "phase"):
        time.sleep(0.002)
    first = stats.phase_seconds["phase"]
    with PhaseTimer(stats, "phase"):
        time.sleep(0.002)
    assert stats.phase_seconds["phase"] > first


def test_query_stats_pruning_ratio_zero_division():
    assert QueryStats().pruning_ratio == 0.0


# ----------------------------------------------------------------------
# Engine misconfiguration
# ----------------------------------------------------------------------
def test_engine_rejects_empty_measures(paper_db, paper_query):
    with pytest.raises(QueryError):
        connect(paper_db).execute(Query(paper_query).measures().skyline())


def test_engine_tolerance_merges_near_ties(paper_db, paper_query):
    """A huge tolerance collapses all strict gaps: nothing dominates
    anything, so every graph is in the skyline."""
    result = graph_similarity_skyline(
        paper_db, paper_query, tolerance=100.0
    )
    assert len(result.skyline) == len(paper_db)


# ----------------------------------------------------------------------
# Deterministic candidate order of the bound source
# ----------------------------------------------------------------------
def test_executor_candidate_order_is_stable(paper_db, paper_query):
    from repro.db import GraphDatabase
    from repro.engine.core import make_context
    from repro.index import FeatureStore, IndexedSource

    db = GraphDatabase.from_graphs(paper_db)
    store = FeatureStore(db)
    source = IndexedSource(store)
    ctx = make_context(db, Query(paper_query).skyline().build())
    first = source.candidates(ctx)
    second = source.candidates(ctx)
    assert first.ids == second.ids
    assert first.bounds.tolist() == second.bounds.tolist()
    # visiting order: ascending optimistic sum, ties by id
    keys = [(sum(row), graph_id) for graph_id, row in
            zip(first.ids, first.bounds.tolist())]
    assert keys == sorted(keys)


# ----------------------------------------------------------------------
# JSON serialization keeps vertex ids as they were
# ----------------------------------------------------------------------
def test_json_serialization_keeps_integer_ids():
    from repro.graph import graph_from_json, graph_to_json

    g = LabeledGraph.from_edges([(1, 2, "x")], vertex_labels={1: "A", 2: "B"})
    rebuilt = graph_from_json(graph_to_json(g))
    assert rebuilt.has_vertex(1) and not rebuilt.has_vertex("1")
    assert rebuilt.vertex_label(1) == "A"
    assert rebuilt.edge_label(1, 2) == "x"
