"""Tests for the pruning ``indexed`` session (the executor path)."""

import pytest

from repro import Query, connect
from repro.core import graph_similarity_skyline
from repro.datasets import make_workload
from repro.db import GraphDatabase
from repro.measures import EditDistance


@pytest.fixture
def paper_executor(paper_db):
    with connect(GraphDatabase.from_graphs(paper_db), backend="indexed") as session:
        yield session


def _skyline(db, query, use_index=True):
    with connect(db, backend="indexed" if use_index else "memory") as session:
        return session.execute(Query(query).skyline())


def _threshold_matches(session, query, measure, threshold):
    result = session.execute(Query(query).threshold(threshold, measure))
    return [(graph_id, result.distance(graph_id)) for graph_id in result.ids]


def test_executor_reproduces_paper_skyline(paper_executor, paper_db, paper_query):
    result = paper_executor.execute(Query(paper_query).skyline())
    assert result.names == ["g1", "g4", "g5", "g7"]


def test_pruned_equals_unpruned_on_paper(paper_db, paper_query):
    db = GraphDatabase.from_graphs(paper_db)
    with_index = _skyline(db, paper_query, use_index=True)
    without_index = _skyline(db, paper_query, use_index=False)
    assert with_index.ids == without_index.ids


def test_pruned_equals_unpruned_on_synthetic_workload():
    workload = make_workload(n_graphs=24, query_size=6, seed=11)
    db = GraphDatabase.from_graphs(workload.database)
    query = workload.queries[0]
    pruned = _skyline(db, query, use_index=True)
    full = _skyline(db, query, use_index=False)
    assert pruned.ids == full.ids
    # sanity: the unpruned executor evaluated everything
    assert full.stats.exact_evaluations == len(db)
    assert pruned.stats.exact_evaluations <= full.stats.exact_evaluations


def test_executor_matches_core_gss_on_synthetic():
    workload = make_workload(n_graphs=18, query_size=6, seed=3)
    db = GraphDatabase.from_graphs(workload.database)
    query = workload.queries[0]
    executor_result = _skyline(db, query)
    core_result = graph_similarity_skyline(db.graphs(), query)
    core_names = sorted(g.name for g in core_result.skyline)
    assert sorted(executor_result.names) == core_names


def test_stats_are_recorded(paper_executor, paper_query):
    result = paper_executor.execute(Query(paper_query).skyline())
    stats = result.stats
    assert stats.database_size == 7
    assert stats.candidates_considered == 7
    assert stats.exact_evaluations + stats.pruned_by_index == 7
    assert stats.skyline_size == 4
    assert "evaluate" in stats.phase_seconds
    assert 0.0 <= stats.pruning_ratio <= 1.0
    assert "n=7" in stats.summary()


def test_executor_with_refinement(paper_executor, paper_query):
    result = paper_executor.execute(Query(paper_query).skyline().refine(k=2))
    assert result.refinement is not None
    assert [g.name for g in result.refinement.subset] == ["g1", "g4"]


def test_executor_refinement_skipped_when_not_needed(paper_executor, paper_query):
    result = paper_executor.execute(Query(paper_query).skyline().refine(k=4))
    assert result.refinement is None


def test_threshold_search_exact(paper_executor, paper_query):
    matches = _threshold_matches(paper_executor, paper_query, "edit", 3.0)
    names = sorted(
        paper_executor.database.get(gid).name for gid, _ in matches
    )
    # DistEd <= 3: g3 (3), g4 (2), g5 (3)
    assert names == ["g3", "g4", "g5"]
    distances = [d for _, d in matches]
    assert distances == sorted(distances)


def test_threshold_search_measure_instance(paper_executor, paper_query):
    matches = _threshold_matches(paper_executor, paper_query, EditDistance(), 0.0)
    assert matches == []


def test_executor_empty_database(paper_query):
    result = _skyline(GraphDatabase(), paper_query)
    assert result.ids == []
    assert result.stats.skyline_size == 0
