"""Tests for index-accelerated top-k search."""

import pytest

from repro import Query, connect
from repro.core import top_k_by_measure
from repro.datasets import make_workload
from repro.db import GraphDatabase


# ----------------------------------------------------------------------
# Indexed top-k with bound pruning
# ----------------------------------------------------------------------
def _top_k(db, query, measure, k, use_index=True):
    """``[(id, distance)]`` of an ``indexed`` (or, without the index,
    ``memory``) session's top-k answer."""
    with connect(db, backend="indexed" if use_index else "memory") as session:
        result = session.execute(Query(query).topk(k, measure))
    return [(graph_id, result.distance(graph_id)) for graph_id in result.ids]


def test_executor_topk_matches_core(paper_db, paper_query):
    db = GraphDatabase.from_graphs(paper_db)
    for k in (1, 3, 7):
        accelerated = _top_k(db, paper_query, "edit", k)
        reference = top_k_by_measure(db.graphs(), paper_query, "edit", k)
        assert [gid for gid, _ in accelerated] == reference.indices
        assert [d for _, d in accelerated] == pytest.approx(
            [d for _, d in reference.ranking]
        )


def test_executor_topk_pruned_equals_unpruned_on_workload():
    workload = make_workload(n_graphs=25, query_size=6, seed=6)
    db = GraphDatabase.from_graphs(workload.database)
    query = workload.queries[0]
    for measure in ("edit", "mcs", "union"):
        pruned = _top_k(db, query, measure, 5, use_index=True)
        full = _top_k(db, query, measure, 5, use_index=False)
        assert pruned == full, measure


def test_executor_topk_k_larger_than_database(paper_db, paper_query):
    db = GraphDatabase.from_graphs(paper_db)
    result = _top_k(db, paper_query, "edit", 100)
    assert len(result) == len(paper_db)


def test_executor_topk_validation(paper_db, paper_query):
    db = GraphDatabase.from_graphs(paper_db)
    with pytest.raises(ValueError):
        _top_k(db, paper_query, "edit", 0)
