"""Tests for explanations and the pair cache."""

import pytest

from repro.core import explain_all, explain_membership, graph_similarity_skyline
from repro import Query, connect
from repro.db import GraphDatabase, PairCache
from repro.errors import QueryError


# ----------------------------------------------------------------------
# Explanations
# ----------------------------------------------------------------------
def test_explain_skyline_member(paper_db, paper_query):
    result = graph_similarity_skyline(paper_db, paper_query)
    explanation = explain_membership(result, "g1")
    assert explanation.in_skyline
    assert explanation.dominators == []
    assert "is in the skyline" in explanation.narrative()


def test_explain_dominated_graph(paper_db, paper_query):
    result = graph_similarity_skyline(paper_db, paper_query)
    explanation = explain_membership(result, "g6")
    assert not explanation.in_skyline
    dominator_names = {d.dominator for d in explanation.dominators}
    assert "g1" in dominator_names
    narrative = explanation.narrative()
    assert "NOT in the skyline" in narrative
    assert "dominated by g1" in narrative
    # the margin on the strictly-better dimension must be positive
    g1_margins = next(
        d.margins for d in explanation.dominators if d.dominator == "g1"
    )
    assert any(margin > 0 for margin in g1_margins)
    assert all(margin >= 0 for margin in g1_margins)


def test_explain_unknown_name(paper_db, paper_query):
    result = graph_similarity_skyline(paper_db, paper_query)
    with pytest.raises(QueryError):
        explain_membership(result, "nope")


def test_explain_all_covers_database(paper_db, paper_query):
    result = graph_similarity_skyline(paper_db, paper_query)
    explanations = explain_all(result)
    assert len(explanations) == len(paper_db)
    assert sum(1 for e in explanations if e.in_skyline) == 4


# ----------------------------------------------------------------------
# PairCache across sessions
# ----------------------------------------------------------------------
def _skyline(db, query, cache, measures=None):
    """One fresh exhaustive session over ``cache`` (a repeat inside one
    session would be served whole by its answer store)."""
    spec = Query(query).skyline()
    if measures is not None:
        spec = spec.measures(*measures)
    with connect(db, backend="memory", cache=cache) as session:
        return session.execute(spec)


def test_cache_hits_on_repeated_query(paper_db, paper_query):
    db = GraphDatabase.from_graphs(paper_db)
    cache = PairCache()
    first = _skyline(db, paper_query, cache)
    assert first.stats.exact_evaluations == 7
    second = _skyline(db, paper_query, cache)
    assert second.stats.exact_evaluations == 0  # all served from cache
    assert second.ids == first.ids
    assert cache.hits == 7
    assert cache.hit_rate > 0


def test_cache_respects_measures_key(paper_db, paper_query):
    db = GraphDatabase.from_graphs(paper_db)
    cache = PairCache()
    _skyline(db, paper_query, cache, measures=("edit", "mcs"))
    union_only = _skyline(db, paper_query, cache, measures=("union",))
    assert union_only.stats.exact_evaluations == 7  # a measure never solved


def test_cache_invalidate_graph(paper_db, paper_query):
    db = GraphDatabase.from_graphs(paper_db)
    cache = PairCache()
    _skyline(db, paper_query, cache)
    cache.invalidate_subject(db.entry(0).iso_hash)
    rerun = _skyline(db, paper_query, cache)
    assert rerun.stats.exact_evaluations == 1  # only g1 recomputed


def test_cache_lru_eviction():
    cache = PairCache(max_entries=2)
    cache.put("g1", "q", ("edit",), (1.0,))
    cache.put("g2", "q", ("edit",), (2.0,))
    cache.get("g1", "q", ("edit",))  # refresh g1
    cache.put("g3", "q", ("edit",), (3.0,))  # evicts g2
    assert cache.get("g2", "q", ("edit",)) is None
    assert cache.get("g1", "q", ("edit",)) == (1.0,)
    assert len(cache) == 2


def test_cache_clear_and_validation():
    with pytest.raises(ValueError):
        PairCache(max_entries=0)
    cache = PairCache()
    cache.put("g1", "q", ("edit",), (1.0,))
    cache.get("g1", "q", ("edit",))
    cache.clear()
    assert len(cache) == 0
    assert cache.hits == 0
    assert cache.hit_rate == 0.0
