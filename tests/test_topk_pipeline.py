"""Tests for the top-k baseline and end-to-end session queries."""

import pytest

from repro import Query, connect
from repro.core import top_k_by_measure
from repro.errors import QueryError


# ----------------------------------------------------------------------
# Top-k baseline (Section VI comparison)
# ----------------------------------------------------------------------
def test_top3_edit_contains_g3(paper_db, paper_query):
    """The paper: a top-3 DistEd baseline returns g3 to the user."""
    result = top_k_by_measure(paper_db, paper_query, "edit", 3)
    names = [g.name for g in result.graphs(paper_db)]
    assert "g3" in names
    assert names[0] == "g4"  # unique DistEd minimiser


def test_skyline_rejects_g3_that_topk_returns(paper_db, paper_query):
    """The headline contrast of Section VI."""
    from repro.core import graph_similarity_skyline

    topk_names = {
        g.name
        for g in top_k_by_measure(paper_db, paper_query, "edit", 3).graphs(paper_db)
    }
    skyline_names = {
        g.name for g in graph_similarity_skyline(paper_db, paper_query).skyline
    }
    assert "g3" in topk_names
    assert "g3" not in skyline_names


def test_topk_ranking_sorted_and_capped(paper_db, paper_query):
    result = top_k_by_measure(paper_db, paper_query, "edit", 100)
    distances = [d for _, d in result.ranking]
    assert distances == sorted(distances)
    assert len(result.ranking) == len(paper_db)


def test_topk_tie_break_by_database_order(paper_db, paper_query):
    result = top_k_by_measure(paper_db, paper_query, "edit", 7)
    # g3 and g5 tie at distance 3; g3 comes first in the database
    names = [paper_db[i].name for i in result.indices]
    assert names.index("g3") < names.index("g5")


def test_topk_validation(paper_db, paper_query):
    with pytest.raises(QueryError):
        top_k_by_measure(paper_db, paper_query, "edit", 0)


# ----------------------------------------------------------------------
# Sessions over a plain graph list
# ----------------------------------------------------------------------
def _execute(graphs, query):
    with connect(graphs) as session:
        return session.execute(query)


def test_engine_skyline_matches_function(paper_db, paper_query):
    result = _execute(paper_db, Query(paper_query).skyline())
    assert tuple(result.names) == ("g1", "g4", "g5", "g7")


def test_engine_query_with_refinement(paper_db, paper_query):
    result = _execute(paper_db, Query(paper_query).skyline().refine(k=2))
    assert result.refinement is not None
    assert [g.name for g in result.refinement.subset] == ["g1", "g4"]


def test_engine_skips_refinement_when_skyline_small(paper_db, paper_query):
    result = _execute(paper_db, Query(paper_query).skyline().refine(k=4))
    assert result.refinement is None  # skyline already has 4 members
    assert len(result.graphs) == 4


def test_engine_without_refinement(paper_db, paper_query):
    result = _execute(paper_db, Query(paper_query).skyline())
    assert result.refinement is None
    assert len(result.graphs) == 4


def test_engine_top_k_defaults_to_first_measure(paper_db, paper_query):
    result = _execute(paper_db, Query(paper_query).topk(3))
    assert result.measures == ("edit",)


def test_engine_custom_measures(paper_db, paper_query):
    result = _execute(paper_db, Query(paper_query).measures("mcs", "union").skyline())
    assert result.measures == ("mcs", "union")


def test_engine_greedy_refinement(paper_db, paper_query):
    result = _execute(
        paper_db, Query(paper_query).skyline().refine(k=2, method="greedy")
    )
    assert len(result.refinement.subset) == 2
