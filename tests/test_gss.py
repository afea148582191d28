"""Tests for the graph similarity skyline (Section V / Equation 4)."""

import pytest

import repro
from repro import GraphDatabase, Query
from repro.api.backends import available_backends
from repro.core import graph_similarity_skyline
from repro.datasets import EXPECTED_GSS
from repro.graph import path_graph


def test_paper_skyline(paper_db, paper_query):
    result = graph_similarity_skyline(paper_db, paper_query)
    assert tuple(g.name for g in result.skyline) == EXPECTED_GSS


@pytest.mark.parametrize("shards", [None, 3], ids=["monolith", "3-shards"])
@pytest.mark.parametrize("name", available_backends())
def test_paper_skyline_on_every_backend(name, shards, paper_db, paper_query):
    """Eq. 4 does not depend on how a session plans or spreads the work."""
    database = GraphDatabase.from_graphs(paper_db)
    with repro.connect(
        database, backend=name, shards=shards, max_workers=2
    ) as session:
        result = session.execute(Query(paper_query).skyline())
    assert tuple(result.names) == EXPECTED_GSS


def test_result_metadata(paper_db, paper_query):
    result = graph_similarity_skyline(paper_db, paper_query)
    assert result.measures == ("edit", "mcs", "union")
    assert len(result.graphs) == 7
    assert len(result.vectors) == 7
    assert len(result) == 4
    assert result.query is paper_query


def test_result_contains_protocol(paper_db, paper_query):
    result = graph_similarity_skyline(paper_db, paper_query)
    assert paper_db[0] in result  # g1
    assert paper_db[1] not in result  # g2


def test_skyline_vectors_aligned(paper_db, paper_query):
    result = graph_similarity_skyline(paper_db, paper_query)
    for graph, vector in zip(result.skyline, result.skyline_vectors):
        index = result.graphs.index(graph)
        assert result.vectors[index] is vector


def test_dominators_of(paper_db, paper_query):
    result = graph_similarity_skyline(paper_db, paper_query)
    names = [g.name for g in result.graphs]
    # skyline members have no dominators
    for index in result.skyline_indices:
        assert result.dominators_of(index) == []
    # g2 (index 1) is dominated by g7; g6 (index 5) by g1
    assert "g7" in {names[j] for j in result.dominators_of(1)}
    assert "g1" in {names[j] for j in result.dominators_of(5)}


def test_to_rows_table(paper_db, paper_query):
    rows = graph_similarity_skyline(paper_db, paper_query).to_rows()
    assert len(rows) == 7
    g1_row = rows[0]
    assert g1_row["graph"] == "g1"
    assert g1_row["edit"] == 4.0
    assert g1_row["in_skyline"] is True
    g2_row = rows[1]
    assert g2_row["in_skyline"] is False


def test_empty_database(paper_query):
    result = graph_similarity_skyline([], paper_query)
    assert result.skyline == []
    assert result.measures == ()


def test_single_graph_database(paper_query):
    graph = path_graph(["A", "B"], name="only")
    result = graph_similarity_skyline([graph], paper_query)
    assert [g.name for g in result.skyline] == ["only"]


def test_identical_query_graph_dominates_everything(paper_db, paper_query):
    """A database copy of q itself has GCS (0,0,0) and is the sole skyline
    member unless others tie on every dimension."""
    database = list(paper_db) + [paper_query.copy(name="q-clone")]
    result = graph_similarity_skyline(database, paper_query)
    assert [g.name for g in result.skyline] == ["q-clone"]


def test_duplicate_graphs_both_in_skyline(paper_db, paper_query):
    g1_twin = paper_db[0].copy(name="g1-twin")
    database = list(paper_db) + [g1_twin]
    result = graph_similarity_skyline(database, paper_query)
    names = {g.name for g in result.skyline}
    assert {"g1", "g1-twin"} <= names


def test_custom_measures_change_skyline(paper_db, paper_query):
    # On DistEd alone the unique minimiser is g4 (distance 2).
    result = graph_similarity_skyline(paper_db, paper_query, measures=("edit",))
    assert [g.name for g in result.skyline] == ["g4"]
