"""Tests for database persistence and k-skyband."""

import pytest

from repro import Query, connect
from repro.datasets import figure3_database, make_workload
from repro.db import (
    GraphDatabase,
    database_from_dict,
    database_to_dict,
    load_database,
    save_database,
)
from repro.errors import SerializationError
from repro.graph import LabeledGraph, path_graph
from repro.index.kernels import dominator_counts
from repro.skyline import k_skyband, skyline


# ----------------------------------------------------------------------
# Persistence
# ----------------------------------------------------------------------
def test_database_dict_round_trip():
    db = GraphDatabase.from_graphs(figure3_database(), name="paper")
    rebuilt = database_from_dict(database_to_dict(db))
    assert rebuilt.name == "paper"
    assert len(rebuilt) == len(db)
    assert [g.name for g in rebuilt.graphs()] == [g.name for g in db.graphs()]
    for graph_id in db.ids():
        assert rebuilt.get(graph_id) == db.get(graph_id)


def test_database_file_round_trip(tmp_path):
    db = GraphDatabase()
    db.insert(path_graph(["A", "B", "C"], name="p3"), metadata={"k": 1})
    path = tmp_path / "db.json"
    save_database(db, path)
    loaded = load_database(path)
    assert len(loaded) == 1
    assert loaded.entry(0).metadata == {"k": 1}
    assert loaded.get(0).vertex_label(0) == "A"


def test_database_load_rejects_bad_payloads(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(SerializationError):
        load_database(path)
    with pytest.raises(SerializationError):
        database_from_dict({"name": "x"})  # no entries key


def test_save_rejects_unserializable(tmp_path):
    db = GraphDatabase()
    graph = LabeledGraph()
    graph.add_vertex(0, object())
    db.insert(graph)
    with pytest.raises(SerializationError):
        save_database(db, tmp_path / "x.json")


def _ids(db, query, use_index=True):
    """Answer ids of ``query`` on an ``indexed`` (or, without the index,
    ``memory``) session over ``db``."""
    with connect(db, backend="indexed" if use_index else "memory") as session:
        return session.execute(query).ids


def test_saved_database_queryable_after_reload(tmp_path):
    workload = make_workload(n_graphs=10, query_size=6, seed=2)
    db = GraphDatabase.from_graphs(workload.database)
    path = tmp_path / "w.json"
    save_database(db, path)
    loaded = load_database(path)
    before = _ids(db, Query(workload.queries[0]).skyline())
    after = _ids(loaded, Query(workload.queries[0]).skyline())
    assert before == after


# ----------------------------------------------------------------------
# k-skyband
# ----------------------------------------------------------------------
def test_dominator_counts():
    vectors = [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]
    assert dominator_counts(vectors, vectors).tolist() == [0, 1, 2]
    for k in (1, 2, 3):
        assert k_skyband(vectors, k) == list(range(k))


def test_one_skyband_is_skyline():
    vectors = [(1.0, 3.0), (2.0, 2.0), (3.0, 1.0), (3.0, 3.0)]
    assert k_skyband(vectors, 1) == skyline(vectors)


def test_skyband_is_monotone_in_k():
    vectors = [(float(i), float(j)) for i in range(4) for j in range(4)]
    previous: set[int] = set()
    for k in range(1, 5):
        members = set(k_skyband(vectors, k))
        assert previous <= members
        previous = members


def test_skyband_validation():
    with pytest.raises(ValueError):
        k_skyband([(1.0,)], 0)


def test_executor_skyband(paper_db, paper_query):
    db = GraphDatabase.from_graphs(paper_db)
    band1 = _ids(db, Query(paper_query).skyband(1))
    assert band1 == _ids(db, Query(paper_query).skyline())
    band2 = _ids(db, Query(paper_query).skyband(2))
    assert set(band1) <= set(band2)
    with pytest.raises(ValueError):
        _ids(db, Query(paper_query).skyband(0))


def test_executor_skyband_pruning_sound():
    workload = make_workload(n_graphs=20, query_size=6, seed=4)
    db = GraphDatabase.from_graphs(workload.database)
    query = workload.queries[0]
    pruned = _ids(db, Query(query).skyband(2), use_index=True)
    full = _ids(db, Query(query).skyband(2), use_index=False)
    assert pruned == full
