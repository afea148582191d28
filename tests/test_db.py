"""Tests for the database store and feature index."""

import pytest

from repro.db import FeatureIndex, GraphDatabase
from repro.db import database as database_module
from repro.errors import DatasetError
from repro.graph import GraphFeatures, LabeledGraph, path_graph
from repro.measures import EditDistance, default_measures
from repro.shard import ShardedGraphDatabase
from tests.conftest import make_random_graph


# ----------------------------------------------------------------------
# GraphDatabase
# ----------------------------------------------------------------------
def test_insert_get_len():
    db = GraphDatabase()
    gid = db.insert(path_graph(["A", "B"], name="p"))
    assert len(db) == 1
    assert gid in db
    assert db.get(gid).name == "p"


def test_insert_copies_graph():
    db = GraphDatabase()
    graph = path_graph(["A", "B"])
    gid = db.insert(graph)
    graph.add_vertex(99, "Z")  # mutate caller's object afterwards
    assert db.get(gid).order == 2


def test_ids_and_graphs_in_insertion_order(paper_db):
    db = GraphDatabase.from_graphs(paper_db)
    assert db.ids() == list(range(7))
    assert [g.name for g in db.graphs()] == [g.name for g in paper_db]


def test_iteration_yields_pairs(paper_db):
    db = GraphDatabase.from_graphs(paper_db)
    pairs = list(db)
    assert pairs[0][0] == 0
    assert pairs[0][1].name == "g1"


def test_remove(paper_db):
    db = GraphDatabase.from_graphs(paper_db)
    db.remove(0)
    assert len(db) == 6
    assert 0 not in db
    with pytest.raises(DatasetError):
        db.get(0)
    with pytest.raises(DatasetError):
        db.remove(0)


@pytest.mark.parametrize("shards", [None, 2], ids=["monolithic", "sharded"])
def test_change_log_names_the_net_delta(shards, paper_db):
    if shards is None:
        db = GraphDatabase.from_graphs(paper_db)
    else:
        db = ShardedGraphDatabase.from_graphs(paper_db, shards=shards)
    start = db.version
    assert db.changes_since(start) == ([], [])
    added = db.insert(paper_db[0])
    db.remove(1)
    transient = db.insert(paper_db[1])
    db.remove(transient)  # inserted and removed again: in neither list
    db.remove(2)
    db.insert(paper_db[3], graph_id=2)  # a new graph under an old id: both
    assert db.changes_since(start) == ([added, 2], [1, 2])
    assert db.changes_since(db.version - 1) == ([2], [])
    assert db.changes_since(db.version - 2) == ([2], [2])
    assert db.changes_since(db.version + 1) is None


def test_change_log_is_bounded(monkeypatch):
    monkeypatch.setattr(database_module, "CHANGE_LOG_LIMIT", 4)
    db = GraphDatabase()
    for seed in range(6):
        db.insert(make_random_graph(seed, max_vertices=3))
    assert db.version == 6
    assert db.changes_since(2) == ([2, 3, 4, 5], [])
    assert db.changes_since(1) is None  # the log no longer reaches back


def test_entry_exposes_features_and_metadata():
    db = GraphDatabase()
    gid = db.insert(path_graph(["A", "B"]), metadata={"source": "unit"})
    entry = db.entry(gid)
    assert entry.features.size == 1
    assert entry.metadata["source"] == "unit"
    with pytest.raises(DatasetError):
        db.entry(999)


def test_find_isomorphic():
    db = GraphDatabase()
    original = LabeledGraph.from_edges([("x", "y", "e")],
                                       vertex_labels={"x": "A", "y": "B"})
    gid = db.insert(original)
    # same structure, different ids and insertion order
    twin = LabeledGraph.from_edges([("q", "p", "e")],
                                   vertex_labels={"p": "A", "q": "B"})
    assert db.find_isomorphic(twin) == gid
    other = LabeledGraph.from_edges([("x", "y", "f")],
                                    vertex_labels={"x": "A", "y": "B"})
    assert db.find_isomorphic(other) is None


def test_deduplicating_bulk_load():
    g = path_graph(["A", "B", "C"], name="one")
    twin = path_graph(["A", "B", "C"], name="two")
    db = GraphDatabase.from_graphs([g, twin], deduplicate=True)
    assert len(db) == 1
    db_all = GraphDatabase.from_graphs([g, twin], deduplicate=False)
    assert len(db_all) == 2


def test_repr():
    db = GraphDatabase(name="mol")
    assert "mol" in repr(db)


# ----------------------------------------------------------------------
# FeatureIndex
# ----------------------------------------------------------------------
def test_index_add_discard():
    index = FeatureIndex()
    features = GraphFeatures.of(path_graph(["A", "B"]))
    index.add(1, features)
    assert 1 in index
    assert len(index) == 1
    assert index.features(1) is features
    index.discard(1)
    assert 1 not in index
    index.discard(1)  # idempotent


def test_optimistic_vector_is_lower_bound(paper_db, paper_query):
    from repro.measures import PairContext

    index = FeatureIndex()
    for i, graph in enumerate(paper_db):
        index.add(i, GraphFeatures.of(graph))
    measures = default_measures()
    query_features = GraphFeatures.of(paper_query)
    for i, graph in enumerate(paper_db):
        optimistic = index.optimistic_vector(i, query_features, measures)
        context = PairContext(graph, paper_query)
        exact = tuple(m.distance(graph, paper_query, context) for m in measures)
        assert all(o <= e + 1e-9 for o, e in zip(optimistic, exact)), graph.name


def test_optimistic_vector_unknown_measure_gets_zero(paper_db, paper_query):
    from repro.measures import FunctionMeasure

    index = FeatureIndex()
    index.add(0, GraphFeatures.of(paper_db[0]))
    odd = FunctionMeasure(lambda a, b: 42.0, name="odd")
    vector = index.optimistic_vector(0, GraphFeatures.of(paper_query), [odd])
    assert vector == (0.0,)


def test_threshold_candidates_sound(paper_db, paper_query):
    index = FeatureIndex()
    for i, graph in enumerate(paper_db):
        index.add(i, GraphFeatures.of(graph))
    measure = EditDistance()
    threshold = 3.0
    candidates = set(
        index.threshold_candidates(GraphFeatures.of(paper_query), measure, threshold)
    )
    # every graph truly within the threshold must be among the candidates
    for i, graph in enumerate(paper_db):
        if measure.distance(graph, paper_query) <= threshold:
            assert i in candidates, graph.name


def test_threshold_candidates_unknown_measure_returns_all(paper_db, paper_query):
    from repro.measures import FunctionMeasure

    index = FeatureIndex()
    for i, graph in enumerate(paper_db):
        index.add(i, GraphFeatures.of(graph))
    odd = FunctionMeasure(lambda a, b: 0.0, name="odd")
    assert len(index.threshold_candidates(
        GraphFeatures.of(paper_query), odd, 0.1)) == len(paper_db)
