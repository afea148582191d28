"""Tests for the database store, feature bounds and the packed index."""

import pytest

from repro import Query
from repro.db import GraphDatabase
from repro.db import database as database_module
from repro.errors import DatasetError
from repro.engine.core import make_context
from repro.graph import GraphFeatures, LabeledGraph, path_graph
from repro.graph.features import optimistic_vector
from repro.index import FeatureStore, IndexedSource
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
# Feature bounds and the packed index
# ----------------------------------------------------------------------
def test_index_add_discard():
    db = GraphDatabase()
    store = FeatureStore(db)
    graph_id = db.insert(path_graph(["A", "B"]))
    assert graph_id in store.sync().row_of
    assert len(store.matrix) == 1
    db.remove(graph_id)
    assert graph_id not in store.sync().row_of
    assert len(store.matrix) == 0


def test_optimistic_vector_is_lower_bound(paper_db, paper_query):
    from repro.measures import PairContext

    measures = default_measures()
    query_features = GraphFeatures.of(paper_query)
    for graph in paper_db:
        optimistic = optimistic_vector(
            GraphFeatures.of(graph), query_features, measures
        )
        context = PairContext(graph, paper_query)
        exact = tuple(m.distance(graph, paper_query, context) for m in measures)
        assert all(o <= e + 1e-9 for o, e in zip(optimistic, exact)), graph.name


def test_optimistic_vector_unknown_measure_gets_zero(paper_db, paper_query):
    from repro.measures import FunctionMeasure

    odd = FunctionMeasure(lambda a, b: 42.0, name="odd")
    vector = optimistic_vector(
        GraphFeatures.of(paper_db[0]), GraphFeatures.of(paper_query), [odd]
    )
    assert vector == (0.0,)


def _threshold_candidates(graphs, query, measure, threshold):
    """The ids the packed index's threshold pre-filter lets through."""
    db = GraphDatabase.from_graphs(graphs)
    spec = Query(query).threshold(threshold, measure).build()
    ctx = make_context(db, spec)
    block = IndexedSource(FeatureStore(db)).candidates(ctx)
    assert sorted(block.ids + ctx.prefiltered) == sorted(db.ids())
    return set(block.ids)


def test_threshold_candidates_sound(paper_db, paper_query):
    measure = EditDistance()
    threshold = 3.0
    candidates = _threshold_candidates(paper_db, paper_query, measure, threshold)
    # every graph truly within the threshold must be among the candidates
    for i, graph in enumerate(paper_db):
        if measure.distance(graph, paper_query) <= threshold:
            assert i in candidates, graph.name


def test_threshold_candidates_unknown_measure_returns_all(paper_db, paper_query):
    from repro.measures import FunctionMeasure

    odd = FunctionMeasure(lambda a, b: 0.0, name="odd")
    candidates = _threshold_candidates(paper_db, paper_query, odd, 0.1)
    assert len(candidates) == len(paper_db)
