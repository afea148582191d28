"""Tests for the database store, feature bounds and the packed index."""

import gc
import pickle
import random
import threading
import time
import tracemalloc

import pytest

from repro import PairCache, Query, Session, connect
from repro.api.ops import AddOp, RelabelOp, apply_mutation
from repro.datasets.synthetic import molecule_like_graph
from repro.db import GraphDatabase
from repro.db import database as database_module
from repro.db.database import StoredGraph
from repro.errors import DatasetError
from repro.engine.core import make_context
from repro.graph import GraphFeatures, LabeledGraph, path_graph
from repro.graph.canonical import canonical_hash
from repro.graph.features import QueryBounds
from repro.graph.serialization import graph_to_dict
from repro.index import FeatureStore, IndexedSource
from repro.measures import EditDistance, default_measures
from repro.shard import ShardedGraphDatabase
from tests.conftest import embeds, make_random_graph


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


def _write_every_way(graph: LabeledGraph) -> None:
    """Apply each of the six mutators to ``graph`` (one edge needed)."""
    first, last = graph.vertices()[0], graph.vertices()[-1]
    u, v, _ = next(graph.edges())
    graph.relabel_vertex(first, "Z")
    graph.relabel_edge(u, v, "zz")
    graph.remove_edge(u, v)
    graph.add_vertex("fresh", "Z")
    graph.add_edge("fresh", last, "zz")
    graph.remove_vertex(first)


def _via_insert(graphs):
    database = GraphDatabase()
    for graph in graphs:
        database.insert(graph)
    return database


def _via_relabel(graphs):
    database = GraphDatabase()
    handles: dict[str, int] = {}
    ids: dict[int, str] = {}
    for index, graph in enumerate(graphs):
        apply_mutation(database, AddOp(f"h{index}", graph), handles, ids)
    apply_mutation(database, RelabelOp("h0", "r0", 1, "S"), handles, ids)
    return database


@pytest.mark.parametrize(
    "build",
    [
        _via_insert,
        GraphDatabase.from_graphs,
        lambda graphs: ShardedGraphDatabase.from_graphs(graphs, shards=2),
        _via_relabel,
    ],
    ids=["insert", "from_graphs", "sharded-from_graphs", "relabel"],
)
def test_writes_to_the_callers_graphs_never_reach_the_database(build):
    """Stored graphs share the caller's structure until one side writes:
    every write to the caller's graphs leaves each entry's graph,
    features and canonical hash, and the answers over them, as they were."""
    rng = random.Random(4)
    graphs = [molecule_like_graph(rng.choice((4, 5)), seed=rng) for _ in range(6)]
    query = molecule_like_graph(4, seed=99)
    database = build(graphs)

    def state():
        entries = {
            entry.graph_id: (
                graph_to_dict(entry.graph),
                entry.features,
                entry.iso_hash,
            )
            for entry in database.entries()
        }
        with Session(database, backend="memory") as session:
            result = session.execute(Query(query).skyline())
        return entries, result.ids, result.vectors

    before = state()
    assert before[1]
    callers = [graph_to_dict(graph) for graph in graphs]
    for graph in graphs:
        _write_every_way(graph)
    assert state() == before
    assert all(graph_to_dict(g) != payload for g, payload in zip(graphs, callers))


def test_stored_entries_share_the_callers_graphs():
    """Inserting graphs the caller keeps costs well under a deep copy per
    entry (about 2.6 KB here): the entry shares the caller's dictionaries."""
    rng = random.Random(5)
    graphs = [
        molecule_like_graph(rng.choice((4, 5, 5, 6)), seed=rng, name=f"m-{i}")
        for i in range(2000)
    ]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        database = GraphDatabase.from_graphs(graphs)
        gc.collect()
        per_entry = (tracemalloc.get_traced_memory()[0] - before) / len(database)
    finally:
        tracemalloc.stop()
    assert len(database) == 2000
    assert per_entry <= 1300, f"{per_entry:.0f} bytes per entry"


def test_stored_graph_roundtrips_through_pickle():
    database = GraphDatabase()
    gid = database.insert(path_graph(["A", "B", "C"], name="p"), metadata={"n": 1})
    entry = database.entry(gid)
    restored = pickle.loads(pickle.dumps(entry))
    assert isinstance(restored, StoredGraph)
    assert not hasattr(restored, "__dict__")
    assert restored.graph_id == gid
    assert restored.graph == entry.graph
    assert restored.graph.name == "p"
    assert (restored.features, restored.iso_hash, restored.metadata) == (
        entry.features, entry.iso_hash, {"n": 1}
    )


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


# ----------------------------------------------------------------------
# Canonical hashes are computed on first use
# ----------------------------------------------------------------------
def _renamed(graph: LabeledGraph, name: str) -> LabeledGraph:
    """An isomorphic copy with fresh vertex ids, built in reverse order."""
    return LabeledGraph.from_edges(
        [(f"v{u}", f"v{v}", label) for u, v, label in reversed(list(graph.edges()))],
        vertex_labels={
            f"v{u}": graph.vertex_label(u) for u in reversed(graph.vertices())
        },
        name=name,
    )


def _isomorphic(a: LabeledGraph, b: LabeledGraph) -> bool:
    return (a.order, a.size) == (b.order, b.size) and embeds(a, b)


def _load(sharded: bool, graphs, deduplicate: bool = False):
    if sharded:
        return ShardedGraphDatabase.from_graphs(
            graphs, deduplicate=deduplicate, shards=3
        )
    return GraphDatabase.from_graphs(graphs, deduplicate=deduplicate)


def test_isomorphic_entries_share_pair_cache_entries():
    graph = make_random_graph(3, max_vertices=5)
    query = make_random_graph(8, max_vertices=5)
    cache = PairCache()
    with connect(GraphDatabase.from_graphs([graph]), cache=cache) as session:
        cold = session.execute(Query(query).skyline())
    twins = GraphDatabase.from_graphs([_renamed(graph, "twin"), graph])
    with connect(twins, cache=cache) as session:
        warm = session.execute(Query(query).skyline())
    assert cold.stats.exact_evaluations == 1
    assert warm.stats.exact_evaluations == 0
    assert warm.stats.served_from_cache == 2
    assert warm.vectors == {0: cold.vectors[0], 1: cold.vectors[0]}


def test_concurrent_first_reads_of_one_hash_agree(monkeypatch):
    """Threads that read a fresh entry's hash at once may each compute
    it; every one of them reads the same value."""
    database = GraphDatabase.from_graphs([make_random_graph(seed) for seed in range(3)])
    entry = database.entry(1)
    real = database_module.canonical_hash
    calls = []

    def slow(graph):
        calls.append(graph)
        time.sleep(0.01)  # hold every thread inside the unlocked window
        return real(graph)

    monkeypatch.setattr(database_module, "canonical_hash", slow)
    barrier = threading.Barrier(4)
    seen = []

    def read():
        barrier.wait()
        seen.append(entry.iso_hash)

    threads = [threading.Thread(target=read) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert seen == [real(entry.graph)] * 4
    assert 1 <= len(calls) <= 4
    calls.clear()
    assert entry.iso_hash == seen[0] and not calls


@pytest.mark.parametrize("sharded", [False, True])
def test_a_callers_write_before_the_first_read_never_reaches_the_hash(sharded):
    """The entry's hash is computed after the caller rewrote its graph,
    yet it is the hash of the graph as inserted (copy-on-write)."""
    graph = make_random_graph(5)
    want = canonical_hash(graph)
    database = _load(sharded, [graph])
    _write_every_way(graph)
    assert canonical_hash(graph) != want
    assert database.entry(0).iso_hash == want


@pytest.mark.parametrize("sharded", [False, True])
def test_find_isomorphic_and_dedupe_loads_match_a_pairwise_oracle(sharded):
    rng = random.Random(11)
    base = [make_random_graph(seed, max_vertices=5, labels=("A", "B")) for seed in range(10)]
    base += [
        path_graph(["A", "B", "A"]),  # same shape as the next, not isomorphic
        path_graph(["A", "A", "B"]),
        path_graph([1, 2.0, True]),  # a respelling of the next
        path_graph([True, 2, 1.0]),
    ]
    graphs = [
        (_renamed(graph, f"g{i}") if rng.random() < 0.5 else graph.copy(f"g{i}"))
        for i, graph in enumerate(rng.choice(base) for _ in range(40))
    ]

    def first_twin(graph, pool):
        return next(
            (key for key, other in pool if _isomorphic(other, graph)), None
        )

    kept: list[LabeledGraph] = []
    for graph in graphs:
        if first_twin(graph, enumerate(kept)) is None:
            kept.append(graph)
    deduped = _load(sharded, graphs, deduplicate=True)
    assert [graph.name for graph in deduped.graphs()] == [g.name for g in kept]
    assert deduped.ids() == list(range(len(kept)))

    database = _load(sharded, graphs)
    for graph_id in range(0, len(graphs), 3):
        database.remove(graph_id)
    probes = graphs + [make_random_graph(seed, max_vertices=5) for seed in range(50, 60)]
    for probe in probes:
        want = first_twin(probe, ((i, g) for i, g in database))
        assert database.find_isomorphic(probe) == want, probe.name


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
    bounds = QueryBounds(paper_query, measures)
    for graph in paper_db:
        optimistic = bounds.vector(graph, GraphFeatures.of(graph))
        context = PairContext(graph, paper_query)
        exact = tuple(m.distance(graph, paper_query, context) for m in measures)
        assert all(o <= e + 1e-9 for o, e in zip(optimistic, exact)), graph.name


def test_optimistic_vector_unknown_measure_gets_zero(paper_db, paper_query):
    from repro.measures import FunctionMeasure

    odd = FunctionMeasure(lambda a, b: 42.0, name="odd")
    bounds = QueryBounds(paper_query, [odd])
    assert bounds.vector(paper_db[0], GraphFeatures.of(paper_db[0])) == (0.0,)


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
