"""PairCache: canonical-hash-keyed cross-query/measure sharing.

Also pins the fix for an old ``query_hash`` bug: it used
to memoise the canonical hash by ``id(query)``, so a mutated graph — or a
new graph allocated at a recycled id after garbage collection — was
served a stale hash for a *different* graph.
"""

import gc

import pytest

from repro import PairCache, Query, connect
from repro.datasets import figure3_query
from repro.graph import LabeledGraph, path_graph
from repro.graph.canonical import canonical_hash


# Figure-3 database fixture lives in conftest.py; alias the short name.
@pytest.fixture
def db(paper_database):
    return paper_database


# ----------------------------------------------------------------------
# query_hash regression (satellite: id()-keyed memoisation was unsound)
# ----------------------------------------------------------------------
def test_query_hash_follows_mutation():
    cache = PairCache()
    graph = LabeledGraph.from_edges([("A", "B", "-"), ("B", "C", "-")], name="p3")
    before = cache.query_hash(graph)
    assert before == canonical_hash(graph)
    graph.add_vertex("X", "Z")
    graph.add_edge("C", "X", "-")
    # id(graph) is unchanged, so the old id()-keyed memo returned `before`
    assert cache.query_hash(graph) == canonical_hash(graph) != before


def test_query_features_share_the_hash_memo_entry():
    from repro.graph.features import GraphFeatures

    cache = PairCache()
    graph = LabeledGraph.from_edges([("A", "B", "-"), ("B", "C", "-")], name="p3")
    features = cache.query_features(graph)
    assert features == GraphFeatures.of(graph)
    assert cache.query_features(graph) is features
    assert cache.pinned == 1  # one entry pins the graph for both
    cache.query_hash(graph)
    assert cache.pinned == 1
    graph.add_vertex("X", "Z")
    assert cache.query_features(graph) == GraphFeatures.of(graph) != features
    # An equal but distinct graph gets its own entry, not the first one's.
    twin = graph.copy()
    assert cache.query_features(twin) is not cache.query_features(graph)


def test_query_hash_correct_for_recycled_ids():
    """A stale hash can never be served for a graph at a recycled id.

    The memo (satellite: skip re-canonicalization for repeated queries)
    holds a strong reference to every memoised graph, so an id cannot be
    recycled *while* an entry that would match it is alive — and
    clearing the cache unpins the graph again.
    """
    import weakref

    cache = PairCache()
    graph = path_graph(["A", "B", "C"], name="pinned")
    reference = weakref.ref(graph)
    cache.query_hash(graph)
    del graph
    gc.collect()
    assert reference() is not None  # pinned by the memo entry
    cache.clear()
    gc.collect()
    assert reference() is None  # unpinned once no entry can match


def test_query_hash_is_memoised_until_mutation(monkeypatch):
    """Repeated queries skip re-canonicalization; mutation invalidates."""
    from repro.db import cache as cache_module

    calls = []
    real = canonical_hash

    def counting(graph):
        calls.append(graph.name)
        return real(graph)

    monkeypatch.setattr(cache_module, "canonical_hash", counting)
    cache = PairCache()
    graph = path_graph(["A", "B", "C"], name="q")
    first = cache.query_hash(graph)
    assert cache.query_hash(graph) == first
    assert len(calls) == 1  # second call served from the memo
    graph.relabel_vertex(graph.vertices()[0], "Z")
    assert cache.query_hash(graph) == canonical_hash(graph)
    assert len(calls) == 2  # mutation bumped the counter, memo missed


# ----------------------------------------------------------------------
# Canonical-hash keying: sharing across queries, measures, isomorphs
# ----------------------------------------------------------------------
def test_warm_cache_serves_repeated_query(db):
    cache = PairCache()
    query = figure3_query()
    # Two sessions: a repeat in one session is served by its answer store.
    with connect(db, cache=cache) as session:
        cold = session.execute(Query(query).skyline())
    with connect(db, cache=cache) as session:
        warm = session.execute(Query(query).skyline())
    assert cold.stats.exact_evaluations == len(db)
    assert warm.stats.exact_evaluations == 0
    assert warm.stats.served_from_cache == len(db)
    assert warm.names == cold.names


def test_cache_shared_across_sessions_and_backends(db):
    cache = PairCache()
    query = figure3_query()
    with connect(db, backend="memory", cache=cache) as session:
        session.execute(Query(query).skyline())
    with connect(db, backend="indexed", cache=cache) as session:
        warm = session.execute(Query(query).skyline())
    assert warm.stats.exact_evaluations == 0


def test_cache_shared_across_measure_subsets(db):
    cache = PairCache()
    query = figure3_query()
    with connect(db, cache=cache) as session:
        session.execute(Query(query).measures("edit", "mcs", "union").skyline())
        subset = session.execute(Query(query).measures("edit", "mcs").skyline())
        single = session.execute(Query(query).topk(3, "edit"))
    assert subset.stats.exact_evaluations == 0  # per-measure entries re-used
    assert single.stats.exact_evaluations == 0


def test_cache_serves_isomorphic_resubmission(db):
    cache = PairCache()
    query = figure3_query()
    relabeled = LabeledGraph.from_edges(
        [(f"v{u}", f"v{v}", label) for u, v, label in query.edges()],
        vertex_labels={
            f"v{u}": query.vertex_label(u) for u in query.vertices()
        },
        name="query-copy",
    )
    with connect(db, cache=cache) as session:
        session.execute(Query(query).skyline())
    with connect(db, cache=cache) as session:
        warm = session.execute(Query(relabeled).skyline())
    assert warm.stats.exact_evaluations == 0  # same canonical hashes


def test_symmetric_pairs_share_entries():
    cache = PairCache(symmetric=True)
    a, b = canonical_hash(path_graph(["A", "B"])), canonical_hash(
        path_graph(["B", "C"])
    )
    cache.put(a, b, ("edit",), (2.0,))
    assert cache.get(b, a, ("edit",)) == (2.0,)
    asymmetric = PairCache(symmetric=False)
    asymmetric.put(a, b, ("edit",), (2.0,))
    assert asymmetric.get(b, a, ("edit",)) is None


def test_partial_vector_is_a_miss():
    cache = PairCache()
    cache.put("h1", "h2", ("edit",), (1.0,))
    assert cache.get("h1", "h2", ("edit", "mcs")) is None
    cache.put("h1", "h2", ("mcs",), (0.5,))
    assert cache.get("h1", "h2", ("edit", "mcs")) == (1.0, 0.5)


def test_lru_eviction_and_stats():
    cache = PairCache(max_entries=2)
    cache.put("a", "q", ("edit",), (1.0,))
    cache.put("b", "q", ("edit",), (2.0,))
    assert cache.get("a", "q", ("edit",)) == (1.0,)  # refresh "a"
    cache.put("c", "q", ("edit",), (3.0,))  # evicts "b"
    assert cache.get("b", "q", ("edit",)) is None
    assert len(cache) == 2
    assert 0.0 < cache.hit_rate < 1.0
    cache.clear()
    assert len(cache) == 0 and cache.hits == 0
    with pytest.raises(ValueError):
        PairCache(max_entries=0)


def test_concurrent_lookups_survive_eviction_by_other_threads():
    """Server threads share one cache: a lookup whose key another thread
    evicts between the find and the LRU reorder must not raise."""
    import sys
    import threading

    cache = PairCache(max_entries=8, pin_limit=4)
    graphs = [path_graph(["A"] * (n + 1)) for n in range(6)]
    errors = []

    def worker(offset: int) -> None:
        try:
            for step in range(6000):
                subject = f"s{(offset * 5 + step) % 16}"
                cache.put(subject, "q", ("edit",), (1.0,))
                cache.get(subject, "q", ("edit",))
                cache.query_hash(graphs[(offset + step) % len(graphs)])
        except Exception as exc:  # collected; asserted below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(cache) <= 8 and cache.pinned <= 4


def test_invalidate_subject():
    cache = PairCache()
    cache.put("a", "q", ("edit",), (1.0,))
    cache.put("b", "q", ("edit",), (2.0,))
    cache.invalidate_subject("a")
    assert cache.get("a", "q", ("edit",)) is None
    assert cache.get("b", "q", ("edit",)) == (2.0,)


def test_entries_stay_sound_under_database_mutation(db):
    """Content-addressed keys: removing and re-adding a graph re-uses its
    cached pairs instead of serving anything stale."""
    cache = PairCache()
    query = figure3_query()
    with connect(db, cache=cache) as session:
        session.execute(Query(query).skyline())
        victim = db.get(0).copy()
        db.remove(0)
        db.insert(victim)
        warm = session.execute(Query(query).skyline())
    assert warm.stats.exact_evaluations == 0  # same structures, same keys
    reference = connect(db).execute(Query(query).skyline())
    assert warm.names == reference.names
