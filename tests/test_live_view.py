"""Live views: Session.watch stays equal to a from-scratch re-query.

The acceptance contract of the staged-engine PR: after any interleaving
of database inserts and removals, the watched skyline must match what a
fresh query over the mutated database returns, while repairing only the
affected candidates (one exact evaluation per inserted graph, none per
removal).
"""

import pytest

from repro import GraphDatabase, PairCache, Query, connect
from repro.datasets import figure3_database, make_workload
from repro.errors import QueryError
from tests.conftest import make_random_graph


# The figure-3 fixtures live in conftest.py; module-local aliases keep
# the short parameter names this module's tests read naturally with.
@pytest.fixture
def db(paper_database):
    return paper_database


@pytest.fixture
def query(paper_query):
    return paper_query


def _fresh_answer(db, query):
    with connect(db) as session:
        return session.execute(Query(query).skyline()).ids


def test_view_matches_initial_query(db, query):
    with connect(db) as session:
        view = session.watch(Query(query).skyline())
        assert view.ids == session.execute(Query(query).skyline()).ids


def test_view_follows_interleaved_adds_and_removes(query):
    workload = make_workload(n_graphs=14, query_size=6, seed=5)
    db = GraphDatabase.from_graphs(workload.database[:8])
    pending = workload.database[8:]
    with connect(db) as session:
        view = session.watch(Query(query).skyline())
        db.insert(pending[0])
        assert view.ids == _fresh_answer(db, query)
        db.remove(view.ids[0])  # drop a skyline member → promotions
        assert view.ids == _fresh_answer(db, query)
        db.insert(pending[1])
        db.remove(db.ids()[2])
        db.insert(pending[2])
        assert view.ids == _fresh_answer(db, query)


def test_view_repairs_only_affected_candidates(db, query):
    with connect(db) as session:
        view = session.watch(Query(query).skyline())
        built = view.evaluations
        assert built == len(db)
        db.remove(2)
        view.refresh()
        assert view.evaluations == built  # removal costs no solving
        novel = make_workload(n_graphs=1, query_size=5, seed=99).database[0]
        db.insert(novel)
        view.refresh()
        assert view.evaluations == built + 1  # one pair per novel insert
        served = view.cache_served
        db.insert(figure3_database()[0])  # isomorphic to an already-solved pair
        view.refresh()
        assert view.evaluations == built + 1  # served from the content-addressed cache
        assert view.cache_served == served + 1
        assert view.repairs == 3


def test_view_refresh_is_version_gated(db, query):
    with connect(db) as session:
        view = session.watch(Query(query).skyline())
        assert view.refresh() is False  # unchanged database: no work
        db.insert(figure3_database()[1])
        assert view.refresh() is True
        assert view.refresh() is False


def test_view_shares_backend_pair_cache(db, query):
    cache = PairCache()
    with connect(db, cache=cache) as session:
        session.execute(Query(query).skyline())  # warms the cache
        view = session.watch(Query(query).skyline())
        assert view.evaluations == 0  # built entirely from cached pairs
        assert view.cache_served == len(db)
        assert view.ids == session.execute(Query(query).skyline()).ids


def test_view_result_snapshot_renders(db, query):
    with connect(db) as session:
        view = session.watch(Query(query).skyline())
        result = view.result()
        assert result.ids == view.ids
        assert result.plan.backend == "live-view"
        assert len(result.to_rows()) == len(db)
        assert "live-view" in result.explain()


def test_view_applies_limit_like_execute(db, query):
    with connect(db) as session:
        spec = Query(query).skyline().limit(1)
        view = session.watch(spec)
        executed = session.execute(spec)
        assert view.ids == executed.ids
        assert len(view) == 1
        db.insert(figure3_database()[3])
        assert view.ids == session.execute(spec).ids


def test_view_rejects_unsupported_specs(db, query):
    with connect(db) as session:
        with pytest.raises(QueryError, match="skyline"):
            session.watch(Query(query).topk(3))
        with pytest.raises(QueryError, match="refine"):
            session.watch(Query(query).skyline().refine(k=2))


def test_view_on_closed_session(db, query):
    session = connect(db)
    session.close()
    with pytest.raises(QueryError, match="closed"):
        session.watch(Query(query).skyline())


def test_view_respects_session_default_measures(db, query):
    with connect(db, measures=("edit",)) as session:
        view = session.watch(Query(query).skyline())
        assert view.ids == session.execute(Query(query).skyline()).ids
        assert view.names == ("edit",)


def test_view_refresh_reads_the_change_log_not_the_live_ids(monkeypatch):
    # ~2 000 graphs, 40 distinct up to isomorphism: the shared pair cache
    # solves each distinct pair once, so the size costs no solver time.
    distinct = [make_random_graph(seed, max_vertices=4) for seed in range(40)]
    db = GraphDatabase.from_graphs(distinct[i % 40] for i in range(2000))
    query = make_random_graph(99, max_vertices=4)
    spec = Query(query).measures("edit", "mcs").skyline()
    with connect(db, cache=PairCache()) as session:
        view = session.watch(spec)
        listed = []
        ids = db.ids
        monkeypatch.setattr(db, "ids", lambda: listed.append(1) or ids())
        db.insert(query.copy(name="exact copy"))  # dominates everything
        after_add = view.ids
        db.remove(after_add[0])
        after_remove = view.ids
        assert listed == [] and view.repairs == 2
    monkeypatch.undo()
    assert after_add == [2000]
    with connect(db, backend="memory", cache=PairCache()) as oracle:
        assert after_remove == oracle.execute(spec).ids
