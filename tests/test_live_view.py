"""Live views: Session.watch stays equal to a from-scratch re-query.

After any interleaving of database inserts and removals, a watched
answer must match what a fresh query over the mutated database returns.
A view reads through ``Session.execute``'s path over an answer entry of
its own: with a pair cache a refresh replays that entry over the change
log, judging only the added graphs, and removing an answer member runs
the query in full.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import GraphDatabase, GraphQuery, PairCache, Query, connect
from repro.datasets import figure3_database, make_workload
from repro.datasets.synthetic import ATOMS, BONDS, molecule_like_graph
from repro.errors import QueryError
from repro.graph.generators import mutate
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
    with connect(db, cache=PairCache()) as session:
        view = session.watch(Query(query).skyline())
        built = view.evaluations
        assert built == len(db)
        db.remove(2)  # not an answer member: a replay over the change log
        view.refresh()
        assert view.evaluations == built  # removal costs no solving
        assert view.result().stats.replayed_from is not None
        novel = make_workload(n_graphs=1, query_size=5, seed=99).database[0]
        db.insert(novel)
        view.refresh()
        # A novel insert is judged alone: bound-pruned or solved once.
        assert view.evaluations - built <= 1
        evaluated = view.evaluations
        served = view.cache_served
        db.insert(figure3_database()[0])  # isomorphic to an already-solved pair
        view.refresh()
        assert view.evaluations == evaluated  # served from the content-addressed cache
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
        assert result.plan.backend == session.backend_name
        assert len(result.to_rows()) == len(db)
        assert session.backend_name in result.explain()


def test_view_applies_limit_like_execute(db, query):
    with connect(db) as session:
        spec = Query(query).skyline().limit(1)
        view = session.watch(spec)
        executed = session.execute(spec)
        assert view.ids == executed.ids
        assert len(view) == 1
        db.insert(figure3_database()[3])
        assert view.ids == session.execute(spec).ids


def test_view_topk_and_refine_watches_equal_execute(db, query):
    with connect(db) as session:
        specs = (Query(query).topk(3), Query(query).skyline().refine(k=2))
        views = [session.watch(spec) for spec in specs]
        for spec, view in zip(specs, views):
            assert view.ids == session.execute(spec).ids
        db.insert(figure3_database()[3])
        db.remove(views[0].ids[0])
        for spec, view in zip(specs, views):
            assert view.ids == session.execute(spec).ids
        assert views[1].result().refinement is not None


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
        assert listed == []  # the add is replayed from the change log
        assert view.result().stats.replayed_from is not None
        db.remove(after_add[0])  # an answer member: a full run
        after_remove = view.ids
        assert view.repairs == 2
    monkeypatch.undo()
    assert after_add == [2000]
    with connect(db, backend="memory", cache=PairCache()) as oracle:
        assert after_remove == oracle.execute(spec).ids


def test_tolerant_view_equals_execute_under_removals():
    # Tolerant dominance is not transitive: a dominated graph may be
    # promoted by removing a graph that never was in the answer, so the
    # view must run in full rather than repair a maintained set.
    workload = make_workload(
        24, n_queries=1, query_size=4, mutant_fraction=0.5, radius=(1, 3), seed=11
    )
    db = GraphDatabase.from_graphs(workload.database[:16])
    spec = GraphQuery(graph=workload.queries[0], kind="skyline", tolerance=0.2)
    rng = random.Random(11)
    with connect(db, cache=PairCache()) as session:
        view = session.watch(spec)
        for graph in workload.database[16:]:
            db.insert(graph)
            assert view.ids == session.execute(spec).ids
            if rng.random() < 0.5:
                db.remove(rng.choice(view.ids))
                assert view.ids == session.execute(spec).ids


# Each action: an add of a near mutant of the query, an add of a fresh
# molecule, a removal of one view's answer member, or a removal of any
# graph; the integer seeds the action's choices.
_ACTIONS = st.tuples(
    st.sampled_from(("mutant", "fresh", "member", "any")),
    st.integers(min_value=0, max_value=2**16),
)


@settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    bursts=st.lists(
        st.lists(_ACTIONS, min_size=1, max_size=4), min_size=1, max_size=3
    ),
)
def test_views_of_every_kind_equal_a_cold_execute(seed, bursts):
    workload = make_workload(
        10, n_queries=1, query_size=4, mutant_fraction=0.5, radius=(1, 3), seed=seed
    )
    query = workload.queries[0]
    db = GraphDatabase.from_graphs(workload.database)
    specs = [
        Query(query).topk(3, measure="edit"),
        Query(query).threshold(3.0, measure="edit"),
        Query(query).skyline(),
        Query(query).skyband(2),
    ]
    # The first burst only adds near mutants, so every view replays it.
    first = [("mutant", seed + i) for i in range(3)]
    replays = 0
    with connect(
        db, backend="auto", cache=PairCache(), max_workers=1
    ) as session:
        views = [session.watch(spec) for spec in specs]
        for burst in [first, *bursts]:
            for action, salt in burst:
                rng = random.Random(salt)
                if action == "mutant":
                    edits = rng.randint(1, 3)
                    db.insert(mutate(query, edits, ATOMS, BONDS, seed=rng))
                elif action == "fresh":
                    db.insert(molecule_like_graph(4, seed=rng))
                elif len(db) > 1:
                    members = rng.choice(views).ids
                    pool = members if action == "member" and members else db.ids()
                    db.remove(rng.choice(pool))
            for spec, view in zip(specs, views):
                with connect(db) as cold:
                    assert view.ids == cold.execute(spec).ids
                replays += view.result().stats.replayed_from is not None
    assert replays >= len(specs)
