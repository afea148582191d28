"""Session lifecycle: the context manager closes the session.

The serving layer holds sessions open across many requests, so leaks
here compound; these tests pin the cleanup contract the server relies
on — ``close()`` is idempotent, the context manager always calls it,
and a pooled session keeps answering across mutations."""

from __future__ import annotations

import pytest

import repro
from repro import GraphDatabase, Query
from repro.datasets import make_workload
from repro.errors import QueryError


@pytest.fixture(scope="module")
def database():
    workload = make_workload(n_graphs=8, query_size=5, seed=13)
    return GraphDatabase.from_graphs(workload.database), workload.queries[0]


def test_session_context_manager_closes(database):
    db, query = database
    with repro.connect(db) as session:
        result = session.execute(Query(query).skyline())
        assert result.ids
    with pytest.raises(QueryError, match="closed"):
        session.execute(Query(query).skyline())
    session.close()  # idempotent


def test_session_close_propagates_on_exception(database):
    db, query = database
    with pytest.raises(RuntimeError):
        with repro.connect(db) as session:
            raise RuntimeError("boom")
    with pytest.raises(QueryError, match="closed"):
        session.execute(Query(query).skyline())


def test_parallel_answers_follow_mutation(database):
    db, query = database
    db = GraphDatabase.from_graphs(db.graphs())  # private copy to mutate
    spec = Query(query).topk(2, "edit")
    with repro.connect(db, backend="parallel", max_workers=2) as session, (
        repro.connect(db, backend="memory")
    ) as oracle:
        first = session.execute(spec)
        assert first.stats.pool is not None
        assert first.ids == oracle.execute(spec).ids
        fresh = db.insert(query.copy(name="fresh"))
        second = session.execute(spec)
        assert second.ids == oracle.execute(spec).ids
        assert fresh in second.ids
        third = session.execute(spec)
        assert third.ids == second.ids
