"""Session lifecycle: the context manager releases backend resources.

The serving layer holds sessions open across many requests, so leaks
here compound; these tests pin the cleanup contract the server relies
on — ``close()`` is idempotent, the context manager always calls it,
and the parallel backend's shared-memory database attachment (and any
``/dev/shm`` segments behind it) disappears with the session."""

from __future__ import annotations

import pytest

import repro
from repro import GraphDatabase, Query
from repro.datasets import make_workload
from repro.engine.workers import live_segments
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


def test_parallel_session_releases_attachment(database):
    db, query = database
    before = set(live_segments())
    with repro.connect(db, backend="parallel", max_workers=2) as session:
        result = session.execute(Query(query).topk(3, "edit"))
        assert len(result.ids) == 3
        assert result.stats.pool is not None
        # The drain parked a database attachment on the pool.
        assert session.backend._pooled[None]._attachment_key is not None
    # Closing the session released it: no attachment reference, and no
    # shared-memory segment this session created is still alive.
    assert session.backend._pooled[None]._attachment_key is None
    assert set(live_segments()) <= before


def test_parallel_mutation_ships_delta_not_rollover(database):
    db, query = database
    db = GraphDatabase.from_graphs(db.graphs())  # private copy to mutate
    with repro.connect(db, backend="parallel", max_workers=2) as session:
        first = session.execute(Query(query).topk(2, "edit"))
        assert first.stats.pool["attach"].get("cold") == 1
        pool = session.backend._pooled[None]._pool
        attachment = pool._attachments[id(db)]
        assert attachment.delta_count == 0
        db.insert(query.copy(name="fresh"))
        second = session.execute(Query(query).topk(2, "edit"))
        # The mutation shipped a row-level delta, not a full payload.
        assert second.stats.pool["attach"].get("delta") == 1
        assert attachment.delta_count == 1
        assert attachment.version == db.version
        third = session.execute(Query(query).topk(2, "edit"))
        assert third.stats.pool["attach"].get("warm") == 1
    # Session close dropped the attachment (and its blobs) from the pool.
    assert id(db) not in pool._attachments
