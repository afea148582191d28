"""The persistent worker pool behind ``parallel``: chunk shipping,
robustness, degradation, and process hygiene.

The worker processes are exercised end-to-end through the ``parallel``
backend; the task body (:func:`handle_eval`) is additionally
unit-tested in-process, both for precision and because code running
inside forked workers is invisible to coverage."""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro import GraphDatabase, Query
from repro.datasets import make_workload
from repro.engine import workers
from repro.engine.evaluate import pair_values
from repro.engine.workers import WorkerPoolError, handle_eval, shutdown_pool
from repro.graph.generators import random_labeled_graph
from repro.measures.base import FunctionMeasure, register_measure, resolve_measures

needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method(allow_none=False) != "fork",
    reason="kill/respawn test needs fork-inherited measure registry",
)


@pytest.fixture
def workload():
    w = make_workload(n_graphs=24, query_size=5, seed=41)
    return GraphDatabase.from_graphs(w.database), w.queries[0]


# ----------------------------------------------------------------------
# handle_eval in-process (the worker task body)
# ----------------------------------------------------------------------
def test_handle_eval_inline_pairs_matches_pair_values(workload):
    db, query = workload
    ids = sorted(db.ids())[:4]
    task = {
        "id": "t1",
        "query": query,
        "measures": ("edit",),
        "pairs": [(gid, db.get(gid)) for gid in ids],
    }
    out = handle_eval(task)
    measures = resolve_measures(("edit",))
    expected = [(gid, pair_values(db.get(gid), query, measures)) for gid in ids]
    assert out == {"results": expected, "partial": False}


def test_handle_eval_stops_inside_a_pair_at_the_deadline(workload):
    db, query = workload
    cheap = sorted(db.ids())[0]
    warm = {"query": query, "measures": ("edit",)}
    warm["pairs"] = [(cheap, db.get(cheap))]
    handle_eval(warm)
    # One exact GED of this pair takes well over a second.
    slow = random_labeled_graph(14, 26, vertex_labels=("a", "b"), seed=50)
    task = {
        "query": random_labeled_graph(13, 24, vertex_labels=("a", "b"), seed=51),
        "measures": ("edit",),
        "pairs": [(0, slow), (1, slow)],
        "deadline": time.monotonic() + 0.05,
    }
    started = time.monotonic()
    out = handle_eval(task)
    assert time.monotonic() - started < 0.5
    assert out == {"results": [], "partial": True}


# ----------------------------------------------------------------------
# End-to-end: parity, chunk shipping, robustness
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shards", [None, 4], ids=["monolith", "4-shards"])
def test_parallel_parity_threshold_and_tolerance(shards):
    w = make_workload(n_graphs=48, query_size=5, seed=19)
    query = w.queries[0]
    with repro.connect(w.database, backend="memory", shards=shards) as serial, (
        repro.connect(
            w.database, backend="parallel", shards=shards, max_workers=2
        )
    ) as parallel:
        for spec in (
            Query(query).threshold(3.0, "edit").build(),
            Query(query).skyline().tolerance(0.25).build(),
        ):
            result = parallel.execute(spec)
            assert result.stats.pool is not None
            assert result.ids == serial.execute(spec).ids


def test_pool_telemetry_surfaces_in_explain_and_to_dict():
    w = make_workload(n_graphs=48, query_size=5, seed=23)
    with repro.connect(w.database, backend="parallel", max_workers=2) as session:
        result = session.execute(Query(w.queries[0]).skyline())
    stats = result.to_dict()["stats"]
    assert set(stats["pool"]) == {"workers", "chunks", "respawns"}
    assert stats["pool"]["workers"] == 2 and stats["pool"]["chunks"] >= 1
    assert "worker pool: workers=2 chunks=" in result.explain()


def test_pooled_tasks_ship_only_their_chunk(monkeypatch):
    """A task carries its chunk's own graphs — nothing of the rest of
    the database — and every pair of the exhaustive plan is shipped
    exactly once."""
    shipped = []
    run = workers.WorkerPool.run

    def recording(self, tasks, deadline=None):
        shipped.extend(tasks)
        return run(self, tasks, deadline=deadline)

    monkeypatch.setattr(workers.WorkerPool, "run", recording)
    w = make_workload(n_graphs=48, query_size=5, seed=23)
    with repro.connect(w.database, backend="parallel", max_workers=2) as session:
        result = session.execute(Query(w.queries[0]).skyline())
        database = session.database
    solved: set[int] = set()
    for task in shipped:
        assert set(task) == {"id", "run", "query", "measures", "pairs", "deadline"}
        ids = [graph_id for graph_id, _ in task["pairs"]]
        assert solved.isdisjoint(ids)  # no pair is shipped twice
        solved.update(ids)
        for graph_id, graph in task["pairs"]:
            assert graph is database.get(graph_id)
    assert set(result.evaluated_ids) == solved == set(database.ids())
    assert len(shipped) == result.stats.pool["chunks"]


def test_pooled_answers_follow_many_mutations(workload):
    """Every run ships the graphs live at its version: removed graphs are
    never solved, added ones are, however many versions go by."""
    db, query = workload
    db = GraphDatabase.from_graphs(db.graphs())  # private copy to mutate
    spec = Query(query).topk(3, "edit").build()
    with repro.connect(db, backend="parallel", max_workers=2) as session, (
        repro.connect(db, backend="memory")
    ) as oracle:
        assert session.execute(spec).ids == oracle.execute(spec).ids
        removed = next(iter(db.ids()))
        db.remove(removed)
        fresh = db.insert(query.copy(name="fresh"))
        result = session.execute(spec)
        assert result.ids == oracle.execute(spec).ids
        assert fresh in result.ids and removed not in result.evaluated_ids
        for round_number in range(9):
            db.insert(query.copy(name=f"extra-{round_number}"))
            result = session.execute(spec)
            expected = oracle.execute(spec)
            assert result.ids == expected.ids
            assert result.distances == expected.distances


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_parallel_workloads_match_the_oracle(seed):
    """Differential cover of the pool under mutation: every query step
    of a generated workload runs on ``parallel``, against the
    exhaustive oracle."""
    from repro.cli import _remap_backend
    from repro.testkit import generate_workload, run_workload

    workload = _remap_backend(generate_workload(seed=seed, n_steps=120), "parallel")
    report = run_workload(workload, max_workers=2)
    assert report.ok, report.divergence.describe()
    assert report.queries > 0


@needs_fork
def test_killed_worker_respawns_and_query_matches_oracle(tmp_path, workload):
    db, query = workload
    flag = tmp_path / "kill-claim"
    flag.write_text("armed")
    parent = os.getpid()

    def killer_distance(g1, g2):
        if os.getpid() != parent:
            try:
                os.remove(flag)  # atomic claim: exactly one worker dies
            except FileNotFoundError:
                pass
            else:
                os.kill(os.getpid(), signal.SIGKILL)
        return float(abs(g1.order - g2.order))

    register_measure(
        "killer-test",
        lambda: FunctionMeasure(killer_distance, name="killer-test"),
    )
    # The measure must exist in the workers, which fork lazily — tear the
    # pools down so the next drain forks fresh processes that inherit it.
    shutdown_pool()
    with repro.connect(db, backend="parallel", max_workers=2) as session:
        result = session.execute(Query(query).topk(3, "killer-test"))
        assert result.stats.pool["respawns"] >= 1
    assert not flag.exists()
    with repro.connect(db, backend="memory") as oracle_session:
        oracle = oracle_session.execute(Query(query).topk(3, "killer-test"))
    assert result.ids == oracle.ids
    assert result.distances == oracle.distances


# ----------------------------------------------------------------------
# Degradation ladder
# ----------------------------------------------------------------------
def test_pool_start_failure_falls_back_to_inline_evaluation(
    monkeypatch, workload
):
    db, query = workload

    def refuse(self):
        raise WorkerPoolError("no processes today")

    monkeypatch.setattr(workers.WorkerPool, "ensure_started", refuse)
    with repro.connect(db, backend="parallel", max_workers=2) as session:
        result = session.execute(Query(query).skyline())
        assert result.stats.pool["workers"] == 0
    with repro.connect(db, backend="memory") as oracle_session:
        oracle = oracle_session.execute(Query(query).skyline())
    assert result.ids == oracle.ids


# ----------------------------------------------------------------------
# Process hygiene
# ----------------------------------------------------------------------
def test_shutdown_pool_leaves_no_process():
    w = make_workload(n_graphs=32, query_size=5, seed=31)
    session = repro.connect(w.database, backend="parallel", max_workers=2)
    result = session.execute(Query(w.queries[0]).skyline())
    assert result.stats.pool["workers"] == 2
    assert multiprocessing.active_children()
    # Leak on purpose: no session.close(). shutdown_pool is the backstop
    # (and the atexit hook), and must still stop every worker.
    shutdown_pool()
    assert workers._POOLS == {}
    assert multiprocessing.active_children() == []
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        assert tracker._resource_tracker._pid is None


def test_pooled_read_needs_no_shared_memory():
    """The pool ships each chunk's graphs with its task and returns
    exact vectors: neither side maps a shared-memory segment."""
    code = (
        "import sys, repro\n"
        "from repro import Query\n"
        "from repro.datasets import make_workload\n"
        "w = make_workload(n_graphs=16, query_size=4, seed=5)\n"
        "with repro.connect(w.database, backend='parallel', max_workers=2)"
        " as session:\n"
        "    pool = session.execute(Query(w.queries[0]).skyline()).stats.pool\n"
        "print(pool['workers'], 'multiprocessing.shared_memory' in sys.modules)"
    )
    source_root = str(Path(repro.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": source_root},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["2", "False"]


def test_deadline_propagates_through_pool(workload):
    from repro.engine.deadline import deadline_scope
    from repro.errors import DeadlineExceeded
    from repro.graph.budget import Budget

    db, query = workload
    expired = Budget(expires_at=time.monotonic() - 1.0)
    with repro.connect(db, backend="parallel", max_workers=2) as session:
        with deadline_scope(expired):
            with pytest.raises(DeadlineExceeded):
                session.execute(Query(query).skyline())
