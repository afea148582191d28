"""The persistent worker pool: frontier protocol, chunk shipping,
robustness, degradation, and leak hygiene.

The expensive machinery (worker processes, shared-memory segments) is
exercised end-to-end through the ``parallel`` backend and through
``auto`` scattering over shards with its pool break-even set to zero;
the protocol pieces (:class:`FrontierBuffer`, :class:`FrontierJudge`,
:func:`handle_eval`) are additionally unit-tested in-process, both for
precision and because code running inside forked workers is invisible to
coverage."""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from collections import OrderedDict

import pytest

import repro
from repro import GraphDatabase, Query
from repro.datasets import make_workload
from repro.engine import workers
from repro.engine.evaluate import pair_values
from repro.engine.workers import (
    BoundSharing,
    FrontierBuffer,
    FrontierJudge,
    WorkerPoolError,
    handle_eval,
    live_segments,
    shared_memory_available,
    shutdown_pool,
)
from repro.graph.generators import random_labeled_graph
from repro.measures.base import FunctionMeasure, register_measure, resolve_measures
from repro.skyline.utils import dominates

needs_shm = pytest.mark.skipif(
    not shared_memory_available(), reason="multiprocessing.shared_memory unavailable"
)
needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method(allow_none=False) != "fork",
    reason="kill/respawn test needs fork-inherited measure registry",
)


@pytest.fixture
def workload():
    w = make_workload(n_graphs=24, query_size=5, seed=41)
    return GraphDatabase.from_graphs(w.database), w.queries[0]


# ----------------------------------------------------------------------
# Frontier protocol
# ----------------------------------------------------------------------
@needs_shm
def test_frontier_publish_poll_and_gid_dedup():
    writer = FrontierBuffer.create(regions=3, dims=2)
    try:
        reader = FrontierBuffer.attach(writer.name)
        assert writer.publish(1, 7, (0.5, 1.5))
        assert reader.poll() == {7: (0.5, 1.5)}
        # A double-publish of the same graph id (task resubmitted after a
        # worker respawn) must not produce a second entry — double
        # counting would be unsound for skyband/top-k limits.
        assert writer.publish(2, 7, (9.0, 9.0))
        assert writer.publish(2, 8, (2.0, 2.0))
        polled = reader.poll()
        assert polled[7] == (0.5, 1.5)
        assert polled[8] == (2.0, 2.0)
        reader.release()
    finally:
        writer.release()


@needs_shm
def test_frontier_capacity_overflow_stops_publishing():
    buffer = FrontierBuffer.create(regions=2, dims=1, capacity=2)
    try:
        assert buffer.publish(0, 1, (1.0,))
        assert buffer.publish(0, 2, (2.0,))
        assert not buffer.publish(0, 3, (3.0,))  # full: dropped, not torn
        assert set(buffer.poll()) == {1, 2}
    finally:
        buffer.release()


@needs_shm
def test_frontier_reattached_writer_appends_after_existing_rows():
    board = FrontierBuffer.create(regions=2, dims=1)
    try:
        first = FrontierBuffer.attach(board.name)
        first.publish(1, 10, (1.0,))
        first.publish(1, 11, (2.0,))
        first.release()
        # A respawned worker re-attaches to its region: it must resume
        # *after* the published rows (overwriting them could tear a row
        # under a concurrent reader), not restart at index zero.
        respawned = FrontierBuffer.attach(board.name)
        respawned.publish(1, 12, (3.0,))
        assert set(board.poll()) == {10, 11, 12}
        respawned.release()
    finally:
        board.release()


def test_judge_pareto_matches_dominates_semantics():
    nan = float("nan")
    vectors = [(1.0, 1.0), (nan, 0.5), (3.0, 3.0)]
    judge = FrontierJudge("pareto", limit=1)
    for bounds in [(2.0, 2.0), (0.5, 0.5), (nan, 1.0), (1.0, 0.4)]:
        expected = any(dominates(v, bounds) for v in vectors)
        assert judge.prunes(bounds, vectors) == expected
    # Skyband limit: needs two dominators, not one.
    skyband = FrontierJudge("pareto", limit=2)
    assert not skyband.prunes((2.0, 2.0), [(1.0, 1.0)])
    assert skyband.prunes((4.0, 4.0), [(1.0, 1.0), (3.0, 3.0)])
    assert not judge.prunes(None, vectors)


def test_judge_rank_counts_strictly_better_scalars():
    judge = FrontierJudge("rank", limit=2)
    published = [(1.0,), (2.0,), (5.0,)]
    assert judge.prunes((3.0,), published)  # 1.0 and 2.0 beat the bound
    assert not judge.prunes((2.0,), published)  # only 1.0 is strictly below
    assert not judge.prunes((1.0,), published)


def test_sharing_split_numpy_path_matches_scalar_judge():
    import numpy as np

    rng = np.random.default_rng(3)
    judge = FrontierJudge("pareto", limit=2)
    sharing = BoundSharing(judge, dims=3, frontier=None)
    for gid in range(40):
        vector = [float(round(x, 2)) for x in rng.uniform(0, 4, 3)]
        if gid % 11 == 0:
            vector[gid % 3] = float("nan")
        sharing.observe(gid, vector)
    items = [
        (100 + i, tuple(float(round(x, 2)) for x in rng.uniform(0, 4, 3)))
        for i in range(30)
    ] + [(200, None)]
    kept, pruned = sharing.split(items)  # size crosses the numpy threshold
    vectors = list(sharing.vectors.values())
    expected_pruned = [
        gid
        for gid, bounds in items
        if bounds is not None and judge.prunes(bounds, vectors)
    ]
    assert pruned == expected_pruned
    assert [gid for gid, _ in kept] == [
        gid for gid, _ in items if gid not in set(expected_pruned)
    ]


def test_sharing_for_spec_gates_unsound_kinds(workload):
    _, query = workload
    threshold = Query(query).threshold(2.0, "edit").build()
    assert BoundSharing.for_spec(threshold, 1, 2) is None
    tolerant = Query(query).skyline().tolerance(0.5).build()
    assert BoundSharing.for_spec(tolerant, 3, 2) is None
    sharing = BoundSharing.for_spec(Query(query).skyband(2).build(), 3, 2)
    assert sharing is not None and sharing.judge.limit == 2
    sharing.release()
    ranked = BoundSharing.for_spec(Query(query).topk(4, "edit").build(), 1, 2)
    assert ranked is not None and ranked.judge.mode == "rank"
    ranked.release()


# ----------------------------------------------------------------------
# handle_eval in-process (the worker task body)
# ----------------------------------------------------------------------
register_measure(
    "order-gap-test",
    lambda: FunctionMeasure(
        lambda g1, g2: float(abs(g1.order - g2.order)), name="order-gap-test"
    ),
)


def test_handle_eval_inline_pairs_matches_pair_values(workload):
    db, query = workload
    ids = sorted(db.ids())[:4]
    task = {
        "id": "t1",
        "query": query,
        "measures": ("edit",),
        "pairs": [(gid, db.get(gid)) for gid in ids],
    }
    out = handle_eval(task, OrderedDict(), region=1)
    measures = resolve_measures(("edit",))
    expected = [(gid, pair_values(db.get(gid), query, measures)) for gid in ids]
    assert out["results"] == expected
    assert out["skipped"] == []


def test_handle_eval_stops_inside_a_pair_at_the_deadline(workload):
    db, query = workload
    cheap = sorted(db.ids())[0]
    warm = {"query": query, "measures": ("edit",)}
    warm["pairs"] = [(cheap, db.get(cheap))]
    handle_eval(warm, OrderedDict(), region=1)
    # One exact GED of this pair takes well over a second.
    slow = random_labeled_graph(14, 26, vertex_labels=("a", "b"), seed=50)
    task = {
        "query": random_labeled_graph(13, 24, vertex_labels=("a", "b"), seed=51),
        "measures": ("edit",),
        "pairs": [(0, slow), (1, slow)],
        "deadline": time.monotonic() + 0.05,
    }
    started = time.monotonic()
    out = handle_eval(task, OrderedDict(), region=1)
    assert time.monotonic() - started < 0.5
    assert out["stats"]["partial"] is True
    assert out["results"] == [] and out["cut"] == []


@needs_shm
def test_handle_eval_frontier_skips_dominated_and_publishes(workload):
    db, query = workload
    ids = sorted(db.ids())[:2]
    first, second = ids
    measures = resolve_measures(("order-gap-test",))
    exact_first = pair_values(db.get(first), query, measures)
    board = FrontierBuffer.create(regions=2, dims=1)
    frontiers: OrderedDict = OrderedDict()
    try:
        task = {
            "id": "t2",
            "query": query,
            "measures": ("order-gap-test",),
            "pairs": [(gid, db.get(gid)) for gid in ids],
            # The second candidate's bound is already dominated by the
            # first candidate's exact value, which the worker publishes
            # mid-chunk — so the second is skipped, never solved.
            "bounds": {second: (exact_first[0] + 1.0,)},
            "frontier": {
                "name": board.name,
                "mode": "pareto",
                "limit": 1,
                "tolerance": 0.0,
            },
        }
        out = handle_eval(task, frontiers, region=1)
        assert out["results"] == [(first, exact_first)]
        assert out["skipped"] == [second]
        assert out["stats"]["published"] == 1
        assert out["stats"]["frontier_pruned"] == 1
        assert board.poll() == {first: exact_first}
    finally:
        for buffer in frontiers.values():
            buffer.release()
        board.release()


@needs_shm
def test_handle_eval_cuts_solves_at_the_frontier_cap(workload):
    db, query = workload
    ids = sorted(db.ids())[:6]
    measures = resolve_measures(("edit",))
    exact = {gid: pair_values(db.get(gid), query, measures) for gid in ids}
    best = min(exact.values())
    board = FrontierBuffer.create(regions=2, dims=1)
    frontiers: OrderedDict = OrderedDict()
    try:
        # Another graph's exact value, already on the board: with k = 1
        # every candidate strictly worse is out, and its solve is cut.
        board.publish(0, 10**9, best)
        task = {
            "id": "t3",
            "query": query,
            "measures": ("edit",),
            "pairs": [(gid, db.get(gid)) for gid in ids],
            "frontier": {
                "name": board.name,
                "mode": "rank",
                "limit": 1,
                "tolerance": 0.0,
            },
        }
        out = handle_eval(task, frontiers, region=1)
        tied = [gid for gid in ids if exact[gid] == best]
        assert out["results"] == [(gid, exact[gid]) for gid in tied]
        assert out["cut"] == [gid for gid in ids if gid not in tied]
        assert out["cut"] and out["skipped"] == []
        # Cut pairs are never published.
        assert out["stats"]["published"] == len(tied)
    finally:
        for buffer in frontiers.values():
            buffer.release()
        board.release()


# ----------------------------------------------------------------------
# End-to-end: pruning recovery, parity, robustness
# ----------------------------------------------------------------------
@pytest.fixture
def pool_always(monkeypatch):
    """``auto`` pools every shard: a zero pool break-even."""
    from repro.engine import planner

    monkeypatch.setattr(planner, "POOL_START_SECONDS", 0.0)
    monkeypatch.setattr(planner, "POOL_WARM_SECONDS", 0.0)


def _sharded_pair(database, shards=4):
    return (
        repro.connect(database, backend="sharded", shards=shards),
        repro.connect(database, backend="auto", shards=shards, max_workers=2),
    )


def test_sharded_parallel_recovers_cross_shard_pruning(pool_always):
    w = make_workload(n_graphs=96, query_size=6, seed=7)
    query = w.queries[0]
    serial_session, parallel_session = _sharded_pair(w.database)
    pooled_cuts = 0
    with serial_session, parallel_session:
        for spec in (
            Query(query).skyline().build(),
            Query(query).skyband(2).build(),
            Query(query).topk(5, "edit").build(),
        ):
            serial = serial_session.execute(spec)
            parallel = parallel_session.execute(spec)
            assert parallel.ids == serial.ids
            # The tentpole gate: deferred evaluation must no longer
            # forfeit bound pruning (it used to evaluate ~7× more). Both
            # sides count every pair handed to a solver: evaluations plus
            # solves cut at a cap (the bound stage's, the frontier's).
            def handed(stats):
                return stats.exact_evaluations + stats.pruned_by_stage.get(
                    "solver-cutoff", 0
                )

            assert handed(parallel.stats) <= 2 * handed(serial.stats)
            assert parallel.stats.pool is not None
            assert parallel.stats.pool["waves"] >= 1
            pooled_cuts += parallel.stats.pruned_by_stage.get("solver-cutoff", 0)
    # Pooled solves run against the shared frontier's cap too (workers
    # see it only through the shared-memory board).
    if shared_memory_available():
        assert pooled_cuts > 0


def test_sharded_parallel_parity_threshold_and_tolerance(pool_always):
    w = make_workload(n_graphs=48, query_size=5, seed=19)
    query = w.queries[0]
    serial_session, parallel_session = _sharded_pair(w.database)
    with serial_session, parallel_session:
        for spec in (
            Query(query).threshold(3.0, "edit").build(),
            Query(query).skyline().tolerance(0.25).build(),
        ):
            assert parallel_session.execute(spec).ids == (
                serial_session.execute(spec).ids
            )


def test_pool_telemetry_surfaces_in_explain_and_to_dict(pool_always):
    w = make_workload(n_graphs=48, query_size=5, seed=23)
    with repro.connect(
        w.database, backend="auto", shards=2, max_workers=2
    ) as session:
        result = session.execute(Query(w.queries[0]).skyline())
    stats = result.to_dict()["stats"]
    assert "pool" in stats and stats["pool"]["workers"] == 2
    assert stats["pool"]["chunks"] >= 1
    assert any("chunks" in row for row in stats["per_shard"])
    explained = result.explain()
    assert "worker pool:" in explained
    assert "pool(chunks=" in explained


def test_pooled_tasks_ship_only_their_chunk(monkeypatch, pool_always):
    """A task carries its chunk's own graphs and, with a frontier, their
    optimistic bounds — nothing of the rest of the database."""
    shipped = []
    run = workers.WorkerPool.run

    def recording(self, tasks, deadline=None):
        shipped.extend(tasks)
        return run(self, tasks, deadline=deadline)

    monkeypatch.setattr(workers.WorkerPool, "run", recording)
    w = make_workload(n_graphs=48, query_size=5, seed=23)
    with repro.connect(w.database, backend="auto", max_workers=2) as session:
        result = session.execute(Query(w.queries[0]).skyline())
        database = session.database
    solved: set[int] = set()
    for task in shipped:
        ids = [graph_id for graph_id, _ in task["pairs"]]
        assert solved.isdisjoint(ids)  # no pair is shipped twice
        solved.update(ids)
        for graph_id, graph in task["pairs"]:
            assert graph is database.get(graph_id)
        if shared_memory_available():
            assert set(task["bounds"]) == set(ids)
            for graph_id in set(ids) & set(result.vectors):
                exact = result.vectors[graph_id].values
                assert all(
                    b <= e for b, e in zip(task["bounds"][graph_id], exact)
                )
        else:
            assert "bounds" not in task
    # Bound pruning left only some pairs to ship, and every evaluated
    # pair was one of them.
    assert set(result.evaluated_ids) <= solved < set(database.ids())


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
def test_pooled_pruning_workloads_match_the_oracle(seed, monkeypatch, pool_always):
    """Differential cover of pooled waves with shipped bounds: every
    query step of a generated workload runs on ``auto`` with the pool
    always chosen, against the exhaustive oracle."""
    from repro.cli import _remap_backend
    from repro.testkit import generate_workload, run_workload

    shipped_bounds = 0
    run = workers.WorkerPool.run

    def counting(self, tasks, deadline=None):
        nonlocal shipped_bounds
        shipped_bounds += sum("bounds" in task for task in tasks)
        return run(self, tasks, deadline=deadline)

    monkeypatch.setattr(workers.WorkerPool, "run", counting)
    workload = _remap_backend(generate_workload(seed=seed, n_steps=120), "auto")
    report = run_workload(workload, max_workers=2)
    assert report.ok, report.divergence.describe()
    assert report.queries > 0
    if shared_memory_available():
        assert shipped_bounds > 0


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
def test_sharded_parallel_parity_without_shared_memory(monkeypatch, pool_always):
    monkeypatch.setattr(workers, "_SHM_DISABLED", True)
    w = make_workload(n_graphs=48, query_size=5, seed=29)
    query = w.queries[0]
    serial_session, parallel_session = _sharded_pair(w.database, shards=2)
    with serial_session, parallel_session:
        spec = Query(query).skyline().build()
        serial = serial_session.execute(spec)
        parallel = parallel_session.execute(spec)
    assert parallel.ids == serial.ids
    # No frontier, but the parent-side wave filter still recovers
    # pruning between waves.
    assert parallel.stats.pool["published"] == 0


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
# Leak hygiene
# ----------------------------------------------------------------------
def test_shutdown_pool_releases_every_segment(pool_always):
    w = make_workload(n_graphs=32, query_size=5, seed=31)
    session = repro.connect(w.database, backend="auto", shards=2, max_workers=2)
    session.execute(Query(w.queries[0]).skyline())
    # Leak on purpose: no session.close(). shutdown_pool is the backstop
    # (and the atexit hook), and must still release everything.
    shutdown_pool()
    assert live_segments() == []
    if os.path.isdir("/dev/shm"):
        leaked = [
            name
            for name in os.listdir("/dev/shm")
            if name.startswith(workers.SEGMENT_PREFIX)
        ]
        assert leaked == []


@needs_shm
def test_shutdown_pool_stops_the_resource_tracker(pool_always):
    from multiprocessing import resource_tracker

    w = make_workload(n_graphs=32, query_size=5, seed=31)
    with repro.connect(
        w.database, backend="auto", shards=2, max_workers=2
    ) as session:
        result = session.execute(Query(w.queries[0]).skyline())
    assert result.stats.pool["workers"] == 2
    tracker = resource_tracker._resource_tracker
    pid = tracker._pid
    assert pid is not None  # the frontier board started it
    shutdown_pool()
    assert tracker._pid is None
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)
    # The next segment starts a fresh tracker, and the next shutdown
    # stops that one too.
    FrontierBuffer.create(regions=1, dims=1).release()
    assert tracker._pid not in (None, pid)
    shutdown_pool()
    assert tracker._pid is None


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
