"""The persistent worker pool: frontier protocol, payload deltas,
robustness, degradation, and leak hygiene.

The expensive machinery (worker processes, shared-memory segments) is
exercised end-to-end through the ``parallel`` and ``sharded`` backends;
the protocol pieces (:class:`FrontierBuffer`, :class:`FrontierJudge`,
:func:`ensure_payload`, :func:`handle_eval`) are additionally unit-tested
in-process, both for precision and because code running inside forked
workers is invisible to coverage."""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
from collections import OrderedDict

import pytest

import repro
from repro import GraphDatabase, Query
from repro.datasets import make_workload
from repro.engine import workers
from repro.engine.evaluate import pair_values
from repro.engine.workers import (
    BoundSharing,
    DatabaseAttachment,
    FrontierBuffer,
    FrontierJudge,
    PooledEvaluator,
    WorkerPoolError,
    ensure_payload,
    handle_eval,
    live_segments,
    shared_memory_available,
    shutdown_pool,
)
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
    np = pytest.importorskip("numpy")
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
# Attachment deltas (in-process: parent refresh + worker replay)
# ----------------------------------------------------------------------
def test_attachment_delta_chain_replay(workload):
    db, query = workload
    db = GraphDatabase.from_graphs(db.graphs())
    attachment = DatabaseAttachment(db)
    worker_cache: OrderedDict = OrderedDict()
    try:
        assert attachment.refresh(db) == "cold"
        graphs, kind = ensure_payload(attachment.spec(), worker_cache)
        assert kind == "cold"
        assert set(graphs) == set(db.ids())
        assert attachment.refresh(db) == "warm"
        _, kind = ensure_payload(attachment.spec(), worker_cache)
        assert kind == "warm"

        # Mutate: one insert, one remove. The refresh must ship only the
        # id-set diff, and a warm worker must replay it incrementally.
        removed_id = next(iter(db.ids()))
        db.remove(removed_id)
        added_id = db.insert(query.copy(name="fresh"))
        assert attachment.refresh(db) == "delta"
        spec = attachment.spec()
        delta_links = [link for link in spec["chain"] if link[0] == "delta"]
        assert len(delta_links) == 1
        added, removed = pickle.loads(workers.read_blob(delta_links[0][2]))
        assert set(added) == {added_id} and removed == [removed_id]
        graphs, kind = ensure_payload(spec, worker_cache)
        assert kind == "delta"
        assert set(graphs) == set(db.ids())
        assert graphs[added_id].name == "fresh"

        # A cold worker (empty cache) replays base + every delta.
        graphs, kind = ensure_payload(spec, OrderedDict())
        assert kind == "cold"
        assert set(graphs) == set(db.ids())
    finally:
        attachment.release()


def test_attachment_rebases_after_long_delta_chain(workload):
    db, query = workload
    db = GraphDatabase.from_graphs(db.graphs())
    attachment = DatabaseAttachment(db)
    try:
        attachment.refresh(db)
        for round_number in range(workers._REBASE_CHAIN_LIMIT):
            db.insert(query.copy(name=f"extra-{round_number}"))
            assert attachment.refresh(db) == "delta"
        db.insert(query.copy(name="the-last-straw"))
        # Chain hit the limit: fold everything into a fresh base blob.
        assert attachment.refresh(db) == "cold"
        assert attachment.delta_count == 0
        graphs, kind = ensure_payload(attachment.spec(), OrderedDict())
        assert kind == "cold" and set(graphs) == set(db.ids())
    finally:
        attachment.release()


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
        "ids": ids,
        "pairs": [(gid, db.get(gid)) for gid in ids],
    }
    out = handle_eval(task, OrderedDict(), OrderedDict(), OrderedDict(), region=1)
    measures = resolve_measures(("edit",))
    expected = [(gid, pair_values(db.get(gid), query, measures)) for gid in ids]
    assert out["results"] == expected
    assert out["skipped"] == []
    assert out["stats"]["attach"] == "inline"


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
            "ids": ids,
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
        out = handle_eval(task, OrderedDict(), OrderedDict(), frontiers, region=1)
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
            "ids": ids,
            "pairs": [(gid, db.get(gid)) for gid in ids],
            "frontier": {
                "name": board.name,
                "mode": "rank",
                "limit": 1,
                "tolerance": 0.0,
            },
        }
        out = handle_eval(task, OrderedDict(), OrderedDict(), frontiers, region=1)
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
def _sharded_pair(database, shards=4):
    return (
        repro.connect(database, backend="sharded", shards=shards),
        repro.connect(
            database, backend="sharded", shards=shards, parallel=True, max_workers=2
        ),
    )


def test_sharded_parallel_recovers_cross_shard_pruning():
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


def test_sharded_parallel_parity_threshold_and_tolerance():
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


def test_pool_telemetry_surfaces_in_explain_and_to_dict():
    w = make_workload(n_graphs=48, query_size=5, seed=23)
    with repro.connect(
        w.database, backend="sharded", shards=2, parallel=True, max_workers=2
    ) as session:
        result = session.execute(Query(w.queries[0]).skyline())
    stats = result.to_dict()["stats"]
    assert "pool" in stats and stats["pool"]["workers"] == 2
    assert stats["pool"]["chunks"] >= 1
    assert any("chunks" in row for row in stats["per_shard"])
    explained = result.explain()
    assert "worker pool:" in explained
    assert "pool(attach=" in explained


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
def test_sharded_parallel_parity_without_shared_memory(monkeypatch):
    monkeypatch.setattr(workers, "_SHM_DISABLED", True)
    w = make_workload(n_graphs=48, query_size=5, seed=29)
    query = w.queries[0]
    serial_session, parallel_session = _sharded_pair(w.database, shards=2)
    with serial_session, parallel_session:
        spec = Query(query).skyline().build()
        serial = serial_session.execute(spec)
        parallel = parallel_session.execute(spec)
    assert parallel.ids == serial.ids
    # Blobs fell back to temp files; no frontier, but the parent-side
    # wave filter still recovers pruning between waves.
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
        assert result.stats.pool["attach"] == {"serial": 1}
        assert result.stats.pool["workers"] == 0
    with repro.connect(db, backend="memory") as oracle_session:
        oracle = oracle_session.execute(Query(query).skyline())
    assert result.ids == oracle.ids


# ----------------------------------------------------------------------
# Leak hygiene
# ----------------------------------------------------------------------
def test_shutdown_pool_releases_every_segment():
    w = make_workload(n_graphs=32, query_size=5, seed=31)
    session = repro.connect(
        w.database, backend="sharded", shards=2, parallel=True, max_workers=2
    )
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


def test_deadline_propagates_through_pool(workload):
    import time

    from repro.engine.deadline import Deadline, deadline_scope
    from repro.errors import DeadlineExceeded

    db, query = workload
    expired = Deadline(expires_at=time.monotonic() - 1.0, budget=0.001)
    with repro.connect(db, backend="parallel", max_workers=2) as session:
        with deadline_scope(expired):
            with pytest.raises(DeadlineExceeded):
                session.execute(Query(query).skyline())
