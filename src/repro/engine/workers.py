"""Persistent worker pool: long-lived processes behind ``parallel``.

The ``parallel`` backend solves every pair of an exhaustive plan on a
pool of worker processes. Workers are plain ``multiprocessing``
processes started once per pool size and reused by every query of every
session (:class:`WorkerPool`); a task is a dict on a queue, not a fresh
executor + pickled closure. A worker that dies mid-query (OOM killer,
signal) is detected by the result loop, the pool rebuilds itself and
resubmits only the unfinished tasks — unlike ``ProcessPoolExecutor``,
which turns one lost worker into a permanently broken pool.

A task carries exactly what its chunk needs: the chunk's
``(graph_id, graph)`` pairs, the query graph and the measure names. No
database copy is kept on the far side of the process boundary, and
nothing is shared between processes but the two queues.

No pruning plan is pooled. A pruning plan gets its speed from bound
feedback between pairs: each exact vector tightens the cutoff the next
pair is solved against, which a deferred drain cannot see. On a 2-vCPU
host the pooled threshold read of an 8-vertex workload made 212 exact
evaluations against serial's 37 and ran ~50× slower, so ``auto`` always
evaluates serially.

Degradation is graceful: ``multiprocessing`` unusable → the evaluator
solves in-process (``stats.pool["workers"] == 0``). :func:`shutdown_pool`
(also registered ``atexit``) stops every worker.
"""

from __future__ import annotations

import atexit
import os
import queue as queue_module
import sys
import uuid
from typing import TYPE_CHECKING

from repro.errors import DeadlineExceeded, ReproError
from repro.graph.budget import Budget
from repro.engine.evaluate import Evaluator, exact_values, pair_values, settled

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.core import RunContext


class WorkerPoolError(ReproError):
    """The worker pool could not run a task (start failure, worker error,
    or more consecutive worker deaths than the rebuild budget allows)."""


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _resolve_worker_measures(measure_specs):
    from repro.measures.base import default_measures, resolve_measures

    if measure_specs is None:
        return default_measures()
    return resolve_measures(measure_specs)


def handle_eval(task: dict) -> dict:
    """Evaluate one chunk task (pure: unit-testable in-process).

    Solves the chunk's ``pairs`` in order, each under the task's
    ``deadline`` as an expiry-only budget; ``partial`` flags a chunk
    that deadline cut short, between pairs or inside one.
    """
    measures = _resolve_worker_measures(task["measures"])
    query = task["query"]
    expires_at = task.get("deadline")
    budget = None if expires_at is None else Budget(expires_at=expires_at)
    results: list[tuple[int, tuple[float, ...]]] = []
    for graph_id, graph in task["pairs"]:
        if budget is not None and budget.expired():
            return {"results": results, "partial": True}
        values = pair_values(graph, query, measures, budget=budget)
        if budget is not None:
            values = settled(values)
            if values is None:  # the deadline stopped this pair's search
                return {"results": results, "partial": True}
        results.append((graph_id, values))
    return {"results": results, "partial": False}


def _worker_main(task_queue, result_queue) -> None:
    """Long-lived worker loop: pull task dicts, push result dicts."""
    while True:
        task = task_queue.get()
        if task is None:
            break
        try:
            out = handle_eval(task)
            out.update(id=task["id"], run=task.get("run"), ok=True)
        except Exception as exc:  # ship the failure, keep the worker alive
            out = {
                "id": task.get("id"),
                "run": task.get("run"),
                "ok": False,
                "error": f"{type(exc).__name__}: {exc}",
            }
        try:
            result_queue.put(out)
        except Exception:
            break


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------
#: Consecutive full-pool rebuilds tolerated within one ``run`` call.
_MAX_REBUILDS = 3
#: Result-queue poll interval; also the worker-death detection latency.
_POLL_SECONDS = 0.05


class WorkerPool:
    """A persistent set of worker processes.

    Tasks go down one queue, results come back up another; a ``run``
    scopes its results by a random run id, so results of abandoned tasks
    (deadline expiry, rebuilds) are dropped as stale instead of polluting
    the next query. Worker death is detected while waiting for results
    and answered with a full rebuild — fresh queues, fresh processes —
    and resubmission of the still-unfinished tasks only.
    """

    def __init__(self, max_workers: int) -> None:
        import multiprocessing
        import threading

        self.max_workers = max(1, max_workers)
        method = os.environ.get("REPRO_POOL_START_METHOD") or None
        self._mp = multiprocessing.get_context(method)
        # One pool serves every session and server client in the process;
        # runs are serialized because each run treats foreign run ids on
        # the shared result queue as stale and drops them.
        self._run_lock = threading.Lock()
        self._processes: list = []
        self._task_queue = None
        self._result_queue = None
        self._closed = False
        #: Full-pool rebuilds over the pool's lifetime (telemetry).
        self.respawns = 0

    @property
    def started(self) -> bool:
        return bool(self._processes)

    def ensure_started(self) -> None:
        """Start (or top up) the worker set; raises on spawn failure."""
        if self._closed:
            raise WorkerPoolError("worker pool is closed")
        try:
            if self._task_queue is None:
                self._task_queue = self._mp.Queue()
                self._result_queue = self._mp.Queue()
            while len(self._processes) < self.max_workers:
                self._spawn(len(self._processes))
            for slot, process in enumerate(self._processes):
                if not process.is_alive():
                    self.respawns += 1
                    self._spawn(slot)
        except WorkerPoolError:
            raise
        except Exception as exc:
            raise WorkerPoolError(f"worker pool failed to start: {exc}") from exc

    def _spawn(self, slot: int) -> None:
        process = self._mp.Process(
            target=_worker_main,
            args=(self._task_queue, self._result_queue),
            name=f"repro-pool-{slot}",
            daemon=True,
        )
        process.start()
        if slot < len(self._processes):
            self._processes[slot] = process
        else:
            self._processes.append(process)

    def _rebuild(self, pending_tasks) -> None:
        """Replace every worker and queue; requeue the unfinished tasks."""
        self.respawns += 1
        for process in self._processes:
            try:
                process.terminate()
            except Exception:
                pass
        for process in self._processes:
            try:
                process.join(timeout=5)
            except Exception:
                pass
        self._discard_queues()
        self._task_queue = self._mp.Queue()
        self._result_queue = self._mp.Queue()
        self._processes = []
        for slot in range(self.max_workers):
            self._spawn(slot)
        for task in pending_tasks:
            self._task_queue.put(task)

    def _discard_queues(self) -> None:
        for attr in ("_task_queue", "_result_queue"):
            q = getattr(self, attr)
            if q is not None:
                try:
                    q.close()
                    q.cancel_join_thread()
                except Exception:
                    pass
            setattr(self, attr, None)

    def run(self, tasks: list[dict], deadline=None) -> list[dict]:
        """Execute ``tasks``; results aligned with the input order.

        Raises :class:`~repro.errors.DeadlineExceeded` via ``deadline``
        (a :class:`~repro.graph.budget.Budget`; abandoned tasks' late
        results are dropped as stale by run id)
        and :class:`WorkerPoolError` on a worker-reported failure or a
        rebuild-budget overrun.
        """
        if not tasks:
            return []
        with self._run_lock:
            self.ensure_started()
            run_id = uuid.uuid4().hex
            outstanding: dict[object, dict] = {}
            for task in tasks:
                task["run"] = run_id
                outstanding[task["id"]] = task
                self._task_queue.put(task)
            results: dict[object, dict] = {}
            rebuilds = 0
            while outstanding:
                if deadline is not None:
                    deadline.check()
                try:
                    out = self._result_queue.get(timeout=_POLL_SECONDS)
                except queue_module.Empty:
                    if any(not p.is_alive() for p in self._processes):
                        if rebuilds >= _MAX_REBUILDS:
                            raise WorkerPoolError(
                                "worker pool kept losing workers "
                                f"({rebuilds} rebuilds); giving up"
                            )
                        rebuilds += 1
                        self._rebuild(list(outstanding.values()))
                    continue
                if out.get("run") != run_id or out.get("id") not in outstanding:
                    continue  # stale result of an abandoned/resubmitted task
                if not out.get("ok"):
                    raise WorkerPoolError(
                        "worker task failed: "
                        f"{out.get('error', 'unknown error')}"
                    )
                del outstanding[out["id"]]
                results[out["id"]] = out
            return [results[task["id"]] for task in tasks]

    def close(self) -> None:
        """Stop the workers."""
        self._closed = True
        if self._task_queue is not None:
            for _ in self._processes:
                try:
                    self._task_queue.put(None)
                except Exception:
                    break
        for process in self._processes:
            try:
                process.join(timeout=2)
            except Exception:
                pass
        for process in self._processes:
            if process.is_alive():
                try:
                    process.terminate()
                    process.join(timeout=2)
                except Exception:
                    pass
        self._processes = []
        self._discard_queues()


# ----------------------------------------------------------------------
# Process-wide pool registry
# ----------------------------------------------------------------------
_POOLS: dict[int, WorkerPool] = {}


def get_pool(max_workers: int) -> WorkerPool:
    """The process-wide persistent pool for ``max_workers``.

    Pools are cached per size so sessions with different worker counts
    coexist; one pool serves every session and server client with that
    size. Workers fork lazily on first use and stay warm until
    :func:`shutdown_pool`.
    """
    max_workers = max(1, max_workers)
    pool = _POOLS.get(max_workers)
    if pool is None:
        pool = _POOLS[max_workers] = WorkerPool(max_workers)
    return pool


def shutdown_pool() -> None:
    """Tear down every pool, then stop multiprocessing's resource tracker
    (idempotent; also registered ``atexit``)."""
    while _POOLS:
        _, pool = _POOLS.popitem()
        pool.close()
    _stop_resource_tracker()


def _stop_resource_tracker() -> None:
    """Stop the resource tracker process, if a pool started one (the
    ``spawn`` and ``forkserver`` start methods do; ``fork`` does not).

    It exits once every holder of its pipe has closed it, and forked
    children inherit the pipe, so it is stopped only when no
    ``multiprocessing`` child is left: waiting for it while a child
    holds the pipe would never return.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is None:
        return
    import multiprocessing

    if multiprocessing.active_children():
        return
    stop = getattr(tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


atexit.register(shutdown_pool)


# ----------------------------------------------------------------------
# The evaluator
# ----------------------------------------------------------------------
class PooledEvaluator(Evaluator):
    """Deferred evaluation on the persistent worker pool.

    ``evaluate`` only records the candidate's id; ``drain`` ships every
    recorded pair at once, in auto-sized chunks (~4 per worker), each
    task carrying its own graphs. Its one user is the exhaustive
    ``parallel`` preset: no bound stage, so no cutoff to solve against.

    Degradation: pool start failure → in-process evaluation
    (``stats.pool["workers"] == 0``). Answers stay identical,
    property-tested against serial.
    """

    interleaved = False

    def __init__(self, max_workers: int | None = None) -> None:
        self.max_workers = max(1, max_workers or os.cpu_count() or 1)
        self._pending: list[int] = []

    def begin(self, ctx, total) -> None:
        self._pending = []

    def evaluate(self, ctx, candidate):
        self._pending.append(candidate.graph_id)
        return None

    def chunk(self, ids: list) -> list[list]:
        """Split graph ids into pool tasks, ~4 per worker."""
        if not ids:
            return []
        size = max(1, -(-len(ids) // (self.max_workers * 4)))
        return [ids[i : i + size] for i in range(0, len(ids), size)]

    def drain(self, ctx: "RunContext"):
        pending, self._pending = self._pending, []
        if not pending:
            return []
        stats = {"workers": self.max_workers, "chunks": 0, "respawns": 0}
        try:
            pool = get_pool(self.max_workers)
            pool.ensure_started()
        except Exception:
            pool = None
        if pool is None:
            stats["workers"] = 0
            results = self._drain_inline(ctx, pending)
        else:
            results = self._drain_pooled(ctx, pool, pending, stats)
        ctx.stats.pool = stats
        results.sort()
        return results

    def _drain_inline(self, ctx, pending):
        """No usable pool: solve in-process, under the run's deadline."""
        budget = ctx.deadline
        results = []
        for graph_id in pending:
            if budget is not None:
                budget.check()
            values = pair_values(
                ctx.database.get(graph_id), ctx.spec.graph, ctx.measures,
                budget=budget,
            )
            if budget is not None:
                values = exact_values(values)
            results.append((graph_id, values))
        return results

    def _drain_pooled(self, ctx, pool, pending, stats):
        respawns_before = pool.respawns
        expires_at = ctx.deadline.expires_at if ctx.deadline is not None else None
        tasks = [
            {
                "id": uuid.uuid4().hex,
                "query": ctx.spec.graph,
                "measures": ctx.measure_specs,
                "pairs": [
                    (graph_id, ctx.database.get(graph_id)) for graph_id in ids
                ],
                "deadline": expires_at,
            }
            for ids in self.chunk(pending)
        ]
        stats["chunks"] = len(tasks)
        outs = pool.run(tasks, deadline=ctx.deadline)
        if any(out["partial"] for out in outs):
            raise DeadlineExceeded(
                "query deadline exceeded in a pooled chunk; "
                "evaluation cancelled"
            )
        stats["respawns"] = pool.respawns - respawns_before
        return [pair for out in outs for pair in out["results"]]
