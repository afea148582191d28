"""The query server: shared state, request handlers, lifecycle.

One :class:`QueryServer` owns one :class:`~repro.db.database.GraphDatabase`
(partitioned into a :class:`~repro.shard.store.ShardedGraphDatabase` when
configured), one cross-client :class:`~repro.db.cache.PairCache`, and one
lazily built :class:`~repro.api.session.Session` per requested backend —
every client queries the same corpus through the same cache, which is the
whole point of serving instead of embedding. Each session's answer store
is shared the same way: a spec any client already ran at the current
database version is answered without touching a candidate, and one run
at an older version is replayed over the graphs changed since
(``/v1/stats`` counts ``hits``, ``replays`` and ``misses`` per backend).

Concurrency model
-----------------
The event loop only frames requests and schedules work; evaluation is
CPU-bound Python and runs on executor threads:

* a *query executor* of exactly ``max_concurrency`` threads (the
  admission controller's physical bound);
* a single-thread *service executor* for mutations and watch refreshes,
  so writes and stream repairs keep making progress while the query pool
  is saturated.

Shared state is guarded by a readers-writer lock: queries and watch
refreshes read, mutations write. Backends that carry mutable run state
(index rebuilds, pooled workers, shard routers) additionally serialize
behind a per-backend lock; the stateless ``memory`` backend runs fully
concurrently. Deadlines enter through
:func:`~repro.engine.deadline.deadline_scope` *inside* the worker thread,
so the engine's per-candidate checks see the right ambient deadline no
matter which thread evaluates.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import dataclasses
import threading
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.api.ops import MutationOp, apply_mutation, mutation_from_dict
from repro.api.session import Session
from repro.api.spec import GraphQuery
from repro.db.wal import MANIFEST_NAME, DurableLog
from repro.engine.deadline import Deadline, deadline_scope
from repro.errors import (
    DeadlineExceeded,
    QueryError,
    SerializationError,
    StaleHandleError,
)
from repro.server.admission import AdmissionController, AdmissionRejected
from repro.server.protocol import (
    ProtocolError,
    Request,
    encode_event,
    encode_response,
    encode_stream_header,
    read_request,
)
from repro.server.streaming import WatchHandle, WatchHub, view_event
from repro.shard.store import ShardedGraphDatabase

if TYPE_CHECKING:
    from repro.db.database import GraphDatabase


@dataclass(frozen=True)
class ServerConfig:
    """Tunables of one :class:`QueryServer` (all have serving defaults)."""

    host: str = "127.0.0.1"
    #: TCP port; ``0`` binds an ephemeral port (``server.port`` has it).
    port: int = 0
    #: Default execution backend (per-request override: ``?backend=``).
    backend: str = "memory"
    #: Partition the database into this many shards (``None``: as given).
    shards: int | None = None
    #: Queries evaluating simultaneously (query-executor width).
    max_concurrency: int = 4
    #: Admitted-but-waiting requests beyond the active ones.
    max_queue: int = 16
    #: Default per-query deadline (``None``: unbounded). Per-request
    #: override: ``?deadline_ms=`` or the ``X-Deadline-Ms`` header.
    deadline_ms: int | None = 30_000
    #: Open watch streams the hub accepts before refusing.
    max_watches: int = 32
    #: Optional bearer token; when set, every endpoint except
    #: ``/v1/health`` requires ``Authorization: Bearer <token>``.
    token: str | None = None
    #: Durability: directory of the write-ahead log. ``None`` serves the
    #: corpus in memory only (the historical behaviour); a path makes
    #: every ``/v1/mutate`` append-before-apply, so the ack — carrying
    #: the committed ``lsn`` — is only sent once the record is as
    #: durable as :attr:`sync` promises. If the directory already holds
    #: a log, the server *recovers from it* and serves the recovered
    #: store instead of the passed corpus (which was only the first
    #: boot's seed).
    data_dir: str | None = None
    #: WAL sync policy: ``always``, ``interval[:seconds]``, or ``none``.
    sync: str = "always"
    #: Fold the log into a fresh snapshot every N mutations (0: never).
    compact_every: int = 1000


class _ReadWriteLock:
    """Writer-preferring readers-writer lock over the shared database.

    Queries and watch refreshes share the read side; mutations take the
    write side. Waiting writers block new readers so a mutation cannot
    starve under a steady query stream.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    @contextlib.contextmanager
    def read(self) -> Iterator[None]:
        with self._cond:
            self._cond.wait_for(
                lambda: not self._writer and not self._writers_waiting
            )
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if not self._readers:
                    self._cond.notify_all()

    @contextlib.contextmanager
    def write(self) -> Iterator[None]:
        with self._cond:
            self._writers_waiting += 1
            try:
                self._cond.wait_for(
                    lambda: not self._writer and not self._readers
                )
            finally:
                self._writers_waiting -= 1
            self._writer = True
        try:
            yield
        finally:
            with self._cond:
                self._writer = False
                self._cond.notify_all()


@dataclass
class _Counters:
    """Lifetime request counters (mutated only on the event loop)."""

    queries_served: int = 0
    mutations_applied: int = 0
    mutations_rejected: int = 0
    requests_handled: int = 0
    protocol_errors: int = 0
    internal_errors: int = 0

    def snapshot(self) -> dict[str, int]:
        return dict(self.__dict__)


@dataclass
class _HandleBook:
    """Client-facing handle <-> database id maps for the mutate path."""

    handle_to_id: dict[str, int] = field(default_factory=dict)
    id_to_handle: dict[int, str] = field(default_factory=dict)


class QueryServer:
    """The asyncio HTTP front end over one shared database + cache."""

    def __init__(
        self, database: "GraphDatabase", config: ServerConfig | None = None
    ) -> None:
        self.config = config = config or ServerConfig()
        if config.shards is not None and not isinstance(
            database, ShardedGraphDatabase
        ):
            database = ShardedGraphDatabase.from_database(
                database, shards=config.shards
            )
        elif config.backend == "sharded" and not isinstance(
            database, ShardedGraphDatabase
        ):
            database = ShardedGraphDatabase.from_database(database, shards=2)
        self.wal: DurableLog | None = None
        self._handles = _HandleBook()
        if config.data_dir is not None:
            database = self._open_durable(database, config)
        self.database = database
        if not self._handles.handle_to_id:
            for graph_id in database.ids():
                name = database.get(graph_id).name or f"#{graph_id}"
                self._handles.handle_to_id.setdefault(name, graph_id)
                self._handles.id_to_handle[graph_id] = name
        if self.wal is not None and not self.wal.has_state:
            self.wal.initialize(database, self._handles.handle_to_id)
        if self.wal is not None:
            database.attach_wal(self.wal)
        from repro.db.cache import PairCache

        self.cache = PairCache()
        self.admission = AdmissionController(
            config.max_concurrency, config.max_queue
        )
        self.hub = WatchHub(config.max_watches)
        self.counters = _Counters()

        self._db_lock = _ReadWriteLock()
        self._sessions: dict[str, Session] = {}
        self._sessions_guard = threading.Lock()
        #: Per-backend serialization for backends with mutable run state;
        #: ``memory`` is stateless and stays lock-free (truly concurrent).
        self._backend_locks: dict[str, threading.Lock] = {}
        self._query_executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=config.max_concurrency,
            thread_name_prefix="repro-query",
        )
        self._service_executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-service"
        )
        self._server: asyncio.base_events.Server | None = None
        self._conn_tasks: set[asyncio.Task[None]] = set()
        self.port: int | None = None

    def _open_durable(
        self, database: "GraphDatabase", config: ServerConfig
    ) -> "GraphDatabase":
        """Open (or recover) the WAL at ``config.data_dir``.

        An already-initialized log wins over the passed corpus: the
        recovered store — snapshot plus every surviving logged mutation —
        is what clients last acknowledged, and its handle book replaces
        the name-derived seeding.
        """
        assert config.data_dir is not None
        existing = (Path(config.data_dir) / MANIFEST_NAME).exists()
        self.wal = DurableLog.open(
            config.data_dir,
            sync=config.sync,
            segments=None
            if existing
            else getattr(database, "shard_count", 1),
            compact_every=config.compact_every,
        )
        if existing:
            state = self.wal.recover()
            self._handles = _HandleBook(
                state.handle_to_id, state.id_to_handle
            )
            return state.database
        return database

    # -- shared-state helpers (called from executor threads) -------------
    def _session(self, backend_name: str) -> Session:
        """The lazily created shared session for ``backend_name``."""
        with self._sessions_guard:
            session = self._sessions.get(backend_name)
            if session is None:
                session = Session(
                    self.database, backend=backend_name, cache=self.cache
                )
                self._sessions[backend_name] = session
                if backend_name != "memory":
                    self._backend_locks[backend_name] = threading.Lock()
            return session

    @contextlib.contextmanager
    def _reading(self, backend_name: str) -> Iterator[Session]:
        """The shared session for ``backend_name``, held under the
        database read lock and, for a stateful backend, its lock."""
        with self._db_lock.read():
            session = self._session(backend_name)
            with self._backend_locks.get(backend_name, contextlib.nullcontext()):
                yield session

    def _run_query(
        self, spec: GraphQuery, backend_name: str, deadline_s: float | None
    ) -> dict[str, Any]:
        """Evaluate one query on an executor thread; returns the payload."""
        deadline = Deadline.after(deadline_s) if deadline_s else None
        with deadline_scope(deadline), self._reading(backend_name) as session:
            return session.execute(spec).to_dict()

    def _apply_mutation(self, op: MutationOp) -> dict[str, Any]:
        """Apply one mutation under the write lock (service executor)."""
        with self._db_lock.write():
            return apply_mutation(
                self.database,
                op,
                self._handles.handle_to_id,
                self._handles.id_to_handle,
            )

    def _create_view(self, spec: GraphQuery) -> Any:
        """Build the LiveView for a watch on the default backend's
        session (service executor): its first read is a backend run."""
        with self._reading(self.config.backend) as session:
            return session.watch(spec)

    def _watch_refresh(
        self, handle: WatchHandle, event: str
    ) -> dict[str, Any] | None:
        """Refresh one watcher's view; ``None`` when the answer is
        unchanged (coalesced mutations that didn't touch the answer)."""
        with self._reading(self.config.backend):
            ids = handle.view.ids  # a hit, a replay or a full run
            if event == "update" and ids == handle.last_ids:
                return None
            return view_event(handle, event, self.database.version, ids)

    # -- request plumbing (event loop) ------------------------------------
    def _check_auth(self, request: Request) -> None:
        token = self.config.token
        if token is None or request.path == "/v1/health":
            return
        supplied = request.headers.get("authorization", "")
        if supplied != f"Bearer {token}":
            raise ProtocolError(
                "unauthorized", "missing or invalid bearer token"
            )

    def _deadline_seconds(self, request: Request) -> float | None:
        raw = request.query.get("deadline_ms") or request.headers.get(
            "x-deadline-ms"
        )
        if raw is None:
            ms = self.config.deadline_ms
            if ms is None:
                return None
        else:
            try:
                ms = int(raw)
            except ValueError as exc:
                raise ProtocolError(
                    "bad-request", f"malformed deadline_ms {raw!r}"
                ) from exc
        if ms <= 0:
            raise ProtocolError(
                "bad-request", "deadline_ms must be a positive integer"
            )
        return ms / 1000.0

    @staticmethod
    def _parse_spec(payload: Any) -> GraphQuery:
        if not isinstance(payload, dict):
            raise ProtocolError(
                "bad-request", "query body must be a JSON object"
            )
        try:
            return GraphQuery.from_dict(payload)
        except (SerializationError, QueryError) as exc:
            raise ProtocolError("query-error", str(exc)) from exc

    def _apply_anytime(
        self, request: Request, spec: GraphQuery, deadline_s: float | None
    ) -> GraphQuery:
        """``?anytime=1`` (or ``X-Anytime: 1``): serve budgeted intervals.

        A spec already carrying ``budget_ms``/``budget_nodes`` is anytime
        on its own; the flag derives ``budget_ms`` from the request
        deadline for specs without knobs, so the engine returns a
        complete interval answer (``approximate: true``) instead of a
        504 whenever at least one evaluation pass finished before the
        deadline.
        """
        raw = request.query.get("anytime") or request.headers.get("x-anytime")
        if raw is None or str(raw).lower() in ("", "0", "false", "no"):
            return spec
        if spec.anytime:
            return spec
        if deadline_s is None:
            raise ProtocolError(
                "bad-request",
                "anytime=1 needs a request deadline or an explicit "
                "budget_ms/budget_nodes in the query body",
            )
        budget_ms = max(1, int(deadline_s * 1000))
        return dataclasses.replace(spec, budget_ms=budget_ms).validate()

    # -- handlers ---------------------------------------------------------
    async def _handle_health(self, request: Request) -> dict[str, Any]:
        payload = {
            "ok": True,
            "graphs": len(self.database),
            "backend": self.config.backend,
            "shards": getattr(self.database, "shard_count", 1),
            "version": self.database.version,
        }
        if self.wal is not None:
            payload["durability"] = {
                "sync": self.config.sync,
                "last_lsn": self.wal.last_lsn,
            }
        return payload

    async def _handle_stats(self, request: Request) -> dict[str, Any]:
        with self._sessions_guard:
            sessions = dict(self._sessions)
        payload = {
            "admission": self.admission.snapshot(),
            "watches": self.hub.snapshot(),
            "counters": self.counters.snapshot(),
            "cache": {"hits": self.cache.hits, "misses": self.cache.misses},
            "answers": {
                name: session.answer_store.snapshot()
                for name, session in sorted(sessions.items())
            },
            "database": {
                "graphs": len(self.database),
                "version": self.database.version,
            },
            "backends": sorted(sessions),
        }
        if self.wal is not None:
            payload["durability"] = {
                "data_dir": str(self.wal.data_dir),
                "sync": self.config.sync,
                "segments": self.wal.segments,
                "last_lsn": self.wal.last_lsn,
                "base_lsn": self.wal.base_lsn,
                "ops_since_compact": self.wal.ops_since_compact,
            }
        return payload

    async def _handle_query(self, request: Request) -> dict[str, Any]:
        spec = self._parse_spec(request.json())
        backend_name = request.query.get("backend") or self.config.backend
        deadline_s = self._deadline_seconds(request)
        spec = self._apply_anytime(request, spec, deadline_s)
        loop = asyncio.get_running_loop()
        try:
            async with self.admission.slot():
                payload = await loop.run_in_executor(
                    self._query_executor,
                    self._run_query,
                    spec,
                    backend_name,
                    deadline_s,
                )
        except AdmissionRejected as exc:
            raise ProtocolError(
                "queue-full",
                str(exc),
                active=exc.active,
                waiting=exc.waiting,
                max_queue=exc.max_queue,
            ) from exc
        except DeadlineExceeded as exc:
            self.admission.deadline_expired += 1
            raise ProtocolError(
                "deadline-exceeded",
                str(exc),
                deadline_ms=None if deadline_s is None else int(deadline_s * 1000),
            ) from exc
        except QueryError as exc:
            raise ProtocolError("query-error", str(exc)) from exc
        self.counters.queries_served += 1
        return payload

    async def _handle_mutate(self, request: Request) -> dict[str, Any]:
        payload = request.json()
        if not isinstance(payload, dict):
            raise ProtocolError(
                "bad-request", "mutation body must be a JSON object"
            )
        try:
            op = mutation_from_dict(payload)
        except SerializationError as exc:
            raise ProtocolError("bad-request", str(exc)) from exc
        loop = asyncio.get_running_loop()
        try:
            ack = await loop.run_in_executor(
                self._service_executor, self._apply_mutation, op
            )
        except StaleHandleError as exc:
            self.counters.mutations_rejected += 1
            raise ProtocolError(
                "stale-handle", str(exc), op=exc.op, handle=str(exc.handle)
            ) from exc
        except QueryError as exc:
            self.counters.mutations_rejected += 1
            raise ProtocolError("conflict", str(exc)) from exc
        self.counters.mutations_applied += 1
        self.hub.notify()
        return ack

    async def _handle_watch(
        self,
        request: Request,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Stream NDJSON view events until either side hangs up."""
        spec = self._parse_spec(request.json())
        loop = asyncio.get_running_loop()
        try:
            view = await loop.run_in_executor(
                self._service_executor, self._create_view, spec
            )
        except QueryError as exc:
            raise ProtocolError("query-error", str(exc)) from exc
        handle = self.hub.register(view)
        if handle is None:
            raise ProtocolError(
                "watch-limit",
                f"too many open watch streams "
                f"(limit {self.hub.max_watches}); retry later",
                max_watches=self.hub.max_watches,
            )
        # Any client bytes after the request — or EOF — end the stream.
        eof_task = asyncio.ensure_future(reader.read(1))
        wakeup_task: asyncio.Task[Any] | None = None
        try:
            writer.write(encode_stream_header())
            first = await loop.run_in_executor(
                self._service_executor, self._watch_refresh, handle, "snapshot"
            )
            writer.write(encode_event(first))
            await writer.drain()
            while True:
                handle.wakeup.clear()
                wakeup_task = asyncio.ensure_future(handle.wakeup.wait())
                done, _ = await asyncio.wait(
                    {wakeup_task, eof_task},
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if eof_task in done:
                    break
                event = await loop.run_in_executor(
                    self._service_executor,
                    self._watch_refresh,
                    handle,
                    "update",
                )
                if event is not None:
                    writer.write(encode_event(event))
                    await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-stream; clean up below
        finally:
            self.hub.unregister(handle)
            for task in (eof_task, wakeup_task):
                if task is not None and not task.done():
                    task.cancel()
                    with contextlib.suppress(
                        asyncio.CancelledError, Exception
                    ):
                        await task

    # -- connection lifecycle ---------------------------------------------
    async def _dispatch(self, request: Request) -> tuple[int, Any]:
        self._check_auth(request)
        routes = {
            ("GET", "/v1/health"): self._handle_health,
            ("GET", "/v1/stats"): self._handle_stats,
            ("POST", "/v1/query"): self._handle_query,
            ("POST", "/v1/mutate"): self._handle_mutate,
        }
        handler = routes.get((request.method, request.path))
        if handler is None:
            known_paths = {path for _, path in routes} | {"/v1/watch"}
            if request.path in known_paths:
                raise ProtocolError(
                    "method-not-allowed",
                    f"{request.method} not supported on {request.path}",
                )
            raise ProtocolError("not-found", f"unknown path {request.path}")
        return 200, await handler(request)

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            await self._serve_connection(reader, writer)
        except asyncio.CancelledError:
            pass  # server shutdown cancelled the connection; just clean up
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            with contextlib.suppress(ConnectionError):
                await writer.wait_closed()

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            try:
                request = await read_request(reader)
            except ProtocolError as exc:
                self.counters.protocol_errors += 1
                writer.write(
                    encode_response(exc.status, exc.payload(), False)
                )
                await writer.drain()
                break
            except (ConnectionError, asyncio.IncompleteReadError):
                break
            if request is None:
                break
            self.counters.requests_handled += 1
            if request.path == "/v1/watch" and request.method == "POST":
                try:
                    self._check_auth(request)
                    await self._handle_watch(request, reader, writer)
                except ProtocolError as exc:
                    self.counters.protocol_errors += 1
                    writer.write(
                        encode_response(exc.status, exc.payload(), False)
                    )
                    with contextlib.suppress(ConnectionError):
                        await writer.drain()
                break  # watch streams are framed by connection close
            try:
                status, payload = await self._dispatch(request)
            except ProtocolError as exc:
                self.counters.protocol_errors += 1
                status, payload = exc.status, exc.payload()
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # pragma: no cover - safety net
                self.counters.internal_errors += 1
                from repro.server.protocol import error_payload

                status = 500
                payload = error_payload(
                    "internal", f"{type(exc).__name__}: {exc}"
                )
            writer.write(
                encode_response(status, payload, request.keep_alive)
            )
            try:
                await writer.drain()
            except ConnectionError:
                break
            if not request.keep_alive:
                break

    async def start(self) -> None:
        """Bind and start accepting connections (non-blocking)."""
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting, drop open connections, release backends."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._query_executor.shutdown(wait=True, cancel_futures=True)
        self._service_executor.shutdown(wait=True, cancel_futures=True)
        if self.wal is not None:
            # After the service executor drained: no in-flight mutation
            # can append once we fsync-and-close.
            self.database.detach_wal()
            self.wal.close()
        with self._sessions_guard:
            sessions, self._sessions = dict(self._sessions), {}
        for session in sessions.values():
            session.close()

    @property
    def url(self) -> str:
        if self.port is None:
            raise RuntimeError("server is not started")
        return f"http://{self.config.host}:{self.port}"


@contextlib.contextmanager
def serve_in_thread(
    database: "GraphDatabase", config: ServerConfig | None = None
) -> Iterator[QueryServer]:
    """Run a :class:`QueryServer` on a background event-loop thread.

    The tests, benches, and examples all use this bracket: the server is
    bound (ephemeral port unless configured) before the body runs, and
    fully stopped — connections dropped, executors drained, sessions
    closed — before the bracket exits.
    """
    server = QueryServer(database, config)
    loop = asyncio.new_event_loop()
    started = threading.Event()
    startup_error: list[BaseException] = []

    def _run() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(server.start())
        except BaseException as exc:  # bind failures surface to the caller
            startup_error.append(exc)
            started.set()
            return
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    thread = threading.Thread(
        target=_run, name="repro-server", daemon=True
    )
    thread.start()
    if not started.wait(timeout=30):
        raise RuntimeError("server failed to start within 30s")
    if startup_error:
        thread.join(timeout=5)
        raise RuntimeError("server failed to bind") from startup_error[0]
    try:
        yield server
    finally:
        future = asyncio.run_coroutine_threadsafe(server.stop(), loop)
        with contextlib.suppress(Exception):
            future.result(timeout=30)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=30)
