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
One thread per connection: :meth:`QueryServer.serve_forever` hands each
accepted socket to its own thread, which reads requests with the
blocking :func:`~repro.server.protocol.read_request`, runs them inline
(queries through the :class:`AdmissionController`) and writes the
response back. Evaluation is GIL-bound Python: handing it to another
thread would buy no parallelism, only thread switches. At most
:attr:`QueryServer.max_connections` threads run; a connection past that
gets a structured ``429 connection-limit``, and one that idles past
:data:`IDLE_TIMEOUT_SECONDS` before its next request is closed. A watch
stream keeps its thread, asleep in ``select`` on its socket and its hub
wake-up, so it refreshes on every mutation and ends as soon as the
client hangs up or the server stops.

Shared state is guarded by a readers-writer lock: queries and watch
refreshes read, mutations write. Backends that carry mutable run state
(index rebuilds, pooled workers, shard routers) additionally serialize
behind a per-backend lock; the stateless ``memory`` backend runs fully
concurrently. Deadlines enter through
:func:`~repro.engine.deadline.deadline_scope` on the connection's
thread, so the run budget every search is bounded by carries the right
expiry.

Connection threads share one intern map of parsed specs under its lock:
a ``/v1/query`` or ``/v1/watch`` body seen before is answered with the
:class:`~repro.api.spec.GraphQuery` its first successful parse produced,
so the query graph's canonical hash and features, memoised by graph
identity in the pair cache, are computed once per distinct body. It
holds at most :data:`SPEC_INTERN_LIMIT` specs, least recently used
first out, and never a body over :data:`SPEC_INTERN_MAX_BYTES`
(``/v1/stats`` → ``specs``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import select
import socket
import threading
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, BinaryIO

from repro.api.ops import MutationOp, apply_mutation, mutation_from_dict
from repro.api.session import Session
from repro.api.spec import GraphQuery
from repro.db.cache import PairCache, _LruStore
from repro.db.wal import MANIFEST_NAME, DurableLog
from repro.engine.deadline import deadline_scope
from repro.errors import (
    DeadlineExceeded,
    QueryError,
    SerializationError,
    StaleHandleError,
)
from repro.graph.budget import Budget
from repro.server.admission import AdmissionController, AdmissionRejected
from repro.server.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    Request,
    encode_event,
    encode_response,
    encode_stream_header,
    error_payload,
    read_request,
)
from repro.server.streaming import WatchHandle, WatchHub, view_event
from repro.shard.store import ShardedGraphDatabase

if TYPE_CHECKING:
    from repro.db.database import GraphDatabase

#: Seconds a connection may wait for (or inside) a request, or take to
#: accept a response, before it is closed: an idle keep-alive client
#: cannot hold one of the bounded connection threads for long. Watch
#: streams are exempt.
IDLE_TIMEOUT_SECONDS = 30.0

#: Parsed specs the server keeps for repeat bodies (see :class:`_SpecIntern`).
SPEC_INTERN_LIMIT = 256
#: A body longer than this is parsed on every request and never kept.
SPEC_INTERN_MAX_BYTES = 64 * 1024


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
    #: Queries evaluating simultaneously.
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


class _Counters:
    """Lifetime request counters, bumped from every connection thread."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts = dict.fromkeys(
            ("queries_served", "mutations_applied", "mutations_rejected",
             "requests_handled", "protocol_errors", "internal_errors"),
            0,
        )

    def bump(self, name: str) -> None:
        with self._lock:
            self._counts[name] += 1

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counts)


class _SpecIntern:
    """Validated specs of recent query bodies, keyed by the body's bytes.

    Only a successful parse is kept, with the query graph's
    ``mutation_count`` at that time: a kept spec whose graph changed
    since is parsed again, never served. Every parse counts as a miss.
    """

    def __init__(self) -> None:
        self._specs = _LruStore(SPEC_INTERN_LIMIT)
        self._lock = threading.Lock()  # guards the counters
        self.hits = 0
        self.misses = 0

    def spec(self, body: bytes, parse) -> GraphQuery:
        """The spec of ``body``: a kept one, or ``parse()``'s."""
        keep = len(body) <= SPEC_INTERN_MAX_BYTES
        entry = self._specs.get(body) if keep else None
        if entry is not None and entry[0].graph.mutation_count == entry[1]:
            with self._lock:
                self.hits += 1
            return entry[0]
        with self._lock:
            self.misses += 1
        spec = parse()
        if keep:
            self._specs.put(body, (spec, spec.graph.mutation_count))
        return spec

    def snapshot(self) -> dict[str, int]:
        """``entries``, kept body ``bytes``, ``hits`` and ``misses``."""
        bodies = self._specs.keys()
        with self._lock:
            return {
                "entries": len(bodies),
                "bytes": sum(map(len, bodies)),
                "hits": self.hits,
                "misses": self.misses,
            }


@dataclass
class _HandleBook:
    """Client-facing handle <-> database id maps for the mutate path."""

    handle_to_id: dict[str, int] = field(default_factory=dict)
    id_to_handle: dict[int, str] = field(default_factory=dict)


class QueryServer:
    """The thread-per-connection HTTP front end over one shared
    database + cache."""

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
        self.cache = PairCache()
        self.specs = _SpecIntern()
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
        #: Connection threads at once; a connection past it gets a 429.
        self.max_connections = (
            config.max_concurrency + config.max_queue + config.max_watches
        )
        self._conns: dict[socket.socket, threading.Thread] = {}
        self._conn_lock = threading.Lock()
        self._conn_peak = self._conn_refused = 0
        self._stopped = False
        self._listener: socket.socket | None = None
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

    # -- shared-state helpers (called from connection threads) -----------
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
        """Evaluate one query on the caller's thread; returns the payload."""
        deadline = Budget.of(seconds=deadline_s) if deadline_s else None
        with deadline_scope(deadline), self._reading(backend_name) as session:
            return session.execute(spec).to_dict()

    def _apply_mutation(self, op: MutationOp) -> dict[str, Any]:
        """Apply one mutation under the write lock, which also orders
        the WAL appends: LSNs increase in apply order."""
        with self._db_lock.write():
            return apply_mutation(
                self.database,
                op,
                self._handles.handle_to_id,
                self._handles.id_to_handle,
            )

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

    # -- request plumbing -------------------------------------------------
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

    def _parse_spec(self, request: Request) -> GraphQuery:
        """The request body's validated spec, through the intern map."""

        def parse() -> GraphQuery:
            payload = request.json()
            if not isinstance(payload, dict):
                raise ProtocolError(
                    "bad-request", "query body must be a JSON object"
                )
            try:
                return GraphQuery.from_dict(payload)
            except (SerializationError, QueryError) as exc:
                raise ProtocolError("query-error", str(exc)) from exc

        return self.specs.spec(request.body, parse)

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
    def _handle_health(self, request: Request) -> dict[str, Any]:
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

    def _handle_stats(self, request: Request) -> dict[str, Any]:
        with self._sessions_guard:
            sessions = dict(self._sessions)
        with self._conn_lock:
            connections = {
                "open": len(self._conns),
                "peak": self._conn_peak,
                "refused": self._conn_refused,
            }
        payload = {
            "admission": self.admission.snapshot(),
            "watches": self.hub.snapshot(),
            "connections": connections,
            "counters": self.counters.snapshot(),
            "cache": {"hits": self.cache.hits, "misses": self.cache.misses},
            "specs": self.specs.snapshot(),
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

    def _handle_query(self, request: Request) -> dict[str, Any]:
        spec = self._parse_spec(request)
        backend_name = request.query.get("backend") or self.config.backend
        deadline_s = self._deadline_seconds(request)
        spec = self._apply_anytime(request, spec, deadline_s)
        try:
            with self.admission.slot():
                payload = self._run_query(spec, backend_name, deadline_s)
        except AdmissionRejected as exc:
            raise ProtocolError(
                "queue-full",
                str(exc),
                active=exc.active,
                waiting=exc.waiting,
                max_queue=exc.max_queue,
            ) from exc
        except DeadlineExceeded as exc:
            self.admission.note_deadline_expired()
            raise ProtocolError(
                "deadline-exceeded",
                str(exc),
                deadline_ms=None if deadline_s is None else int(deadline_s * 1000),
            ) from exc
        except QueryError as exc:
            raise ProtocolError("query-error", str(exc)) from exc
        self.counters.bump("queries_served")
        return payload

    def _handle_mutate(self, request: Request) -> dict[str, Any]:
        payload = request.json()
        if not isinstance(payload, dict):
            raise ProtocolError(
                "bad-request", "mutation body must be a JSON object"
            )
        try:
            op = mutation_from_dict(payload)
        except SerializationError as exc:
            raise ProtocolError("bad-request", str(exc)) from exc
        try:
            ack = self._apply_mutation(op)
        except StaleHandleError as exc:
            self.counters.bump("mutations_rejected")
            raise ProtocolError(
                "stale-handle", str(exc), op=exc.op, handle=str(exc.handle)
            ) from exc
        except QueryError as exc:
            self.counters.bump("mutations_rejected")
            raise ProtocolError("conflict", str(exc)) from exc
        self.counters.bump("mutations_applied")
        self.hub.notify()
        return ack

    def _handle_watch(self, request: Request, conn: socket.socket) -> None:
        """Stream NDJSON view events until either side hangs up."""
        self._check_auth(request)
        spec = self._parse_spec(request)
        try:  # the view's first read is a backend run
            with self._reading(self.config.backend) as session:
                view = session.watch(spec)
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
        try:
            first = self._watch_refresh(handle, "snapshot")
            conn.sendall(encode_stream_header() + encode_event(first))
            while True:
                # Client bytes, a hang-up or stop() make conn readable.
                ready, _, _ = select.select([conn, handle.wakeup], [], [])
                if conn in ready:
                    return
                handle.wakeup.clear()
                event = self._watch_refresh(handle, "update")
                if event is not None:
                    conn.sendall(encode_event(event))
        finally:
            self.hub.unregister(handle)

    # -- connection lifecycle ---------------------------------------------
    def _dispatch(self, request: Request) -> tuple[int, Any]:
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
        return 200, handler(request)

    def _serve_connection(self, conn: socket.socket) -> None:
        """One connection's thread: request, response, until close."""
        try:
            with conn, conn.makefile("rb") as stream:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                conn.settimeout(IDLE_TIMEOUT_SECONDS)
                while self._serve_request(conn, stream):
                    pass
        except OSError:
            pass  # the client went away or idled out, or stop() shut it
        finally:
            with self._conn_lock:
                del self._conns[conn]

    def _serve_request(self, conn: socket.socket, stream: BinaryIO) -> bool:
        """Answer one request; ``False`` once the connection is done."""
        try:
            request = read_request(stream)
        except ProtocolError as exc:
            self.counters.bump("protocol_errors")
            conn.sendall(encode_response(exc.status, exc.payload(), False))
            return False
        if request is None:
            return False
        self.counters.bump("requests_handled")
        if request.path == "/v1/watch" and request.method == "POST":
            conn.settimeout(None)  # a stream may stay quiet indefinitely
            try:
                self._handle_watch(request, conn)
            except ProtocolError as exc:
                self.counters.bump("protocol_errors")
                conn.sendall(
                    encode_response(exc.status, exc.payload(), False)
                )
            return False  # watch streams are framed by connection close
        try:
            status, payload = self._dispatch(request)
        except ProtocolError as exc:
            self.counters.bump("protocol_errors")
            status, payload = exc.status, exc.payload()
        except Exception as exc:  # pragma: no cover - safety net
            self.counters.bump("internal_errors")
            status, payload = 500, error_payload(
                "internal", f"{type(exc).__name__}: {exc}"
            )
        conn.sendall(encode_response(status, payload, request.keep_alive))
        return request.keep_alive

    def _admit(self, conn: socket.socket) -> None:
        """Give ``conn`` a thread, or a 429 past :attr:`max_connections`."""
        with self._conn_lock:
            if self._stopped:
                conn.close()
                return
            if len(self._conns) < self.max_connections:
                thread = threading.Thread(
                    target=self._serve_connection,
                    args=(conn,),
                    name="repro-conn",
                    daemon=True,
                )
                self._conns[conn] = thread
                self._conn_peak = max(self._conn_peak, len(self._conns))
                thread.start()  # before stop() can snapshot and join it
                return
            self._conn_refused += 1
        refusal = ProtocolError(
            "connection-limit",
            f"too many open connections (limit {self.max_connections}); "
            f"retry later",
            max_connections=self.max_connections,
        )
        with conn, contextlib.suppress(OSError):
            conn.sendall(encode_response(429, refusal.payload(), False))
            conn.shutdown(socket.SHUT_WR)
            # Drain a sent request: the close is then a FIN, not a reset.
            conn.setblocking(False)
            conn.recv(MAX_LINE_BYTES)

    def start(self) -> None:
        """Bind the listening socket (``port`` 0 picks an ephemeral one)."""
        family = socket.getaddrinfo(self.config.host, None)[0][0]
        self._listener = socket.create_server(
            (self.config.host, self.config.port), family=family
        )
        self.port = self._listener.getsockname()[1]

    def serve_forever(self) -> None:
        """Accept on the calling thread, after :meth:`start`, until
        :meth:`shutdown`."""
        with self._listener:
            while not self._stopped:
                try:
                    conn, _ = self._listener.accept()
                except OSError:
                    continue  # stop() shut the listener: the loop ends
                self._admit(conn)

    def shutdown(self) -> None:
        """Stop accepting (idempotent, safe in a signal handler):
        :meth:`serve_forever` returns."""
        self._stopped = True
        if self._listener is not None:
            with contextlib.suppress(OSError):
                self._listener.shutdown(socket.SHUT_RDWR)

    def stop(self) -> None:
        """Stop accepting, drop open connections, join their threads,
        release backends; safe to call twice."""
        with self._conn_lock:
            self.shutdown()
            conns = dict(self._conns)
        for conn in conns:
            with contextlib.suppress(OSError):
                conn.shutdown(socket.SHUT_RDWR)
        for thread in conns.values():
            thread.join()
        if self.wal is not None:
            # Connection threads are joined: no mutation can append now.
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
    """Run a :class:`QueryServer`'s accept loop on a background thread.

    The tests, benches, and examples all use this bracket: the server is
    bound (ephemeral port unless configured) before the body runs, and
    fully stopped — connections dropped, their threads joined, sessions
    and the WAL closed — before the bracket exits.
    """
    server = QueryServer(database, config)
    try:
        server.start()
    except OSError as exc:
        server.stop()
        raise RuntimeError("server failed to bind") from exc
    thread = threading.Thread(
        target=server.serve_forever, name="repro-server", daemon=True
    )
    thread.start()
    try:
        yield server
    finally:
        server.stop()
        thread.join()
