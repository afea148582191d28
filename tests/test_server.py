"""End-to-end tests of the query service: served answers match direct
``Session.execute`` field for field, saturation rejects instead of
hanging, expired deadlines free their slot, watch streams follow
mutations and drain cleanly on disconnect."""

from __future__ import annotations

import json
import http.client
import socket
import threading
import time

import pytest

from repro import connect
from repro.api.ops import AddOp, RemoveOp
from repro.api.spec import GraphQuery
from repro.datasets import make_workload
from repro.db import GraphDatabase
from repro.measures.base import _REGISTRY, FunctionMeasure, register_measure
from repro.server import ServerConfig, serve_in_thread


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def corpus():
    workload = make_workload(n_graphs=10, query_size=5, seed=11)
    return workload


def _database(corpus) -> GraphDatabase:
    return GraphDatabase.from_graphs(corpus.database)


class _Client:
    """A minimal keep-alive JSON client over ``http.client``."""

    def __init__(self, port: int, timeout: float = 60.0) -> None:
        self.conn = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=timeout
        )

    def request(self, method, path, payload=None, headers=None):
        body = None if payload is None else json.dumps(payload)
        self.conn.request(method, path, body=body, headers=headers or {})
        response = self.conn.getresponse()
        return response.status, json.loads(response.read())

    def close(self) -> None:
        self.conn.close()


def _open_watch(port: int, spec: GraphQuery, timeout: float = 60.0):
    """POST /v1/watch on a raw socket; returns (socket, line reader)."""
    body = json.dumps(spec.to_dict()).encode()
    sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
    sock.sendall(
        b"POST /v1/watch HTTP/1.1\r\nHost: t\r\nContent-Length: "
        + str(len(body)).encode()
        + b"\r\n\r\n"
        + body
    )
    stream = sock.makefile("rb")
    status_line = stream.readline()
    while True:  # skip response headers
        line = stream.readline()
        if line in (b"\r\n", b"\n", b""):
            break
    return sock, stream, status_line


def _comparable(payload: dict) -> dict:
    """Strip the fields that legitimately differ between a served answer
    and a direct one (timings and shared-cache counters)."""
    payload = dict(payload)
    payload.pop("stats", None)
    payload.pop("cache", None)
    return payload


@pytest.fixture
def slow_measure():
    """A measure that sleeps per pair — makes deadlines bite mid-run."""
    name = "test-slow-pair"
    register_measure(
        name,
        lambda: FunctionMeasure(
            lambda g1, g2: time.sleep(0.025) or 0.5, name
        ),
    )
    yield name
    _REGISTRY.pop(name, None)


@pytest.fixture
def gated_measure():
    """A measure that blocks on an event — holds a slot deterministically."""
    gate = threading.Event()
    entered = threading.Event()

    def hold(g1, g2):
        entered.set()
        assert gate.wait(timeout=60), "gate never released"
        return 0.5

    name = "test-gated-pair"
    register_measure(name, lambda: FunctionMeasure(hold, name))
    yield name, gate, entered
    gate.set()
    _REGISTRY.pop(name, None)


# ----------------------------------------------------------------------
# Parity: served == direct, across backends and query kinds
# ----------------------------------------------------------------------
BACKENDS = ["memory", "indexed", "sharded"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_served_results_match_direct_session(corpus, backend):
    database = _database(corpus)
    config = ServerConfig(shards=2 if backend == "sharded" else None)
    specs = [
        GraphQuery(graph=corpus.queries[0], kind="skyline"),
        GraphQuery(graph=corpus.queries[0], kind="skyband", k=2),
        GraphQuery(graph=corpus.queries[0], kind="topk", k=3, measure="edit"),
        GraphQuery(
            graph=corpus.queries[0], kind="threshold",
            measure="mcs", threshold=0.8,
        ),
    ]
    with serve_in_thread(database, config) as server:
        # direct answers come from the server's own (possibly sharded)
        # database so ids line up, through an independent session.
        with connect(server.database, backend=backend) as session:
            direct = [session.execute(spec).to_dict() for spec in specs]
        client = _Client(server.port)
        try:
            for spec, expected in zip(specs, direct):
                status, served = client.request(
                    "POST", f"/v1/query?backend={backend}", spec.to_dict()
                )
                assert status == 200, served
                assert _comparable(served) == _comparable(expected)
                assert served["backend"] == expected["backend"]
        finally:
            client.close()


def test_concurrent_clients_agree_with_direct_answers(corpus):
    database = _database(corpus)
    specs = [
        GraphQuery(graph=query, kind="skyline") for query in corpus.queries
    ] + [
        GraphQuery(graph=graph, kind="topk", k=2, measure="edit")
        for graph in corpus.database[:4]
    ]
    with connect(_database(corpus)) as session:
        expected = [_comparable(session.execute(s).to_dict()) for s in specs]

    results: dict[int, dict] = {}
    errors: list[BaseException] = []
    with serve_in_thread(database, ServerConfig(max_concurrency=4)) as server:

        def worker(index: int, spec: GraphQuery) -> None:
            try:
                client = _Client(server.port)
                try:
                    status, payload = client.request(
                        "POST", "/v1/query", spec.to_dict()
                    )
                    assert status == 200, payload
                    results[index] = _comparable(payload)
                finally:
                    client.close()
            except BaseException as exc:  # surfaced after join
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i, spec))
            for i, spec in enumerate(specs)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        stats = server.admission.snapshot()

    assert not errors
    assert len(results) == len(specs)
    for index, expected_payload in enumerate(expected):
        assert results[index] == expected_payload
    assert stats["completed"] == len(specs)
    assert stats["rejected"] == 0


# ----------------------------------------------------------------------
# Saturation: structured rejection, never a hang
# ----------------------------------------------------------------------
def test_queue_saturation_rejects_with_429(corpus, gated_measure):
    name, gate, entered = gated_measure
    database = _database(corpus)
    blocked_spec = GraphQuery(graph=corpus.queries[0], measures=(name,))
    config = ServerConfig(max_concurrency=1, max_queue=1, deadline_ms=None)
    with serve_in_thread(database, config) as server:
        outcomes: dict[str, tuple[int, dict]] = {}

        def run(tag: str) -> None:
            client = _Client(server.port)
            try:
                outcomes[tag] = client.request(
                    "POST", "/v1/query", blocked_spec.to_dict()
                )
            finally:
                client.close()

        holder = threading.Thread(target=run, args=("holder",))
        holder.start()
        assert entered.wait(timeout=60)  # the slot is held inside a pair

        waiter = threading.Thread(target=run, args=("waiter",))
        waiter.start()
        probe = _Client(server.port)
        deadline = time.time() + 60
        while time.time() < deadline:  # wait until the queue slot fills
            _, stats = probe.request("GET", "/v1/stats")
            if stats["admission"]["waiting"] >= 1:
                break
            time.sleep(0.01)
        assert stats["admission"]["waiting"] == 1

        # the queue (1 active + 1 waiting) is full: instant 429
        start = time.time()
        status, payload = probe.request(
            "POST", "/v1/query", blocked_spec.to_dict()
        )
        elapsed = time.time() - start
        assert status == 429
        assert payload["error"]["code"] == "queue-full"
        assert payload["error"]["max_queue"] == 1
        assert elapsed < 10  # rejected without waiting on the gate

        gate.set()  # release the held pair; both queued queries finish
        holder.join(timeout=60)
        waiter.join(timeout=60)
        assert outcomes["holder"][0] == 200
        assert outcomes["waiter"][0] == 200
        _, stats = probe.request("GET", "/v1/stats")
        assert stats["admission"]["active"] == 0
        assert stats["admission"]["rejected"] == 1
        assert stats["admission"]["completed"] == 2
        probe.close()


# ----------------------------------------------------------------------
# Deadlines: expiry mid-evaluation returns 504 and frees the slot
# ----------------------------------------------------------------------
def test_deadline_expires_mid_evaluation(corpus, slow_measure):
    database = _database(corpus)  # 10 graphs x 25ms/pair >> 60ms budget
    slow_spec = GraphQuery(graph=corpus.queries[0], measures=(slow_measure,))
    with serve_in_thread(database, ServerConfig(max_concurrency=1)) as server:
        client = _Client(server.port)
        try:
            status, payload = client.request(
                "POST", "/v1/query?deadline_ms=60", slow_spec.to_dict()
            )
            assert status == 504
            assert payload["error"]["code"] == "deadline-exceeded"
            assert "deadline" in payload["error"]["message"]

            # the slot was freed: an ordinary query succeeds immediately
            ok_spec = GraphQuery(graph=corpus.queries[0], kind="skyline")
            status, payload = client.request(
                "POST", "/v1/query", ok_spec.to_dict()
            )
            assert status == 200 and payload["answer"]

            _, stats = client.request("GET", "/v1/stats")
            assert stats["admission"]["deadline_expired"] == 1
            assert stats["admission"]["active"] == 0
            assert stats["admission"]["completed"] == 2
        finally:
            client.close()


def test_deadline_header_and_validation(corpus):
    database = _database(corpus)
    spec = GraphQuery(graph=corpus.queries[0])
    with serve_in_thread(database, ServerConfig()) as server:
        client = _Client(server.port)
        try:
            status, payload = client.request(
                "POST", "/v1/query", spec.to_dict(),
                headers={"X-Deadline-Ms": "60000"},
            )
            assert status == 200
            for bad in ("0", "-5", "soon"):
                status, payload = client.request(
                    "POST", f"/v1/query?deadline_ms={bad}", spec.to_dict()
                )
                assert status == 400
                assert payload["error"]["code"] == "bad-request"
        finally:
            client.close()


# ----------------------------------------------------------------------
# Watch streams
# ----------------------------------------------------------------------
def test_watch_streams_updates_and_drains_on_disconnect(corpus):
    database = _database(corpus)
    spec = GraphQuery(graph=corpus.queries[0], kind="skyline")
    with serve_in_thread(database, ServerConfig()) as server:
        sock, stream, status_line = _open_watch(server.port, spec)
        assert b"200" in status_line
        snapshot = json.loads(stream.readline())
        assert snapshot["event"] == "snapshot" and snapshot["seq"] == 0

        with connect(_database(corpus)) as session:
            assert snapshot["ids"] == session.execute(spec).to_dict()["ids"]

        client = _Client(server.port)
        # an isomorphic copy of the query graph must enter the skyline
        status, ack = client.request(
            "POST", "/v1/mutate",
            AddOp(handle="fresh", graph=corpus.queries[0]).to_dict(),
        )
        assert status == 200
        update = json.loads(stream.readline())
        assert update["event"] == "update" and update["seq"] == 1
        assert ack["graph_id"] in update["ids"]
        assert update["database_version"] > snapshot["database_version"]

        # removing it again restores the original answer
        status, _ = client.request(
            "POST", "/v1/mutate", RemoveOp(handle="fresh").to_dict()
        )
        assert status == 200
        update2 = json.loads(stream.readline())
        assert update2["ids"] == snapshot["ids"] and update2["seq"] == 2

        # client disconnect: the hub unsubscribes, no tasks leak
        stream.close()
        sock.close()
        deadline = time.time() + 30
        while server.hub.active and time.time() < deadline:
            time.sleep(0.02)
        _, stats = client.request("GET", "/v1/stats")
        assert stats["watches"]["active"] == 0
        assert stats["watches"]["opened"] == 1
        assert stats["watches"]["closed"] == 1
        client.close()


def test_watch_limit_and_invalid_specs(corpus):
    database = _database(corpus)
    spec = GraphQuery(graph=corpus.queries[0], kind="skyline")
    with serve_in_thread(database, ServerConfig(max_watches=1)) as server:
        sock, stream, status_line = _open_watch(server.port, spec)
        assert b"200" in status_line
        json.loads(stream.readline())  # snapshot

        sock2, stream2, status_line2 = _open_watch(server.port, spec)
        assert b"429" in status_line2
        refused = json.loads(stream2.read())
        assert refused["error"]["code"] == "watch-limit"
        stream2.close()
        sock2.close()

        # an invalid spec (top-k with k=0) -> structured query error
        invalid = GraphQuery(
            graph=corpus.queries[0], kind="topk", k=0, measure="edit"
        )
        sock3, stream3, status_line3 = _open_watch(server.port, invalid)
        assert b"400" in status_line3
        assert json.loads(stream3.read())["error"]["code"] == "query-error"
        stream3.close()
        sock3.close()

        stream.close()
        sock.close()


# ----------------------------------------------------------------------
# Mutation endpoint, auth, routing
# ----------------------------------------------------------------------
def test_mutate_conflicts_and_malformed_bodies(corpus):
    database = _database(corpus)
    with serve_in_thread(database, ServerConfig()) as server:
        client = _Client(server.port)
        try:
            status, payload = client.request(
                "POST", "/v1/mutate", RemoveOp(handle="ghost").to_dict()
            )
            assert status == 409
            assert payload["error"]["code"] == "stale-handle"
            assert payload["error"]["op"] == "remove"
            assert payload["error"]["handle"] == "ghost"

            status, payload = client.request(
                "POST", "/v1/mutate", {"op": "explode"}
            )
            assert status == 400

            _, stats = client.request("GET", "/v1/stats")
            assert stats["counters"]["mutations_rejected"] == 1
            assert stats["counters"]["mutations_applied"] == 0
        finally:
            client.close()


def test_bearer_token_protects_everything_but_health(corpus):
    database = _database(corpus)
    spec = GraphQuery(graph=corpus.queries[0])
    with serve_in_thread(database, ServerConfig(token="sesame")) as server:
        client = _Client(server.port)
        try:
            status, _ = client.request("GET", "/v1/health")
            assert status == 200  # liveness stays unauthenticated

            status, payload = client.request(
                "POST", "/v1/query", spec.to_dict()
            )
            assert status == 401
            assert payload["error"]["code"] == "unauthorized"

            status, _ = client.request(
                "POST", "/v1/query", spec.to_dict(),
                headers={"Authorization": "Bearer sesame"},
            )
            assert status == 200
        finally:
            client.close()


def test_routing_and_error_envelopes(corpus):
    database = _database(corpus)
    with serve_in_thread(database, ServerConfig()) as server:
        client = _Client(server.port)
        try:
            status, payload = client.request("GET", "/v1/nope")
            assert status == 404
            assert payload["error"]["code"] == "not-found"

            status, payload = client.request("GET", "/v1/query")
            assert status == 405

            status, payload = client.request(
                "POST", "/v1/query?backend=warp-drive",
                GraphQuery(graph=corpus.queries[0]).to_dict(),
            )
            assert status == 400
            assert "unknown backend" in payload["error"]["message"]

            status, payload = client.request(
                "POST", "/v1/query", {"not": "a spec"}
            )
            assert status == 400

            status, payload = client.request("GET", "/v1/health")
            assert status == 200 and payload["ok"]
            assert payload["graphs"] == len(database)
        finally:
            client.close()
