"""Unit tests for the server's building blocks: the shared mutation
codec, HTTP framing, deadlines, admission control, and the watch hub."""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.api.ops import (
    AddOp,
    MUTATION_OPS,
    MutationOp,
    RelabelOp,
    RemoveOp,
    applicable,
    apply_mutation,
    mutation_from_dict,
    relabeled_copy,
)
from repro.db import GraphDatabase
from repro.engine import current_deadline, deadline_scope
from repro.errors import DeadlineExceeded, QueryError, SerializationError
from repro.graph import Budget, path_graph
from repro.server import AdmissionController, AdmissionRejected, WatchHub
from repro.server.protocol import (
    ERROR_STATUS,
    MAX_BODY_BYTES,
    MAX_LINE_BYTES,
    ProtocolError,
    encode_event,
    encode_response,
    error_payload,
    read_request,
)
from repro.testkit.workload import AddGraph, RelabelGraph, RemoveGraph, step_from_dict


# ----------------------------------------------------------------------
# Shared mutation-op codec (satellite: one encoder/decoder for testkit
# workloads and the /v1/mutate endpoint)
# ----------------------------------------------------------------------
def _sample_ops():
    graph = path_graph(["C", "N", "O"], name="g-add")
    return [
        AddOp(handle="g-add", graph=graph),
        RemoveOp(handle="g-old"),
        RelabelOp(handle="g-old", new_handle="g-new", vertex_index=5, label="S"),
    ]


def test_mutation_ops_round_trip():
    for op in _sample_ops():
        payload = json.loads(json.dumps(op.to_dict()))
        rebuilt = mutation_from_dict(payload)
        assert type(rebuilt) is type(op)
        assert rebuilt.to_dict() == op.to_dict()


def test_mutation_registry_covers_all_ops():
    assert set(MUTATION_OPS) == {"add", "remove", "relabel"}
    for name, cls in MUTATION_OPS.items():
        assert issubclass(cls, MutationOp)
        assert cls.op == name


@pytest.mark.parametrize(
    "payload",
    [
        "not-a-dict",
        {},
        {"op": "explode"},
        {"op": "add", "handle": "x"},  # missing graph
        {"op": "relabel", "handle": "x", "new_handle": "y"},  # missing fields
    ],
)
def test_mutation_from_dict_rejects_malformed(payload):
    with pytest.raises(SerializationError):
        mutation_from_dict(payload)


def test_workload_steps_share_the_wire_encoding():
    """A testkit mutation step and the bare op encode byte-identically,
    and the workload decoder accepts a server-side op payload."""
    graph = path_graph(["C", "N"], name="h0")
    pairs = [
        (AddGraph("h0", graph), AddOp("h0", graph)),
        (RemoveGraph("h0"), RemoveOp("h0")),
        (RelabelGraph("h0", "h1", 1, "O"), RelabelOp("h0", "h1", 1, "O")),
    ]
    for step, op in pairs:
        assert step.to_dict() == op.to_dict()
        decoded = step_from_dict(op.to_dict())
        assert type(decoded) is type(step)
        assert decoded.to_dict() == op.to_dict()
        assert isinstance(decoded, type(op))  # steps ARE ops (one codec)


def test_relabeled_copy_wraps_vertex_index():
    graph = path_graph(["C", "N", "O"], name="g")
    relabeled = relabeled_copy(graph, vertex_index=7, label="S", name="g2")
    assert relabeled.name == "g2"
    # index 7 % 3 == 1 -> second vertex relabeled
    assert relabeled.vertex_label_multiset() == {"C": 1, "S": 1, "O": 1}
    assert graph.vertex_label_multiset() != relabeled.vertex_label_multiset()


def test_apply_mutation_maintains_handle_maps():
    database = GraphDatabase.from_graphs(
        [path_graph(["C", "N"], name="a"), path_graph(["O", "H"], name="b")]
    )
    handles = {"a": 0, "b": 1}
    ids = {0: "a", 1: "b"}
    ack = apply_mutation(
        database, AddOp("c", path_graph(["S", "P"], name="c")), handles, ids
    )
    assert ack["op"] == "add" and ack["database_size"] == 3
    assert handles["c"] == ack["graph_id"]

    ack = apply_mutation(
        database, RelabelOp("c", "c2", vertex_index=0, label="F"), handles, ids
    )
    assert ack["new_handle"] == "c2"
    assert "c" not in handles and "c2" in handles
    assert database.get(handles["c2"]).vertex_label_multiset()["F"] == 1

    ack = apply_mutation(database, RemoveOp("c2"), handles, ids)
    assert ack["database_size"] == 2 and "c2" not in handles
    # maps stayed mirror images throughout
    assert {v: k for k, v in handles.items()} == ids


def test_apply_mutation_rejects_inapplicable():
    database = GraphDatabase.from_graphs([path_graph(["C", "N"], name="a")])
    handles, ids = {"a": 0}, {0: "a"}
    assert not applicable(AddOp("a", path_graph(["C"] * 2)), handles)
    with pytest.raises(QueryError):
        apply_mutation(database, RemoveOp("ghost"), handles, ids)
    with pytest.raises(QueryError):
        apply_mutation(
            database, AddOp("a", path_graph(["C", "C"])), handles, ids
        )
    with pytest.raises(QueryError):
        apply_mutation(
            database, RelabelOp("a", "a", 0, "N"), handles, ids
        )  # target handle collides with the (still live) source


# ----------------------------------------------------------------------
# Deadlines (engine-level cooperative cancellation)
# ----------------------------------------------------------------------
def test_deadline_basic_lifecycle():
    deadline = Budget.of(seconds=60.0)
    assert not deadline.expired()
    deadline.check()  # does not raise

    expired = Budget(expires_at=time.monotonic() - 1.0)
    assert expired.expired()
    with pytest.raises(DeadlineExceeded):
        expired.check()


def test_deadline_scope_is_ambient_and_restored():
    assert current_deadline() is None
    deadline = Budget.of(seconds=60.0)
    with deadline_scope(deadline):
        assert current_deadline() is deadline
        with deadline_scope(None):
            assert current_deadline() is None
        assert current_deadline() is deadline
    assert current_deadline() is None


def test_engine_run_honors_expired_deadline():
    from repro import connect
    from repro.api.spec import GraphQuery

    database = GraphDatabase.from_graphs(
        [path_graph(["C", "N", "O"], name=f"g{i}") for i in range(4)]
    )
    spec = GraphQuery(graph=path_graph(["C", "N"], name="q"))
    expired = Budget(expires_at=time.monotonic() - 1.0)
    with connect(database) as session:
        with deadline_scope(expired):
            with pytest.raises(DeadlineExceeded):
                session.execute(spec)
        # scope exited: the same session works again
        assert session.execute(spec).ids


# ----------------------------------------------------------------------
# HTTP framing
# ----------------------------------------------------------------------
def _parse(raw: bytes):
    left, right = socket.socketpair()
    with left, right, right.makefile("rb") as stream:
        left.sendall(raw)
        left.shutdown(socket.SHUT_WR)
        return read_request(stream)


def test_read_request_parses_body_and_query_string():
    body = b'{"x": 1}'
    raw = (
        b"POST /v1/query?backend=memory&deadline_ms=50 HTTP/1.1\r\n"
        b"Host: h\r\nContent-Length: " + str(len(body)).encode() + b"\r\n"
        b"X-Deadline-Ms: 99\r\n\r\n" + body
    )
    request = _parse(raw)
    assert request.method == "POST"
    assert request.path == "/v1/query"
    assert request.query == {"backend": "memory", "deadline_ms": "50"}
    assert request.headers["x-deadline-ms"] == "99"
    assert request.json() == {"x": 1}
    assert request.keep_alive  # HTTP/1.1 default


def test_read_request_connection_close_and_eof():
    raw = b"GET /v1/health HTTP/1.1\r\nConnection: close\r\n\r\n"
    request = _parse(raw)
    assert not request.keep_alive
    assert _parse(b"") is None  # closed connection


def test_read_request_rejects_malformed_and_oversized():
    with pytest.raises(ProtocolError) as exc:
        _parse(b"NONSENSE\r\n\r\n")
    assert exc.value.status == 400
    huge = str(MAX_BODY_BYTES + 1).encode()
    with pytest.raises(ProtocolError) as exc:
        _parse(b"POST /v1/query HTTP/1.1\r\nContent-Length: " + huge + b"\r\n\r\n")
    assert exc.value.code == "payload-too-large"
    with pytest.raises(ProtocolError):
        _parse(b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n")


def test_read_request_bounds_line_length():
    """An over-long request or header line is a 400, read no further
    than the limit, not a silently dropped connection."""
    long = b"x" * (MAX_LINE_BYTES + 1)
    with pytest.raises(ProtocolError, match="request line too long"):
        _parse(b"GET /" + long + b" HTTP/1.1\r\n\r\n")
    with pytest.raises(ProtocolError, match="header line too long") as exc:
        _parse(b"GET / HTTP/1.1\r\nCookie: " + long + b"\r\n\r\n")
    assert exc.value.status == 400


def test_encode_response_and_event_shapes():
    raw = encode_response(429, error_payload("queue-full", "busy"), False)
    head, _, body = raw.partition(b"\r\n\r\n")
    assert b"HTTP/1.1 429 Too Many Requests" in head
    assert b"Connection: close" in head
    parsed = json.loads(body)
    assert parsed["error"]["code"] == "queue-full"
    assert int(
        dict(
            line.split(b": ", 1)
            for line in head.split(b"\r\n")[1:]
        )[b"Content-Length"]
    ) == len(body)

    event = encode_event({"event": "update", "ids": [1, 2]})
    assert event.endswith(b"\n") and b" " not in event


def test_error_codes_map_to_sensible_statuses():
    assert ERROR_STATUS["queue-full"] == 429
    assert ERROR_STATUS["deadline-exceeded"] == 504
    assert ProtocolError("no-such-code", "x").status == 500


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
def test_admission_rejects_beyond_queue():
    controller = AdmissionController(max_concurrency=1, max_queue=1)
    controller.acquire()  # slot taken
    waiter = threading.Thread(target=controller.acquire)  # queued
    waiter.start()
    deadline = time.monotonic() + 5
    while controller.waiting < 1 and time.monotonic() < deadline:
        time.sleep(0.001)  # let the waiter enter the queue
    assert controller.active == 1 and controller.waiting == 1
    with pytest.raises(AdmissionRejected) as exc:
        controller.acquire()
    assert exc.value.max_queue == 1
    assert controller.rejected == 1
    controller.release()  # frees the waiter
    waiter.join(timeout=5)
    assert not waiter.is_alive()  # admitted once the slot was released
    assert controller.active == 1 and controller.waiting == 0
    controller.release()
    snap = controller.snapshot()
    assert snap["admitted"] == 2 and snap["completed"] == 2
    assert snap["peak_active"] == 1 and snap["peak_waiting"] == 1


def test_admission_slot_releases_on_error():
    controller = AdmissionController(max_concurrency=1, max_queue=0)
    with pytest.raises(RuntimeError):
        with controller.slot():
            assert controller.active == 1
            raise RuntimeError("boom")
    assert controller.active == 0 and controller.completed == 1


def test_admission_counts_only_queries_that_waited():
    controller = AdmissionController(max_concurrency=2, max_queue=4)
    for _ in range(3):
        with controller.slot():
            pass
    snap = controller.snapshot()
    assert snap["admitted"] == 3 and snap["peak_active"] == 1
    assert snap["peak_waiting"] == 0  # a free slot is taken, not queued for


def test_admission_validates_configuration():
    with pytest.raises(ValueError):
        AdmissionController(0, 1)
    with pytest.raises(ValueError):
        AdmissionController(1, -1)


# ----------------------------------------------------------------------
# Watch hub
# ----------------------------------------------------------------------
def test_watch_hub_capacity_and_notify():
    hub = WatchHub(max_watches=2)
    first = hub.register(view=object())
    second = hub.register(view=object())
    assert first is not None and second is not None
    assert hub.register(view=object()) is None  # at capacity
    assert hub.refused == 1 and hub.active == 2

    hub.notify()
    assert first.wakeup.is_set() and second.wakeup.is_set()

    hub.unregister(first)
    hub.unregister(first)  # idempotent
    assert hub.active == 1 and hub.closed == 1
    snap = hub.snapshot()
    assert snap["opened"] == 2 and snap["refused"] == 1
    hub.unregister(second)
