"""The thread-per-connection front end: past ``max_connections`` a
connection gets a structured 429 and is closed, a watch whose client
hangs up frees its hub slot at once, an idle keep-alive connection is
closed after ``IDLE_TIMEOUT_SECONDS``, and the ``serve_in_thread``
bracket joins every thread it started, an open watch stream's too."""

from __future__ import annotations

import json
import socket
import threading
import time

from repro.api.ops import AddOp
from repro.api.spec import GraphQuery
from repro.datasets import make_workload
from repro.db import GraphDatabase
from repro.server import ServerConfig, app, serve_in_thread
from tests.test_server import _Client, _open_watch


def _refused_response(port: int) -> tuple[bytes, dict]:
    """Connect without sending a request; read until the server closes."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        with sock.makefile("rb") as stream:
            raw = stream.read()  # returns only at the server's close
    head, _, body = raw.partition(b"\r\n\r\n")
    return head, json.loads(body)


def test_connection_bound_hangup_and_thread_cleanup():
    workload = make_workload(n_graphs=6, query_size=4, seed=5)
    spec = GraphQuery(graph=workload.queries[0], kind="skyline")
    config = ServerConfig(max_concurrency=1, max_queue=0, max_watches=1)
    threads_before = threading.active_count()
    with serve_in_thread(
        GraphDatabase.from_graphs(workload.database), config
    ) as server:
        assert server.max_connections == 2
        sock, stream, status_line = _open_watch(server.port, spec)
        assert b"200" in status_line
        assert json.loads(stream.readline())["event"] == "snapshot"
        client = _Client(server.port, timeout=10)
        assert client.request("GET", "/v1/health")[0] == 200
        # Both threads answered, so both turned Nagle off first.
        assert all(
            conn.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            for conn in list(server._conns)
        )

        head, payload = _refused_response(server.port)
        assert head.startswith(b"HTTP/1.1 429 ")
        assert b"Connection: close" in head
        assert payload["error"]["code"] == "connection-limit"
        assert payload["error"]["max_connections"] == 2

        _, stats = client.request("GET", "/v1/stats")
        assert stats["connections"] == {"open": 2, "peak": 2, "refused": 1}

        # The first watch's client hangs up: its thread sees the EOF at
        # once and frees both its hub slot and its connection slot.
        stream.close()
        sock.close()
        hung_up = time.monotonic()
        while True:
            sock, stream, status_line = _open_watch(server.port, spec, 5)
            if b"200" in status_line:
                break
            stream.close()
            sock.close()
            assert time.monotonic() - hung_up < 1.0, status_line
            time.sleep(0.01)
        assert time.monotonic() - hung_up < 1.0
        assert json.loads(stream.readline())["event"] == "snapshot"
        # Leave the second watch and the client open across the exit.
        exit_started = time.monotonic()
    assert time.monotonic() - exit_started < 5.0
    assert threading.active_count() == threads_before
    assert stream.read() == b""  # the stop ended the stream
    stream.close()
    sock.close()
    client.close()


def test_idle_keep_alive_client_is_closed_after_the_timeout(monkeypatch):
    monkeypatch.setattr(app, "IDLE_TIMEOUT_SECONDS", 0.3)
    workload = make_workload(n_graphs=6, query_size=4, seed=5)
    spec = GraphQuery(graph=workload.queries[0], kind="skyline")
    config = ServerConfig(max_concurrency=1, max_queue=0, max_watches=1)
    with serve_in_thread(
        GraphDatabase.from_graphs(workload.database), config
    ) as server:
        sock, stream, _ = _open_watch(server.port, spec)
        assert json.loads(stream.readline())["event"] == "snapshot"
        idle = _Client(server.port, timeout=10)
        assert idle.request("GET", "/v1/health")[0] == 200
        idled = time.monotonic()
        head, _ = _refused_response(server.port)
        assert head.startswith(b"HTTP/1.1 429 ")  # both threads are taken

        # The idle client sends nothing more; once the timeout passes,
        # its thread closes the connection and a third client gets in.
        while len(server._conns) > 1:
            assert time.monotonic() - idled < 3.0
            time.sleep(0.02)
        assert time.monotonic() - idled >= 0.25
        third = _Client(server.port, timeout=10)
        _, stats = third.request("GET", "/v1/stats")
        assert stats["connections"]["open"] == 2  # the watch and this one
        assert stats["connections"]["refused"] == 1

        # The watch idled as long, but streams are exempt: it still
        # gets the update of a mutation.
        status, _ = third.request(
            "POST", "/v1/mutate",
            AddOp(handle="fresh", graph=workload.queries[0]).to_dict(),
        )
        assert status == 200
        assert json.loads(stream.readline())["event"] == "update"
        third.close()
        idle.close()
        stream.close()
        sock.close()
