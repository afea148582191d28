"""Server durability: acked LSNs, stale-handle 409s, restart recovery."""

from __future__ import annotations

import http.client
import json
import sys
import threading

import pytest

from repro.api.ops import AddOp, RelabelOp, RemoveOp
from repro.db import GraphDatabase
from repro.db.wal import recover
from repro.graph.labeled_graph import LabeledGraph
from repro.server import ServerConfig, serve_in_thread
from repro.shard.store import ShardedGraphDatabase


class _Client:
    def __init__(self, port: int, timeout: float = 60.0) -> None:
        self.conn = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=timeout
        )

    def request(self, method, path, payload=None):
        body = None if payload is None else json.dumps(payload)
        self.conn.request(method, path, body=body)
        response = self.conn.getresponse()
        return response.status, json.loads(response.read())

    def close(self) -> None:
        self.conn.close()


def make_graph(name: str, n: int = 3) -> LabeledGraph:
    graph = LabeledGraph(name=name)
    for i in range(n):
        graph.add_vertex(i, label="C" if i % 2 else "N")
    for i in range(n - 1):
        graph.add_edge(i, i + 1)
    return graph


def durable_config(tmp_path, **kwargs) -> ServerConfig:
    return ServerConfig(data_dir=str(tmp_path / "data"), **kwargs)


def test_acks_carry_committed_lsn(tmp_path):
    with serve_in_thread(
        GraphDatabase(name="d"), durable_config(tmp_path)
    ) as server:
        client = _Client(server.port)
        try:
            for expected_lsn in (1, 2):
                handle = f"g{expected_lsn}"
                status, payload = client.request(
                    "POST",
                    "/v1/mutate",
                    AddOp(handle, make_graph(handle)).to_dict(),
                )
                assert status == 200
                assert payload["lsn"] == expected_lsn
            status, payload = client.request(
                "POST", "/v1/mutate", RemoveOp("g1").to_dict()
            )
            assert status == 200 and payload["lsn"] == 3
        finally:
            client.close()


def test_nondurable_acks_have_no_lsn():
    with serve_in_thread(GraphDatabase(name="d"), ServerConfig()) as server:
        client = _Client(server.port)
        try:
            status, payload = client.request(
                "POST", "/v1/mutate", AddOp("g", make_graph("g")).to_dict()
            )
            assert status == 200
            assert "lsn" not in payload
        finally:
            client.close()


def test_stale_handle_conflict_is_structured(tmp_path):
    with serve_in_thread(
        GraphDatabase(name="d"), durable_config(tmp_path)
    ) as server:
        client = _Client(server.port)
        try:
            status, payload = client.request(
                "POST",
                "/v1/mutate",
                RelabelOp("ghost", "new", 0, "N").to_dict(),
            )
            assert status == 409
            error = payload["error"]
            assert error["code"] == "stale-handle"
            assert error["op"] == "relabel"
            assert error["handle"] == "ghost"
        finally:
            client.close()


def test_health_and_stats_expose_durability(tmp_path):
    config = durable_config(tmp_path, sync="interval:0.05")
    with serve_in_thread(GraphDatabase(name="d"), config) as server:
        client = _Client(server.port)
        try:
            client.request(
                "POST", "/v1/mutate", AddOp("g", make_graph("g")).to_dict()
            )
            _, health = client.request("GET", "/v1/health")
            assert health["durability"]["sync"].startswith("interval")
            assert health["durability"]["last_lsn"] == 1
            _, stats = client.request("GET", "/v1/stats")
            durability = stats["durability"]
            assert durability["last_lsn"] == 1
            assert durability["base_lsn"] == 0
            assert durability["segments"] == 1
        finally:
            client.close()


def test_nondurable_health_has_no_durability_block():
    with serve_in_thread(GraphDatabase(name="d"), ServerConfig()) as server:
        client = _Client(server.port)
        try:
            _, health = client.request("GET", "/v1/health")
            assert "durability" not in health
        finally:
            client.close()


def test_restart_recovers_and_continues_lsn_sequence(tmp_path):
    config = durable_config(tmp_path)
    with serve_in_thread(GraphDatabase(name="d"), config) as server:
        client = _Client(server.port)
        try:
            for i in range(3):
                client.request(
                    "POST",
                    "/v1/mutate",
                    AddOp(f"g{i}", make_graph(f"g{i}", 2 + i)).to_dict(),
                )
        finally:
            client.close()

    # Second boot: the corpus argument is superseded by the recovered log.
    with serve_in_thread(GraphDatabase(name="ignored"), config) as server:
        assert len(server.database) == 3
        client = _Client(server.port)
        try:
            status, payload = client.request(
                "POST", "/v1/mutate", RemoveOp("g1").to_dict()
            )
            assert status == 200 and payload["lsn"] == 4
            status, payload = client.request(
                "POST", "/v1/mutate", RemoveOp("g1").to_dict()
            )
            assert status == 409  # the removal durably happened once
        finally:
            client.close()

    state = recover(tmp_path / "data")
    assert state.last_lsn == 4
    assert sorted(state.handle_to_id) == ["g0", "g2"]


def test_restart_preserves_sharded_store_shape(tmp_path):
    config = durable_config(tmp_path)
    database = ShardedGraphDatabase(shards=3, name="d")
    with serve_in_thread(database, config) as server:
        client = _Client(server.port)
        try:
            for i in range(6):
                client.request(
                    "POST",
                    "/v1/mutate",
                    AddOp(f"g{i}", make_graph(f"g{i}")).to_dict(),
                )
        finally:
            client.close()
        placement = {gid: database.shard_of(gid) for gid in database.ids()}

    with serve_in_thread(
        ShardedGraphDatabase(shards=3, name="ignored"), config
    ) as server:
        recovered = server.database
        assert isinstance(recovered, ShardedGraphDatabase)
        assert {
            gid: recovered.shard_of(gid) for gid in recovered.ids()
        } == placement


def test_seeded_corpus_initializes_snapshot(tmp_path):
    seed = GraphDatabase.from_graphs(
        [make_graph("a", 2), make_graph("b", 4)]
    )
    config = durable_config(tmp_path)
    with serve_in_thread(seed, config) as server:
        client = _Client(server.port)
        try:
            _, stats = client.request("GET", "/v1/stats")
            assert stats["database"]["graphs"] == 2
        finally:
            client.close()

    # The pre-loaded corpus is in the snapshot, recoverable with no ops.
    state = recover(tmp_path / "data")
    assert len(state.database) == 2
    assert sorted(state.handle_to_id) == ["a", "b"]


def test_concurrent_writers_ack_increasing_lsns_and_recover(tmp_path):
    """Three connections mutate at once. The write lock alone orders
    the WAL appends, so the acked LSNs increase in apply order and the
    log recovers exactly the live store."""
    writers, per_writer = 3, 8
    acks: list[dict] = []
    errors: list[BaseException] = []
    barrier = threading.Barrier(writers)

    def writer(port: int, index: int) -> None:
        client = _Client(port)
        try:
            barrier.wait(timeout=30)
            for step in range(per_writer):
                handle = f"w{index}-{step}"
                status, ack = client.request(
                    "POST",
                    "/v1/mutate",
                    AddOp(handle, make_graph(handle, 2 + step % 3)).to_dict(),
                )
                assert status == 200, ack
                acks.append(ack)
        except BaseException as exc:  # surfaced after join
            errors.append(exc)
        finally:
            client.close()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the writers' bytecode
    try:
        with serve_in_thread(
            GraphDatabase(name="d"), durable_config(tmp_path, sync="always")
        ) as server:
            threads = [
                threading.Thread(target=writer, args=(server.port, index))
                for index in range(writers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            probe = _Client(server.port)
            _, stats = probe.request("GET", "/v1/stats")
            probe.close()
            live = server.database
            live_store = {
                graph_id: live.entry(graph_id).iso_hash
                for graph_id in live.ids()
            }
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    assert len(acks) == writers * per_writer
    assert stats["counters"]["mutations_applied"] == writers * per_writer
    in_apply_order = sorted(acks, key=lambda ack: ack["graph_id"])
    assert [ack["lsn"] for ack in in_apply_order] == list(
        range(1, writers * per_writer + 1)
    )

    state = recover(tmp_path / "data")
    assert state.last_lsn == writers * per_writer
    assert {
        graph_id: state.database.entry(graph_id).iso_hash
        for graph_id in state.database.ids()
    } == live_store
    assert state.handle_to_id == {ack["handle"]: ack["graph_id"] for ack in acks}
