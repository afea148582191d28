"""The server's intern map of parsed specs: a repeated ``/v1/query`` or
``/v1/watch`` body is answered with the spec its first successful parse
produced, failed parses and oversized bodies are never kept, the map
stays within its bounds, and served answers stay equal to the
exhaustive oracle's while the database changes under reused specs."""

from __future__ import annotations

import http.client
import json

import pytest

from repro.api.ops import AddOp, RemoveOp
from repro.api.spec import GraphQuery
from repro.datasets import make_workload
from repro.db import GraphDatabase
from repro.server import ServerConfig, serve_in_thread
from repro.server.app import SPEC_INTERN_LIMIT, SPEC_INTERN_MAX_BYTES, _SpecIntern
from repro.testkit import Oracle


@pytest.fixture(scope="module")
def corpus():
    return make_workload(n_graphs=10, query_size=5, seed=11)


class _Client:
    """A keep-alive client that sends raw body bytes."""

    def __init__(self, port: int, headers: dict | None = None) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        self.headers = headers or {}

    def post(self, path: str, body: bytes) -> tuple[int, dict]:
        self.conn.request("POST", path, body=body, headers=self.headers)
        response = self.conn.getresponse()
        return response.status, json.loads(response.read())

    def stats(self) -> dict:
        self.conn.request("GET", "/v1/stats", headers=self.headers)
        return json.loads(self.conn.getresponse().read())

    def close(self) -> None:
        self.conn.close()


def _body(spec: GraphQuery) -> bytes:
    return json.dumps(spec.to_dict()).encode()


def _record_specs(server) -> list[GraphQuery]:
    """Every spec the server runs, in order."""
    seen: list[GraphQuery] = []
    run = server._run_query

    def recording(spec, backend_name, deadline_s):
        seen.append(spec)
        return run(spec, backend_name, deadline_s)

    server._run_query = recording
    return seen


def test_identical_bodies_share_one_spec(corpus):
    body = _body(GraphQuery(graph=corpus.queries[0], kind="topk", k=3))
    with serve_in_thread(GraphDatabase.from_graphs(corpus.database)) as server:
        seen = _record_specs(server)
        client = _Client(server.port)
        try:
            answers = [client.post("/v1/query", body) for _ in range(3)]
        finally:
            client.close()
    assert [status for status, _ in answers] == [200, 200, 200]
    assert answers[0][1]["ids"] == answers[2][1]["ids"]
    assert seen[0] is seen[1] is seen[2]


def test_stats_count_hits_misses_entries_and_bytes(corpus):
    query = corpus.queries[0]
    first = _body(GraphQuery(graph=query, kind="topk", k=2))
    second = _body(GraphQuery(graph=query, kind="threshold", threshold=2.0))
    config = ServerConfig(token="secret")
    database = GraphDatabase.from_graphs(corpus.database)
    with serve_in_thread(database, config) as server:
        stranger = _Client(server.port)
        client = _Client(server.port, {"Authorization": "Bearer secret"})
        try:
            # Auth comes first: a refused request parses nothing.
            assert stranger.post("/v1/query", first)[0] == 401
            assert client.stats()["specs"] == {
                "entries": 0, "bytes": 0, "hits": 0, "misses": 0,
            }
            assert client.post("/v1/query", first)[0] == 200
            assert client.post("/v1/query", first)[0] == 200
            assert client.post("/v1/query", second)[0] == 200
            assert client.post("/v1/query", b"{not json")[0] == 400
            specs = client.stats()["specs"]
        finally:
            stranger.close()
            client.close()
    assert specs == {
        "entries": 2,
        "bytes": len(first) + len(second),
        "hits": 1,
        "misses": 3,
    }


def test_failed_parses_are_never_kept(corpus):
    invalid = GraphQuery(graph=corpus.queries[0], kind="topk", k=3).to_dict()
    invalid["k"] = -1
    bodies = {
        b"{not json": "bad-request",
        b"[1, 2, 3]": "bad-request",
        json.dumps(invalid).encode(): "query-error",
        b'{"kind": "skyline"}': "query-error",
    }
    with serve_in_thread(GraphDatabase.from_graphs(corpus.database)) as server:
        client = _Client(server.port)
        try:
            for _ in range(2):
                for body, code in bodies.items():
                    status, payload = client.post("/v1/query", body)
                    assert status == 400
                    assert payload["error"]["code"] == code
            specs = client.stats()["specs"]
        finally:
            client.close()
    assert specs["entries"] == 0 and specs["bytes"] == 0
    assert specs["hits"] == 0 and specs["misses"] == 2 * len(bodies)


def test_a_body_over_the_byte_cap_is_answered_but_not_kept(corpus):
    spec = GraphQuery(graph=corpus.queries[0], kind="topk", k=3)
    body = _body(spec) + b" " * SPEC_INTERN_MAX_BYTES  # JSON whitespace
    assert len(body) > SPEC_INTERN_MAX_BYTES
    with serve_in_thread(GraphDatabase.from_graphs(corpus.database)) as server:
        seen = _record_specs(server)
        client = _Client(server.port)
        try:
            answers = [client.post("/v1/query", body) for _ in range(2)]
            compact = client.post("/v1/query", _body(spec))
            specs = client.stats()["specs"]
        finally:
            client.close()
    assert [status for status, _ in answers] == [200, 200]
    assert answers[0][1]["ids"] == answers[1][1]["ids"] == compact[1]["ids"]
    assert seen[0] is not seen[1]
    assert specs == {"entries": 1, "bytes": len(_body(spec)), "hits": 0, "misses": 3}


def test_entries_and_bytes_stay_within_the_bound(corpus):
    body = _body(GraphQuery(graph=corpus.queries[0], kind="topk", k=3))
    intern = _SpecIntern()
    bodies = [body + b" " * pad for pad in range(SPEC_INTERN_LIMIT + 20)]
    for raw in bodies:
        intern.spec(raw, lambda raw=raw: GraphQuery.from_json(raw.decode()))
    snapshot = intern.snapshot()
    assert snapshot["entries"] == SPEC_INTERN_LIMIT
    assert snapshot["bytes"] == sum(map(len, bodies[-SPEC_INTERN_LIMIT:]))
    assert snapshot["bytes"] <= SPEC_INTERN_LIMIT * SPEC_INTERN_MAX_BYTES
    assert snapshot["misses"] == len(bodies) and snapshot["hits"] == 0
    # The oldest bodies went first; the newest are still kept.
    newest = intern.spec(bodies[-1], lambda: pytest.fail("parsed again"))
    assert newest.kind == "topk"
    intern.spec(bodies[0], lambda: GraphQuery.from_json(body.decode()))
    assert intern.snapshot()["misses"] == len(bodies) + 1


def test_a_kept_spec_whose_graph_changed_is_parsed_again(corpus):
    body = _body(GraphQuery(graph=corpus.queries[0], kind="topk", k=3))
    intern = _SpecIntern()
    kept = intern.spec(body, lambda: GraphQuery.from_json(body.decode()))
    kept.graph.add_vertex(99, "z")
    fresh = intern.spec(body, lambda: GraphQuery.from_json(body.decode()))
    assert fresh is not kept and 99 not in fresh.graph.vertices()
    assert intern.spec(body, lambda: pytest.fail("parsed again")) is fresh


def test_served_reads_leave_the_interned_graph_unchanged(corpus):
    query = corpus.queries[0]
    reads = [
        ("/v1/query", GraphQuery(graph=query, kind="skyline")),
        ("/v1/query", GraphQuery(graph=query, kind="skyband", k=2)),
        ("/v1/query", GraphQuery(graph=query, kind="topk", k=3)),
        ("/v1/query", GraphQuery(graph=query, kind="threshold", threshold=3.0)),
        ("/v1/query?anytime=1", GraphQuery(graph=query, kind="topk", k=2)),
    ]
    config = ServerConfig(backend="auto", shards=2)
    with serve_in_thread(GraphDatabase.from_graphs(corpus.database), config) as server:
        seen = _record_specs(server)
        client = _Client(server.port)
        try:
            for path, spec in reads:
                for _ in range(2):
                    status, payload = client.post(path, _body(spec))
                    assert status == 200, payload
        finally:
            client.close()
    for index in range(len(reads)):
        first, again = seen[2 * index], seen[2 * index + 1]
        assert first.graph is again.graph
        assert first.graph.mutation_count == query.mutation_count
        assert first.graph == query
    assert seen[-1].budget_ms is not None  # the anytime read ran budgeted


def test_repeated_bodies_pin_one_graph_each(corpus):
    query = corpus.queries[0]
    specs = [
        GraphQuery(graph=query, kind="topk", k=2),
        GraphQuery(graph=query, kind="topk", k=4),
        GraphQuery(graph=query, kind="threshold", threshold=2.0),
        GraphQuery(graph=query, kind="skyline"),
    ]
    with serve_in_thread(GraphDatabase.from_graphs(corpus.database)) as server:
        client = _Client(server.port)
        try:
            for _ in range(10):
                for spec in specs:
                    assert client.post("/v1/query", _body(spec))[0] == 200
            specs_stats = client.stats()["specs"]
        finally:
            client.close()
        pinned = server.cache.pinned
    assert pinned <= 2 * len(specs)
    assert specs_stats["hits"] == 9 * len(specs)


@pytest.mark.parametrize(
    "config",
    [ServerConfig(), ServerConfig(backend="auto", shards=2)],
    ids=["memory", "auto-sharded"],
)
def test_served_reads_of_reused_specs_match_the_oracle(corpus, config):
    """Repeated bodies interleaved with adds and removes: every read
    equals the exhaustive oracle's answer at the same database state."""
    extra = make_workload(n_graphs=6, query_size=5, seed=12)
    query = corpus.queries[0]
    specs = [
        GraphQuery(graph=query, kind="skyline"),
        GraphQuery(graph=query, kind="skyband", k=2),
        GraphQuery(graph=query, kind="topk", k=3),
        GraphQuery(graph=query, kind="threshold", threshold=3.0),
        GraphQuery(graph=extra.queries[0], kind="topk", k=2, measure="mcs"),
    ]
    # Adds include an isomorphic copy of the query, which enters every
    # answer, and later removes take graphs out of them again.
    writes = [
        AddOp("copy", query.copy()),
        AddOp("extra-0", extra.database[0]),
        RemoveOp("copy"),
        RemoveOp(corpus.database[1].name),
        AddOp("extra-1", extra.database[1]),
        AddOp("copy-again", query.copy()),
        RemoveOp("extra-0"),
    ]
    database = GraphDatabase.from_graphs(corpus.database)
    id_to_handle = {
        graph_id: database.get(graph_id).name for graph_id in database.ids()
    }
    oracle = Oracle()
    for graph_id in sorted(id_to_handle):
        oracle.add(id_to_handle[graph_id], database.get(graph_id))
    with serve_in_thread(database, config) as server:
        client = _Client(server.port)
        try:
            for write in [None, *writes]:
                if write is not None:
                    status, ack = client.post(
                        "/v1/mutate", json.dumps(write.to_dict()).encode()
                    )
                    assert status == 200, ack
                    if isinstance(write, AddOp):
                        id_to_handle[ack["graph_id"]] = write.handle
                        oracle.add(write.handle, write.graph)
                    else:
                        oracle.remove(write.handle)
                for _ in range(2):
                    for spec in specs:
                        status, payload = client.post("/v1/query", _body(spec))
                        assert status == 200, payload
                        served = [id_to_handle[i] for i in payload["ids"]]
                        assert served == oracle.answer(spec), (write, spec.kind)
            specs_stats = client.stats()["specs"]
        finally:
            client.close()
    assert specs_stats["misses"] == len(specs)
    assert specs_stats["hits"] == (2 * (len(writes) + 1) - 1) * len(specs)
