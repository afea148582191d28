"""Served anytime queries: a deadline that used to guarantee a 504 on a
slow pair now yields a complete certified-interval answer (HTTP 200,
``approximate: true``) whenever at least one evaluation pass finished,
and the concurrency slot is freed immediately either way.

The slow pair is *real* work — large random graphs whose exact GED
search is exponential — because a sleeping ``FunctionMeasure`` cannot be
interrupted by a budget (only checked between pairs, satellite coverage
for that lives in ``test_server.py``).
"""

from __future__ import annotations

import time

import pytest

from repro.api.spec import Query
from repro.db import GraphDatabase
from repro.graph.generators import random_labeled_graph
from repro.server import ServerConfig, serve_in_thread
from tests.test_server import _Client


@pytest.fixture(scope="module")
def slow_database() -> GraphDatabase:
    """Six cheap 5-vertex graphs plus one 14-vertex graph whose exact
    GED against the 13-vertex query takes well over a second."""
    fast = [
        random_labeled_graph(5, 6, vertex_labels=("a", "b"), seed=s)
        for s in range(6)
    ]
    slow = random_labeled_graph(14, 26, vertex_labels=("a", "b"), seed=50)
    return GraphDatabase.from_graphs(fast + [slow])


@pytest.fixture(scope="module")
def slow_query():
    return random_labeled_graph(13, 24, vertex_labels=("a", "b"), seed=51)


def test_anytime_deadline_returns_certified_intervals_and_frees_slot(
    slow_database, slow_query
):
    spec = Query(slow_query).topk(3).build()
    config = ServerConfig(max_concurrency=1)
    with serve_in_thread(slow_database, config) as server:
        client = _Client(server.port)
        try:
            # Warm one-time work (NumPy, the assignment kernel's load,
            # the first read's index) so the timed request measures the
            # engine, not set-up.
            status, _ = client.request(
                "POST", "/v1/query?deadline_ms=5000&anytime=1", spec.to_dict()
            )
            assert status == 200

            started = time.monotonic()
            status, payload = client.request(
                "POST", "/v1/query?deadline_ms=150&anytime=1", spec.to_dict()
            )
            elapsed = time.monotonic() - started
            assert status == 200
            # Far below the >1s a single exact evaluation of the slow
            # pair costs: the budget interrupted it mid-search.
            assert elapsed < 1.0
            assert payload["approximate"] is True
            intervals = payload["intervals"]
            assert intervals  # every surviving candidate reports bounds
            for vector in intervals.values():
                for lower, upper in vector:
                    assert upper is None or lower <= upper + 1e-9
            assert payload["stats"]["anytime"]["passes"] >= 1
            assert len(payload["answer"]) == 3

            # The slot was freed immediately: on a max_concurrency=1
            # server the very next ordinary query runs without queueing.
            cheap = Query(slow_database.graphs()[0]).skyline().build()
            status, payload = client.request(
                "POST", "/v1/query", cheap.to_dict()
            )
            assert status == 200 and payload["answer"]

            _, stats = client.request("GET", "/v1/stats")
            # No 504 was served: the anytime path absorbed the expiry.
            assert stats["admission"]["deadline_expired"] == 0
            assert stats["admission"]["active"] == 0
            assert stats["admission"]["completed"] == 3
        finally:
            client.close()


def test_anytime_flag_without_deadline_is_rejected(slow_database, slow_query):
    # deadline_ms=None drops the server-wide default deadline, so there
    # is nothing to derive a budget from.
    spec = Query(slow_query).topk(2).build()
    with serve_in_thread(
        slow_database, ServerConfig(deadline_ms=None)
    ) as server:
        client = _Client(server.port)
        try:
            status, payload = client.request(
                "POST", "/v1/query?anytime=1", spec.to_dict()
            )
            assert status == 400
            assert payload["error"]["code"] == "bad-request"
            assert "anytime" in payload["error"]["message"]
        finally:
            client.close()


def test_body_budget_serves_intervals_without_flag(slow_database, slow_query):
    # budget_ms in the spec itself opts in; no query-string flag needed.
    spec = Query(slow_query).topk(2).budget(ms=200).build()
    with serve_in_thread(slow_database, ServerConfig()) as server:
        client = _Client(server.port)
        try:
            status, payload = client.request(
                "POST", "/v1/query", spec.to_dict()
            )
            assert status == 200
            assert payload["intervals"]
            assert "approximate" in payload
            assert "anytime" in payload["stats"]
        finally:
            client.close()


def test_deadline_without_anytime_keeps_504_contract(
    slow_database, slow_query
):
    # Opting out of anytime keeps the hard deadline. 150 ms lets the
    # cheap pairs finish, so the engine enters the slow pair; the run
    # budget reaches inside its search, so the request still 504s at
    # once and frees its slot.
    spec = Query(slow_query).topk(3).build()
    with serve_in_thread(slow_database, ServerConfig(max_concurrency=1)) as server:
        client = _Client(server.port)
        try:
            # Warm one-time imports, as above.
            status, _ = client.request(
                "POST", "/v1/query?deadline_ms=5000&anytime=1", spec.to_dict()
            )
            assert status == 200

            started = time.monotonic()
            status, payload = client.request(
                "POST", "/v1/query?deadline_ms=150", spec.to_dict()
            )
            assert time.monotonic() - started < 0.5
            assert status == 504
            assert payload["error"]["code"] == "deadline-exceeded"

            _, stats = client.request("GET", "/v1/stats")
            assert stats["admission"]["deadline_expired"] == 1
            assert stats["admission"]["active"] == 0
        finally:
            client.close()
