"""Declarative query layer: one front door, pluggable execution backends.

The unified API the rest of the library routes through:

* :class:`GraphQuery` / :class:`Query` — immutable query specs with a
  fluent builder and a JSON wire format;
* :func:`connect` / :class:`Session` — open a database (or plain graph
  sequence, or saved JSON file) against a named backend and execute any
  spec;
* :class:`ResultSet` — the single result shape (graphs + vectors + stats
  + ``explain()`` + ``to_rows()``/``to_json()``);
* :class:`ExecutionBackend` — the strategy ABC behind
  :func:`register_backend`; shipped backends are ``memory`` (serial
  exhaustive), ``indexed`` (batched lower-bound pruning over the packed
  feature matrix, also spelled ``vectorized``), ``parallel``
  (process-pool fan-out), ``sharded`` (scatter-gather) and ``auto``
  (rule-based planning) — all thin plan configurations over the staged
  engine (:mod:`repro.engine`), all accepting a shared ``cache=``
  (:class:`repro.db.cache.PairCache`);
* :class:`LiveView` — ``Session.watch(query)``: any query's answer kept
  equal to executing it under database mutation, read through
  ``Session.execute``'s path over an answer entry of its own.
"""

from repro.api.spec import (
    GraphQuery,
    Query,
    QUERY_KINDS,
    REFINE_METHODS,
)
from repro.api.backends import (
    BackendAnswer,
    ExecutionBackend,
    IndexedBackend,
    MemoryBackend,
    available_backends,
    create_backend,
    register_backend,
)
from repro.api.parallel import ParallelBackend, shutdown_pool
from repro.api.result import QueryPlan, ResultSet
from repro.api.session import Session, connect
from repro.engine.views import LiveView

__all__ = [
    "GraphQuery",
    "Query",
    "QUERY_KINDS",
    "REFINE_METHODS",
    "BackendAnswer",
    "ExecutionBackend",
    "MemoryBackend",
    "IndexedBackend",
    "ParallelBackend",
    "available_backends",
    "create_backend",
    "register_backend",
    "shutdown_pool",
    "QueryPlan",
    "ResultSet",
    "Session",
    "connect",
    "LiveView",
]
