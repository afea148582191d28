"""Declarative query layer: one front door, pluggable execution backends.

The unified API the rest of the library routes through:

* :class:`GraphQuery` / :class:`Query` — immutable query specs with a
  fluent builder and a JSON wire format;
* :func:`connect` / :class:`Session` — open a database (or plain graph
  sequence, or saved JSON file) against a named backend and execute any
  spec;
* :class:`ResultSet` — the single result shape (graphs + vectors + stats
  + ``explain()`` + ``to_rows()``/``to_json()``);
* :class:`ExecutionBackend` — the one executor behind every backend
  name. Each name is a preset that picks a plan decision per query:
  ``memory`` (serial exhaustive), ``indexed`` (batched lower-bound
  pruning over the packed feature matrix wherever pruning is sound),
  ``parallel`` (exhaustive, process-pool fan-out), ``sharded``
  (``indexed``'s decision, scatter-gathered) and ``auto`` (the planner's
  rule: ``indexed``'s plan, serial, scatter-gathered over shards). All
  run on the staged engine
  (:mod:`repro.engine`) and accept a shared ``cache=``
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
    available_backends,
)
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
    "available_backends",
    "QueryPlan",
    "ResultSet",
    "Session",
    "connect",
    "LiveView",
]
