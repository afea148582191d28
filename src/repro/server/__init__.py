"""``repro.server`` — the threaded query service over the library core.

The network front door that turns the library into a system: one shared
:class:`~repro.db.database.GraphDatabase` (optionally sharded) and one
cross-client :class:`~repro.db.cache.PairCache` served over HTTP with
JSON bodies that are *exactly* the existing wire formats —
:meth:`GraphQuery.to_dict` in, :meth:`ResultSet.to_dict` out, and
mutation ops encoded identically to the testkit's workload steps
(:mod:`repro.api.ops`), so served mutations stay fuzzable against the
oracle.

Pieces (stdlib only — one thread per connection over blocking sockets
plus hand-rolled HTTP/1.1 framing; no new dependencies):

* :mod:`~repro.server.protocol` — request/response envelopes, error
  codes, and the minimal HTTP framing;
* :mod:`~repro.server.admission` — bounded-queue admission control with
  explicit 429-style rejection and per-query deadlines that stop
  evaluation inside the pair it is in (:mod:`repro.engine.deadline`);
* :mod:`~repro.server.streaming` — the watch hub: :meth:`Session.watch`
  answer updates of any spec streamed as newline-delimited JSON events;
* :mod:`~repro.server.app` — :class:`QueryServer` wiring it together,
  plus :func:`serve_in_thread` for tests/benches and the ``python -m
  repro serve`` CLI entry point.

Endpoints::

    GET  /v1/health           liveness + database size
    GET  /v1/stats            admission / connection / cache / watch counters
    POST /v1/query            GraphQuery JSON -> ResultSet JSON
    POST /v1/mutate           mutation op JSON -> acknowledgement
    POST /v1/watch            GraphQuery -> NDJSON event stream
"""

from repro.server.admission import AdmissionController, AdmissionRejected
from repro.server.app import QueryServer, ServerConfig, serve_in_thread
from repro.server.protocol import ERROR_STATUS, ProtocolError, error_payload
from repro.server.streaming import WatchHub

__all__ = [
    "AdmissionController",
    "AdmissionRejected",
    "QueryServer",
    "ServerConfig",
    "serve_in_thread",
    "ERROR_STATUS",
    "ProtocolError",
    "error_payload",
    "WatchHub",
]
