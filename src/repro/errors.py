"""Exception hierarchy for the ``repro`` library.

All library errors derive from :class:`ReproError` so that callers can catch
one base class. More specific subclasses signal misuse of the graph type,
invalid edit operations, or invalid query specifications.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by the ``repro`` library."""


class GraphError(ReproError):
    """Base class for errors involving :class:`repro.graph.LabeledGraph`."""


class VertexNotFoundError(GraphError, KeyError):
    """A vertex id was referenced that is not present in the graph."""

    def __init__(self, vertex: object) -> None:
        super().__init__(f"vertex {vertex!r} is not in the graph")
        self.vertex = vertex


class EdgeNotFoundError(GraphError, KeyError):
    """An edge was referenced that is not present in the graph."""

    def __init__(self, u: object, v: object) -> None:
        super().__init__(f"edge ({u!r}, {v!r}) is not in the graph")
        self.u = u
        self.v = v


class DuplicateVertexError(GraphError, ValueError):
    """A vertex id was inserted twice."""

    def __init__(self, vertex: object) -> None:
        super().__init__(f"vertex {vertex!r} is already in the graph")
        self.vertex = vertex


class DuplicateEdgeError(GraphError, ValueError):
    """An edge was inserted twice (parallel edges are not supported)."""

    def __init__(self, u: object, v: object) -> None:
        super().__init__(f"edge ({u!r}, {v!r}) is already in the graph")
        self.u = u
        self.v = v


class SelfLoopError(GraphError, ValueError):
    """A self loop was inserted (the paper's graphs are simple graphs)."""

    def __init__(self, vertex: object) -> None:
        super().__init__(f"self loops are not supported (vertex {vertex!r})")
        self.vertex = vertex


class InvalidEditOperationError(ReproError, ValueError):
    """An edit operation cannot be applied to the given graph."""


class QueryError(ReproError, ValueError):
    """An invalid similarity query specification was supplied."""


class DatasetError(ReproError, ValueError):
    """A dataset could not be built or validated."""


class SerializationError(ReproError, ValueError):
    """A graph payload could not be (de)serialized."""


class StaleHandleError(QueryError):
    """A mutation referenced a handle that no longer resolves.

    Raised by :func:`repro.api.ops.apply_mutation` when the source handle
    of a ``remove``/``relabel`` is not live — distinct from a duplicate
    handle on ``add`` so the server can answer a structured
    ``stale-handle`` conflict instead of a generic error.
    """

    def __init__(self, op: str, handle: object) -> None:
        super().__init__(
            f"mutation {op!r} references handle {handle!r}, "
            f"which no longer resolves"
        )
        self.op = op
        self.handle = handle


class WalCorruptionError(SerializationError):
    """A write-ahead log segment is corrupt beyond its torn tail.

    A partial or checksum-failed *final* record is expected after a
    crash and silently truncated on open; a bad record with valid
    records after it means lost or mangled history, which recovery must
    refuse to paper over.
    """


class DeadlineExceeded(ReproError, TimeoutError):
    """A query's deadline expired before evaluation finished.

    Raised by the staged engine when the run budget's expiry (the
    ambient deadline, an expiry-only
    :class:`~repro.graph.budget.Budget`) has passed: between candidates,
    while a pooled drain waits, and inside a pair whose search it stopped. The
    run stops, partial state is discarded, and the caller (e.g.
    ``repro.server``) maps this to a structured timeout error. An
    anytime run raises it only when no evaluation pass completed.
    """
