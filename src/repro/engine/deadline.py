"""The ambient query deadline: an expiry-only :class:`~repro.graph.budget.Budget`.

Callers wrap execution in :func:`deadline_scope`, and every
:class:`~repro.engine.core.RunContext` made inside the scope — the
per-shard contexts of the scatter-gather backend too — folds it into its
run budget via :func:`current_deadline`. The run passes that budget to
every exact search, so an expired deadline stops a search inside the
pair it is in; the engine raises :class:`~repro.errors.DeadlineExceeded`
there and between candidates. The contextvar is thread-local by
construction, so concurrent server requests, each on its connection's
thread, see only their own deadline.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from contextvars import ContextVar

from repro.graph.budget import Budget

_CURRENT: ContextVar[Budget | None] = ContextVar(
    "repro_engine_deadline", default=None
)


def current_deadline() -> Budget | None:
    """The ambient deadline of this context (``None`` = unbounded)."""
    return _CURRENT.get()


@contextmanager
def deadline_scope(deadline: Budget | None) -> Iterator[Budget | None]:
    """Make ``deadline`` ambient for every engine run inside the block.

    ``None`` explicitly clears an inherited deadline, so nested scopes
    can opt sub-work out. Scopes restore the previous value on exit even
    when the block raises.
    """
    token = _CURRENT.set(deadline)
    try:
        yield deadline
    finally:
        _CURRENT.reset(token)
