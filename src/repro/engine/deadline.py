"""Cooperative per-query deadlines for the staged engine.

A :class:`Deadline` is a monotonic-clock expiry the engine checks
*cooperatively*: :func:`repro.engine.core.run_plan` tests it once per
candidate (and the pooled evaluator between chunk results), raising
:class:`~repro.errors.DeadlineExceeded` the moment it has passed. Nothing
is interrupted mid-pair — the granularity is one exact evaluation — but
that is exactly the granularity a server needs: an expired query stops
burning CPU at the next candidate and frees its admission slot.

The deadline travels through a :class:`contextvars.ContextVar` rather
than through every backend signature: callers wrap execution in
:func:`deadline_scope` and every :class:`~repro.engine.core.RunContext`
created inside the scope — including the per-shard contexts of the
scatter-gather backend — picks it up via :func:`current_deadline`. The
contextvar is thread-local by construction, so concurrent server
requests, each on its connection's thread, see only their own deadline.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from collections.abc import Iterator

from repro.errors import DeadlineExceeded


class Deadline:
    """An absolute expiry on the monotonic clock.

    Build one with :meth:`after` (relative seconds); ``check()`` raises
    :class:`~repro.errors.DeadlineExceeded` once the clock passes it.
    """

    __slots__ = ("expires_at", "budget")

    def __init__(self, expires_at: float, budget: float | None = None) -> None:
        self.expires_at = expires_at
        #: The original relative budget in seconds (for error messages).
        self.budget = budget

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        """A deadline ``seconds`` from now (must be positive)."""
        if seconds <= 0:
            raise ValueError("deadline budget must be positive")
        return cls(time.monotonic() + seconds, budget=seconds)

    def remaining(self) -> float:
        """Seconds left (negative once expired)."""
        return self.expires_at - time.monotonic()

    def expired(self) -> bool:
        return time.monotonic() >= self.expires_at

    def check(self) -> None:
        """Raise :class:`~repro.errors.DeadlineExceeded` when expired."""
        if self.expired():
            budget = (
                f" (budget {self.budget * 1000:.0f}ms)"
                if self.budget is not None
                else ""
            )
            raise DeadlineExceeded(
                f"query deadline exceeded{budget}; evaluation cancelled"
            )

    def __repr__(self) -> str:
        return f"<Deadline remaining={self.remaining() * 1000:.1f}ms>"


_CURRENT: ContextVar[Deadline | None] = ContextVar(
    "repro_engine_deadline", default=None
)


def current_deadline() -> Deadline | None:
    """The ambient deadline of this context (``None`` = unbounded)."""
    return _CURRENT.get()


@contextmanager
def deadline_scope(deadline: Deadline | None) -> Iterator[Deadline | None]:
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
