"""Admission control: bounded concurrency, bounded queue, hard deadlines.

A server over an exponential-cost query language (exact GED) must refuse
work it cannot finish; this module makes the refusal explicit and
structured instead of letting latency collapse:

* at most ``max_concurrency`` queries *evaluate* at once (a connection
  thread past that waits in :meth:`AdmissionController.acquire`);
* at most ``max_queue`` more may *wait*; anything beyond is rejected
  immediately with a ``queue-full`` error the transport maps to HTTP
  429 — a full server answers in microseconds, it never hangs;
* every admitted query carries a deadline, an expiry-only
  :class:`~repro.graph.budget.Budget` (:mod:`repro.engine.deadline`)
  that every exact search of the run is bounded by, so an expired query
  stops burning its slot at once, inside the pair it is solving, rather
  than running to completion.

The controller is a counter machine under one ``threading.Condition``,
held only to count, never while a query evaluates; ``snapshot()`` feeds
the ``/v1/stats`` endpoint and the load-shedding tests.
"""

from __future__ import annotations

import threading
from collections.abc import Iterator
from contextlib import contextmanager


class AdmissionRejected(Exception):
    """The bounded request queue is full; the caller gets a 429."""

    def __init__(self, active: int, waiting: int, max_queue: int) -> None:
        super().__init__(
            f"request queue full ({active} active, {waiting} waiting, "
            f"queue capacity {max_queue}); retry later"
        )
        self.active = active
        self.waiting = waiting
        self.max_queue = max_queue


class AdmissionController:
    """Bounded-queue admission for the request handlers.

    Parameters
    ----------
    max_concurrency:
        Queries evaluating simultaneously.
    max_queue:
        Admitted-but-waiting requests beyond the active ones; ``0``
        means reject the moment every slot is busy.
    """

    def __init__(self, max_concurrency: int, max_queue: int) -> None:
        if max_concurrency < 1:
            raise ValueError("max_concurrency must be at least 1")
        if max_queue < 0:
            raise ValueError("max_queue must be non-negative")
        self.max_concurrency = max_concurrency
        self.max_queue = max_queue
        self.active = 0
        self.waiting = 0
        # Lifetime counters for /v1/stats and the benches.
        self.admitted = 0
        self.rejected = 0
        self.completed = 0
        self.deadline_expired = 0
        self.peak_active = 0
        self.peak_waiting = 0
        self._cond = threading.Condition()

    def acquire(self) -> None:
        """Take a slot, waiting in the bounded queue if needed.

        Raises :class:`AdmissionRejected` without waiting when the queue
        is already at capacity — rejection is the fast path.
        """
        with self._cond:
            if self.active >= self.max_concurrency:
                if self.waiting >= self.max_queue:
                    self.rejected += 1
                    raise AdmissionRejected(
                        self.active, self.waiting, self.max_queue
                    )
                self.waiting += 1
                self.peak_waiting = max(self.peak_waiting, self.waiting)
                try:
                    self._cond.wait_for(
                        lambda: self.active < self.max_concurrency
                    )
                finally:
                    self.waiting -= 1
            self.active += 1
            self.admitted += 1
            self.peak_active = max(self.peak_active, self.active)

    def release(self) -> None:
        """Free a slot and wake one waiter."""
        with self._cond:
            self.active -= 1
            self.completed += 1
            self._cond.notify(1)

    @contextmanager
    def slot(self) -> Iterator[None]:
        """``with controller.slot():`` — acquire/release bracket."""
        self.acquire()
        try:
            yield
        finally:
            self.release()

    def note_deadline_expired(self) -> None:
        with self._cond:
            self.deadline_expired += 1

    def snapshot(self) -> dict[str, int]:
        """Counters for ``/v1/stats`` (and the saturation tests)."""
        with self._cond:
            return {
                "max_concurrency": self.max_concurrency,
                "max_queue": self.max_queue,
                "active": self.active,
                "waiting": self.waiting,
                "admitted": self.admitted,
                "rejected": self.rejected,
                "completed": self.completed,
                "deadline_expired": self.deadline_expired,
                "peak_active": self.peak_active,
                "peak_waiting": self.peak_waiting,
            }
