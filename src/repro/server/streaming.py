"""The watch hub: live query views streamed as NDJSON events.

``POST /v1/watch`` upgrades a connection into an event stream over one
:class:`~repro.engine.views.LiveView` (``Session.watch``): the client
receives a ``snapshot`` event immediately, then one ``update`` event per
served mutation that actually changed the view's answer. Events are
newline-delimited JSON, ordered, and deduplicated — an insert dominated
into oblivion produces no event, because the view's membership did not
change.

The hub is the fan-out point between the mutation path and the open
streams: a mutation sets every watcher's :class:`Wakeup`; its thread
waits on that and its socket in one ``select``, so a stream refreshes
with no polling delay and ends the moment either side hangs up.
Each watcher coalesces however many mutations happened since it last
looked into a single refresh (a LiveView refresh replays its answer over
the change log, judging only the added graphs, so the cost follows the
changes, not the mutation count; removing an answer member runs the
query in full). Watcher bookkeeping is explicit — :meth:`register` /
:meth:`unregister` — so the disconnect tests can assert the hub drains
to zero and no threads leak.
"""

from __future__ import annotations

import contextlib
import itertools
import select
import socket
import threading
from dataclasses import dataclass, field
from typing import Any


class Wakeup:
    """A flag ``select`` can wait on: set writes a byte into a socket
    pair, clear drains it (neither ever blocks)."""

    def __init__(self) -> None:
        self._reader, self._writer = socket.socketpair()
        self._reader.setblocking(False)
        self._writer.setblocking(False)

    def fileno(self) -> int:
        return self._reader.fileno()

    def is_set(self) -> bool:
        return bool(select.select([self._reader], [], [], 0)[0])

    def set(self) -> None:
        with contextlib.suppress(BlockingIOError):  # full: already set
            self._writer.send(b"\0")

    def clear(self) -> None:
        with contextlib.suppress(BlockingIOError):
            self._reader.recv(4096)

    def close(self) -> None:
        self._reader.close()
        self._writer.close()


@dataclass
class WatchHandle:
    """One registered watcher: its live view and its wake-up flag."""

    watch_id: int
    view: Any  # repro.engine.views.LiveView
    wakeup: Wakeup = field(default_factory=Wakeup)
    #: ids of the last event actually sent (dedup baseline).
    last_ids: list[int] | None = None
    events_sent: int = 0


class WatchHub:
    """Registry + broadcast channel for the open watch streams."""

    def __init__(self, max_watches: int) -> None:
        if max_watches < 1:
            raise ValueError("max_watches must be at least 1")
        self.max_watches = max_watches
        self._watches: dict[int, WatchHandle] = {}
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        #: Lifetime counters for /v1/stats.
        self.opened = 0
        self.closed = 0
        self.refused = 0

    @property
    def active(self) -> int:
        return len(self._watches)

    def register(self, view: Any) -> WatchHandle | None:
        """Track a new watcher; ``None`` when the hub is at capacity."""
        with self._lock:
            if len(self._watches) >= self.max_watches:
                self.refused += 1
                return None
            handle = WatchHandle(watch_id=next(self._ids), view=view)
            self._watches[handle.watch_id] = handle
            self.opened += 1
            return handle

    def unregister(self, handle: WatchHandle) -> None:
        """Drop a watcher and close its wake-up (idempotent — error
        paths may race the exit)."""
        with self._lock:
            if self._watches.pop(handle.watch_id, None) is not None:
                self.closed += 1
                handle.wakeup.close()

    def notify(self) -> None:
        """Wake every watcher (called after each applied mutation)."""
        with self._lock:
            for handle in self._watches.values():
                handle.wakeup.set()

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return {
                "max_watches": self.max_watches,
                "active": self.active,
                "opened": self.opened,
                "closed": self.closed,
                "refused": self.refused,
            }


def view_event(
    handle: WatchHandle, event: str, version: int, ids: list[int]
) -> dict[str, Any]:
    """One wire event for ``handle``'s current view state.

    ``ids`` is the freshly refreshed answer — the caller computes it
    while holding the database read lock, so the event is a consistent
    snapshot even while mutations are in flight.
    """
    payload = {
        "event": event,
        "watch_id": handle.watch_id,
        "seq": handle.events_sent,
        "ids": ids,
        "answer": [
            handle.view.database.get(graph_id).name or f"#{graph_id}"
            for graph_id in ids
        ],
        "database_version": version,
    }
    handle.last_ids = ids
    handle.events_sent += 1
    return payload
