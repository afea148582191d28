"""The watch hub: live query views streamed as NDJSON events.

``POST /v1/watch`` upgrades a connection into an event stream over one
:class:`~repro.engine.views.LiveView` (``Session.watch``): the client
receives a ``snapshot`` event immediately, then one ``update`` event per
served mutation that actually changed the view's answer. Events are
newline-delimited JSON, ordered, and deduplicated — an insert dominated
into oblivion produces no event, because the view's membership did not
change.

The hub is the fan-out point between the mutation path and the open
streams: a mutation bumps the hub (one ``asyncio.Event`` per watcher),
each watcher coalesces however many mutations happened since it last
looked into a single refresh (a LiveView refresh replays its answer over
the change log, judging only the added graphs, so the cost follows the
changes, not the mutation count; removing an answer member runs the
query in full). Watcher bookkeeping is explicit — :meth:`register` /
:meth:`unregister` — so the disconnect tests can assert the hub drains
to zero and no tasks leak.
"""

from __future__ import annotations

import asyncio
import itertools
from dataclasses import dataclass, field
from typing import Any


@dataclass
class WatchHandle:
    """One registered watcher: its live view and its wake-up event."""

    watch_id: int
    view: Any  # repro.engine.views.LiveView
    wakeup: asyncio.Event = field(default_factory=asyncio.Event)
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
        if len(self._watches) >= self.max_watches:
            self.refused += 1
            return None
        handle = WatchHandle(watch_id=next(self._ids), view=view)
        self._watches[handle.watch_id] = handle
        self.opened += 1
        return handle

    def unregister(self, handle: WatchHandle) -> None:
        """Drop a watcher (idempotent — error paths may race the exit)."""
        if self._watches.pop(handle.watch_id, None) is not None:
            self.closed += 1

    def notify(self) -> None:
        """Wake every watcher (called after each applied mutation)."""
        for handle in self._watches.values():
            handle.wakeup.set()

    def snapshot(self) -> dict[str, int]:
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
