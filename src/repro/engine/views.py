"""Live views: query answers that follow database mutation.

``Session.watch(query)`` returns a :class:`LiveView` — any spec's answer
kept equal to executing it while graphs are added to or removed from the
underlying :class:`~repro.db.database.GraphDatabase`. The view holds one
answer entry of its own and reads through the session's one read path
(``Session.execute``'s): staleness is detected through the database's
mutation version, so an unchanged database costs one integer comparison
per access; a stale view with a pair cache replays its entry over the
database's change log (only the added graphs are judged, through the
kind's bound stage and the pair cache), and runs in full, pruned by the
backend's cascade, where a replay cannot bring it forward (a removed
answer member of a top-k, skyline or skyband answer, ``tolerance > 0``,
a log that no longer reaches back, or no pair cache at all).
"""

from __future__ import annotations

from collections.abc import Hashable
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.spec import GraphQuery
    from repro.graph.labeled_graph import LabeledGraph
    from repro.api.result import ResultSet
    from repro.api.session import Session


class LiveView:
    """A query result that follows database adds and removes.

    Created through :meth:`repro.api.session.Session.watch`; every access
    to :attr:`ids`/:attr:`graphs`/:meth:`result` first :meth:`refresh`-es
    the view, so reads are always consistent with the database.
    """

    def __init__(self, session: "Session", spec: "GraphQuery") -> None:
        self.session = session
        self.database = session.database
        self.spec = spec
        #: ``(answer key, version, stored answer)`` of the last read that
        #: computed its answer at one version.
        self._entry: tuple[Hashable, int, object] | None = None
        self._result: "ResultSet | None" = None
        self._version: int | None = None
        #: Number of refresh passes that found work to do.
        self.repairs = 0
        #: Exact pair evaluations spent across initial build + repairs.
        self.evaluations = 0
        #: Pair vectors served by the shared cache instead of solving.
        self.cache_served = 0
        self.refresh()

    # -- the one-entry answer store Session._read reads and writes -------
    def get(self, key: Hashable) -> "tuple[int, object] | None":
        if self._entry is None or self._entry[0] != key:
            return None
        return self._entry[1:]

    def put(self, version: int, key: Hashable, value: object) -> None:
        self._entry = (key, version, value)

    def count(self, outcome: str) -> None:
        """A view's reads are counted by :attr:`repairs`, not by outcome."""

    # -- repair ---------------------------------------------------------
    def refresh(self) -> bool:
        """Re-read the view if the database changed; returns whether it did."""
        version = self.database.version
        if version == self._version:
            return False
        result = self.session._read(self.spec, self)
        if self._version is not None:
            self.repairs += 1
        self._version = version
        self._result = result
        self.evaluations += result.stats.exact_evaluations
        self.cache_served += result.stats.served_from_cache
        return True

    # -- answer access ---------------------------------------------------
    @property
    def names(self) -> tuple[str, ...]:
        """The measure names the answer is computed over."""
        return self.result().plan.measures

    @property
    def ids(self) -> list[int]:
        """Current answer ids, ``spec.limit`` applied — the same answer
        executing the spec would return."""
        return list(self.result().ids)

    @property
    def graphs(self) -> "list[LabeledGraph]":
        """Current answer graphs, aligned with :attr:`ids`."""
        return [self.database.get(graph_id) for graph_id in self.ids]

    @property
    def names_in_answer(self) -> list[str]:
        """Current answer graph names (``#<id>`` fallback)."""
        return [
            self.database.get(graph_id).name or f"#{graph_id}"
            for graph_id in self.ids
        ]

    def result(self) -> "ResultSet":
        """The :class:`~repro.api.result.ResultSet` of the view's last
        read, refreshed first: its stats say whether that read replayed
        (``stats.replayed_from``) or ran in full."""
        self.refresh()
        assert self._result is not None
        return self._result

    def __len__(self) -> int:
        return len(self.ids)

    def __repr__(self) -> str:
        return (
            f"<LiveView {self.spec.kind} over {self.database.name!r}: "
            f"{len(self)} of {len(self.database)} graphs, "
            f"{self.repairs} repairs>"
        )
