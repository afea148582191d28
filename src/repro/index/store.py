"""Incrementally-maintained feature store bound to one ``GraphDatabase``.

:class:`FeatureStore` keeps a :class:`~repro.index.matrix.SignatureMatrix`
in sync with a database through its ``GraphDatabase.version`` dirty
flag: :meth:`sync` diffs the live id set against the matrix rows and
applies **row-level invalidation**: removed ids drop their row in O(row),
new ids are written in one bulk :meth:`SignatureMatrix.add_many` (one
array assignment per block, from the stored features; each new graph's
edge types are walked once, when a kernel first reads them), untouched
graphs are never touched again. Graph ids are never reused and stored
graphs and features are frozen at insert, so the id diff is exactly the
set of stale rows.
"""

from __future__ import annotations

from repro.db.database import GraphDatabase
from repro.index.matrix import SignatureMatrix


class FeatureStore:
    """Array-backed feature index that follows database mutation."""

    def __init__(self, database: GraphDatabase) -> None:
        self.database = database
        self.matrix = SignatureMatrix()
        self._version: int | None = None
        #: Maintenance counters (observability; asserted by tests).
        self.rows_added = 0
        self.rows_dropped = 0
        self.syncs = 0

    def sync(self) -> SignatureMatrix:
        """Bring the matrix up to date with the database (row-level diff)."""
        if self._version == self.database.version:
            return self.matrix
        live = set(self.database.ids())
        known = set(self.matrix.row_of)
        for graph_id in known - live:
            self.matrix.discard(graph_id)
            self.rows_dropped += 1
        added = sorted(live - known)
        self.matrix.add_many(
            (entry.graph_id, entry.graph, entry.features)
            for entry in map(self.database.entry, added)
        )
        self.rows_added += len(added)
        self._version = self.database.version
        self.syncs += 1
        return self.matrix

    def __repr__(self) -> str:
        return (
            f"<FeatureStore over {self.database.name!r}: {len(self.matrix)} rows, "
            f"+{self.rows_added}/-{self.rows_dropped} across {self.syncs} syncs>"
        )
