"""Incrementally-maintained feature store bound to one ``GraphDatabase``.

:class:`FeatureStore` keeps a :class:`~repro.index.matrix.SignatureMatrix`
in sync with a database through its ``GraphDatabase.version`` dirty
flag: :meth:`sync` diffs the live id set against the matrix rows and
applies **row-level invalidation**: removed ids drop their row in O(row),
new ids append one row, untouched graphs are never re-featurized. Graph
ids are never reused and stored features are frozen at insert, so the id
diff is exactly the set of stale rows.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.db.database import GraphDatabase
from repro.graph.features import GraphFeatures
from repro.index.kernels import bound_matrix
from repro.index.matrix import QuerySignature, SignatureMatrix
from repro.measures.base import DistanceMeasure


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
        for graph_id in sorted(live - known):
            self.matrix.add(graph_id, self.database.entry(graph_id).features)
            self.rows_added += 1
        self._version = self.database.version
        self.syncs += 1
        return self.matrix

    # ------------------------------------------------------------------
    # Batched bound evaluation
    # ------------------------------------------------------------------
    def pack_query(self, query_features: GraphFeatures) -> QuerySignature:
        return self.sync().pack_query(query_features)

    def bounds(
        self,
        query_features: GraphFeatures,
        measures: Sequence[DistanceMeasure],
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(ids, B)``: ``B[i, j]`` bounds ``measures[j]`` on graph ``ids[i]``.

        One batched kernel call per measure — the whole database's
        optimistic vectors without a per-graph Python loop.
        """
        matrix = self.sync()
        query = matrix.pack_query(query_features)
        return matrix.ids, bound_matrix(matrix, query, measures)

    def __repr__(self) -> str:
        return (
            f"<FeatureStore over {self.database.name!r}: {len(self.matrix)} rows, "
            f"+{self.rows_added}/-{self.rows_dropped} across {self.syncs} syncs>"
        )
