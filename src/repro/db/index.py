"""Feature index: sound lower bounds on GCS dimensions without solving.

For the paper's three measures, cheap per-pair lower bounds exist from
label-multiset features alone (:mod:`repro.graph.features`):

* ``DistEd`` ≥ label-multiset assignment bound;
* ``DistMcs`` / ``DistGu`` ≥ bounds from the edge-label overlap cap on
  ``|mcs|``.

The index stores each graph's features and, per query, produces an
*optimistic* (lower-bound) GCS vector per graph. The executor can then
prune a candidate whose optimistic vector is already Pareto-dominated by
some exactly-evaluated vector — such a candidate can never enter the
skyline, so skipping its exact GED/MCS is sound. The same bounds answer
threshold (range) queries soundly.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.graph.features import (
    GraphFeatures,
    dist_gu_lower_bound,
    dist_mcs_lower_bound,
    edit_distance_lower_bound,
)
from repro.measures.base import DistanceMeasure


def _normalized_edit_bound(f1: GraphFeatures, f2: GraphFeatures) -> float:
    raw = edit_distance_lower_bound(f1, f2)
    return raw / (1.0 + raw)


#: Per-measure lower-bound functions over feature pairs. Measures without
#: an entry get the trivial bound 0 (never pruned incorrectly).
_BOUND_FUNCTIONS = {
    "edit": edit_distance_lower_bound,
    "edit-normalized": _normalized_edit_bound,
    "mcs": dist_mcs_lower_bound,
    "union": dist_gu_lower_bound,
}


def optimistic_vector(
    features: GraphFeatures,
    query_features: GraphFeatures,
    measures: Sequence[DistanceMeasure],
) -> tuple[float, ...]:
    """Componentwise lower bound on ``GCS(graph, query)`` from features.

    Guaranteed ≤ the exact vector on every dimension; dimensions whose
    measure has no known bound contribute 0.
    """
    bounds = []
    for measure in measures:
        bound_function = _BOUND_FUNCTIONS.get(measure.name)
        bounds.append(
            0.0
            if bound_function is None
            else float(bound_function(features, query_features))
        )
    return tuple(bounds)


class FeatureIndex:
    """Maps graph ids to features and computes optimistic GCS vectors."""

    def __init__(self) -> None:
        self._features: dict[int, GraphFeatures] = {}

    @classmethod
    def of(cls, database) -> "FeatureIndex":
        """An index over every entry of ``database``, in database order."""
        index = cls()
        for entry in database.entries():
            index.add(entry.graph_id, entry.features)
        return index

    def add(self, graph_id: int, features: GraphFeatures) -> None:
        """Register (or refresh) the features of ``graph_id``."""
        self._features[graph_id] = features

    def discard(self, graph_id: int) -> None:
        """Remove ``graph_id`` from the index (no-op when absent)."""
        self._features.pop(graph_id, None)

    def __len__(self) -> int:
        return len(self._features)

    def __contains__(self, graph_id: object) -> bool:
        return graph_id in self._features

    def features(self, graph_id: int) -> GraphFeatures:
        """The stored features of ``graph_id``."""
        return self._features[graph_id]

    def ids(self) -> list[int]:
        """All indexed graph ids, in registration (= database) order."""
        return list(self._features)

    def optimistic_vector(
        self,
        graph_id: int,
        query_features: GraphFeatures,
        measures: Sequence[DistanceMeasure],
    ) -> tuple[float, ...]:
        """:func:`optimistic_vector` of the indexed graph ``graph_id``."""
        return optimistic_vector(
            self._features[graph_id], query_features, measures
        )

    def threshold_candidates(
        self,
        query_features: GraphFeatures,
        measure: DistanceMeasure,
        threshold: float,
    ) -> list[int]:
        """Ids whose lower bound under ``measure`` does not exceed ``threshold``.

        A sound candidate set for range queries: every excluded graph
        provably has distance > threshold. Without a bound function for the
        measure, every id is a candidate.
        """
        bound_function = _BOUND_FUNCTIONS.get(measure.name)
        if bound_function is None:
            return list(self._features)
        return [
            graph_id
            for graph_id, features in self._features.items()
            if bound_function(features, query_features) <= threshold
        ]


class VersionedIndex:
    """The :class:`FeatureIndex` of one database, rebuilt on demand.

    Calling the holder returns the index, rebuilt first iff the
    database's mutation version moved since the last build — so a
    backend (or one shard's source) never needs a manual refresh.
    """

    def __init__(self, database) -> None:
        self.database = database
        self.index = FeatureIndex()
        self._version = -1

    def __call__(self) -> FeatureIndex:
        if self._version != self.database.version:
            self.index = FeatureIndex.of(self.database)
            self._version = self.database.version
        return self.index

    def invalidate(self) -> None:
        """Force a rebuild on the next call."""
        self._version = -1
