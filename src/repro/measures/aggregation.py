"""Scalarization baselines: collapsing a GCS vector into one number.

The classical alternative to the paper's Pareto semantics is to *weight*
the local measures into a single score and rank by it. These adapters
make that family of baselines first-class measures so they can be
compared against the skyline: a weighted sum can only
ever return points on (or near) the convex hull of the skyline, silently
discarding non-convex Pareto optima — the concrete argument for
similarity *skylines* over similarity *scores*.

* :class:`WeightedSumMeasure` — ``sum(w_i * Dist_i)``;
* :class:`ChebyshevMeasure` — ``max(w_i * Dist_i)`` (reaches non-convex
  optima, but needs the right weights per query).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.errors import QueryError
from repro.graph.labeled_graph import LabeledGraph
from repro.measures.base import (
    DistanceMeasure,
    PairContext,
    measure_names,
    resolve_measures,
)


class _AggregatedMeasure(DistanceMeasure):
    """Shared plumbing for scalarized measure vectors."""

    normalized = False
    is_metric = False  # depends on components; conservatively False

    def __init__(
        self,
        measures: Iterable["str | DistanceMeasure"],
        weights: Sequence[float] | None = None,
    ) -> None:
        self.measures = resolve_measures(measures)
        if weights is None:
            weights = [1.0] * len(self.measures)
        if len(weights) != len(self.measures):
            raise QueryError(
                f"{len(self.measures)} measures need {len(self.measures)} "
                f"weights, got {len(weights)}"
            )
        if any(weight < 0 for weight in weights):
            raise QueryError("weights must be non-negative")
        if sum(weights) == 0:
            raise QueryError("at least one weight must be positive")
        self.weights = tuple(float(weight) for weight in weights)
        components = "+".join(measure_names(self.measures))
        self.name = f"{self._kind}({components})"

    _kind = "aggregate"

    def _component_values(
        self,
        g1: LabeledGraph,
        g2: LabeledGraph,
        context: PairContext | None,
    ) -> list[float]:
        if context is None:
            context = PairContext(g1, g2)
        return [measure.distance(g1, g2, context) for measure in self.measures]


class WeightedSumMeasure(_AggregatedMeasure):
    """``sum(w_i * Dist_i(g1, g2))`` — the classic linear scalarization."""

    _kind = "wsum"

    def distance(
        self,
        g1: LabeledGraph,
        g2: LabeledGraph,
        context: PairContext | None = None,
    ) -> float:
        values = self._component_values(g1, g2, context)
        return sum(w * v for w, v in zip(self.weights, values))


class ChebyshevMeasure(_AggregatedMeasure):
    """``max(w_i * Dist_i(g1, g2))`` — the weighted Chebyshev norm."""

    _kind = "chebyshev"

    def distance(
        self,
        g1: LabeledGraph,
        g2: LabeledGraph,
        context: PairContext | None = None,
    ) -> float:
        values = self._component_values(g1, g2, context)
        return max(w * v for w, v in zip(self.weights, values))


def weighted_sum_ranking_is_skyline_subset(
    graphs: Sequence[LabeledGraph],
    query: LabeledGraph,
    measures: Iterable["str | DistanceMeasure"],
    weights: Sequence[float],
) -> bool:
    """Check that every strictly-positive-weight scalarization minimiser
    is a skyline member (a textbook fact; used by the tests)."""
    from repro.core.gss import graph_similarity_skyline
    from repro.core.topk import top_k_by_measure

    if any(weight <= 0 for weight in weights):
        raise QueryError("this check needs strictly positive weights")
    aggregated = WeightedSumMeasure(measures, weights)
    best = top_k_by_measure(graphs, query, aggregated, 1)
    skyline = graph_similarity_skyline(graphs, query, measures=measures)
    best_graph = graphs[best.indices[0]]
    # the minimiser could tie with a dominated copy; membership of *some*
    # graph with the same score vector is what the theorem guarantees
    best_vector = skyline.vectors[best.indices[0]].values
    return any(
        skyline.vectors[index].values == best_vector
        for index in skyline.skyline_indices
    )
