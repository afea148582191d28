"""``DistMcs`` — the Bunke–Shearer MCS-based distance (Definition 9).

``SimMcs(g1, g2) = |mcs(g1, g2)| / max(|g1|, |g2|)`` and
``DistMcs = 1 - SimMcs``, where ``|g|`` counts edges. Proved to be a metric
on graphs (Bunke & Shearer 1998); values lie in [0, 1]. Two empty graphs
are defined to be at distance 0.
"""

from __future__ import annotations

from repro.graph.budget import Budget, Interval
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.mcs import maximum_common_subgraph
from repro.measures.base import DistanceMeasure, PairContext, register_measure


def mcs_similarity(
    g1: LabeledGraph,
    g2: LabeledGraph,
    context: PairContext | None = None,
) -> float:
    """``SimMcs`` of Definition 9 (1 for two empty graphs)."""
    denominator = max(g1.size, g2.size)
    if denominator == 0:
        return 1.0
    result = context.mcs if context is not None else maximum_common_subgraph(g1, g2)
    return result.size / denominator


class McsDistance(DistanceMeasure):
    """``DistMcs = 1 - |mcs| / max(|g1|, |g2|)`` (Definition 9)."""

    name = "mcs"
    normalized = True
    is_metric = True

    def distance(
        self,
        g1: LabeledGraph,
        g2: LabeledGraph,
        context: PairContext | None = None,
    ) -> float:
        return 1.0 - mcs_similarity(g1, g2, context)

    def distance_interval(
        self,
        g1: LabeledGraph,
        g2: LabeledGraph,
        context: PairContext | None = None,
        budget: Budget | None = None,
    ) -> Interval:
        denominator = max(g1.size, g2.size)
        if denominator == 0:
            return Interval.exact(0.0)
        result = (
            context.mcs_within(budget)
            if context is not None
            else maximum_common_subgraph(g1, g2, budget=budget)
        )
        size_low, size_high = result.size_interval()
        # 1 - sz/denominator is decreasing in sz: the size interval maps
        # to the distance interval with endpoints swapped.
        return Interval(
            lower=_at_most(size_high, denominator),
            upper=min(1.0, 1.0 - size_low / denominator),
        )

    def pair_lower_bound(
        self,
        g1: LabeledGraph,
        g2: LabeledGraph,
        context: PairContext,
    ) -> float:
        denominator = max(g1.size, g2.size)
        if denominator == 0:
            return 0.0
        return _at_most(context.mcs_upper(), denominator)


def _at_most(size_high: int, denominator: int) -> float:
    """``DistMcs`` where ``|mcs|`` is at most ``size_high``: a lower bound."""
    return max(0.0, 1.0 - min(size_high, denominator) / denominator)


register_measure("mcs", McsDistance)
