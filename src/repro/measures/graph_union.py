"""``DistGu`` — the Wallis graph-union distance (Definition 10).

``SimGu(g1, g2) = |mcs| / (|g1| + |g2| - |mcs|)``: the denominator is the
size of the union of the two graphs in the set-theoretic sense, making the
similarity a graph analogue of the Jaccard index. ``DistGu = 1 - SimGu`` is
a metric with values in [0, 1], and ``SimGu <= SimMcs`` always holds
(the paper notes DistGu is the *stronger* measure: unlike DistMcs it
reacts when the smaller graph grows while the mcs stays constant).
"""

from __future__ import annotations

from repro.graph.budget import Budget, Interval
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.mcs import maximum_common_subgraph
from repro.measures.base import DistanceMeasure, PairContext, register_measure


def graph_union_similarity(
    g1: LabeledGraph,
    g2: LabeledGraph,
    context: PairContext | None = None,
) -> float:
    """``SimGu`` of Definition 10 (1 for two empty graphs)."""
    if g1.size == 0 and g2.size == 0:
        return 1.0
    result = context.mcs if context is not None else maximum_common_subgraph(g1, g2)
    union_size = g1.size + g2.size - result.size
    return result.size / union_size


class GraphUnionDistance(DistanceMeasure):
    """``DistGu = 1 - |mcs| / (|g1| + |g2| - |mcs|)`` (Definition 10)."""

    name = "union"
    normalized = True
    is_metric = True

    def distance(
        self,
        g1: LabeledGraph,
        g2: LabeledGraph,
        context: PairContext | None = None,
    ) -> float:
        return 1.0 - graph_union_similarity(g1, g2, context)

    def distance_interval(
        self,
        g1: LabeledGraph,
        g2: LabeledGraph,
        context: PairContext | None = None,
        budget: Budget | None = None,
    ) -> Interval:
        total = g1.size + g2.size
        if total == 0:
            return Interval.exact(0.0)
        result = (
            context.mcs_within(budget)
            if context is not None
            else maximum_common_subgraph(g1, g2, budget=budget)
        )
        size_low, size_high = result.size_interval()
        # 1 - sz/(total - sz) is decreasing in sz: endpoints swap.
        return Interval(
            lower=_at_most(g1, g2, size_high),
            upper=min(1.0, _union_distance(total, size_low)),
        )

    def pair_lower_bound(
        self,
        g1: LabeledGraph,
        g2: LabeledGraph,
        context: PairContext,
    ) -> float:
        if g1.size + g2.size == 0:
            return 0.0
        return _at_most(g1, g2, context.mcs_upper())


def _union_distance(total: int, size: int) -> float:
    """``DistGu`` at ``|mcs| = size``, with ``total = |g1| + |g2|``."""
    union_size = total - size
    return 1.0 - (size / union_size if union_size else 1.0)


def _at_most(g1: LabeledGraph, g2: LabeledGraph, size_high: int) -> float:
    """``DistGu`` where ``|mcs|`` is at most ``size_high``: a lower bound."""
    size_high = min(size_high, g1.size, g2.size)
    return max(0.0, _union_distance(g1.size + g2.size, size_high))


register_measure("union", GraphUnionDistance)
