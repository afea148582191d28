"""Edit-distance measures: ``DistEd`` (Definition 8) and ``DistN-Ed``.

``DistEd`` is the exact minimum-cost edit distance under the paper's
uniform cost model. ``DistN-Ed`` is the normalised variant used by the
diversity refinement of Section VII, obtained through the bounded
increasing map ``f(x) = x / (1 + x)``.
"""

from __future__ import annotations

import math

from repro.graph.budget import Budget, Interval
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.operations import CostModel, UNIFORM_COSTS, UniformCostModel
from repro.measures.base import DistanceMeasure, PairContext, register_measure

#: Normalised caps at or above this are not mapped to a raw cap: there
#: ``1 - cap`` is too small for the relative margin to cover rounding.
_NEAR_ONE = 1.0 - 1e-6


class EditDistance(DistanceMeasure):
    """Exact graph edit distance ``DistEd`` (Definition 8).

    Parameters
    ----------
    costs:
        Cost model; defaults to the paper's uniform model (every insertion,
        deletion, and label change costs 1), under which the distance is a
        metric with integer values.
    """

    name = "edit"
    normalized = False

    def __init__(self, costs: CostModel = UNIFORM_COSTS) -> None:
        self.costs = costs

    @property
    def is_metric(self) -> bool:
        """Only the uniform model with positive prices is known to give a
        metric: weighted or per-label prices can break the triangle
        inequality, and a zero price makes distinct graphs coincide."""
        costs = self.costs
        return (
            isinstance(costs, UniformCostModel)
            and costs.indel_cost > 0.0
            and costs.mismatch_cost > 0.0
        )

    def distance(
        self,
        g1: LabeledGraph,
        g2: LabeledGraph,
        context: PairContext | None = None,
    ) -> float:
        return self.distance_below(g1, g2, context)

    def distance_below(
        self,
        g1: LabeledGraph,
        g2: LabeledGraph,
        context: PairContext | None = None,
        cap: float = math.inf,
        budget: Budget | None = None,
    ) -> float | Interval | None:
        if context is None or context.costs is not self.costs:
            context = PairContext(g1, g2, self.costs)
        # The pair's bracket decides most pairs without a search: a lower
        # side at the cap cuts it, a closed bracket is the exact value.
        bracket = context.ged_bracket()
        if bracket.lower >= cap:
            return None
        if bracket.settled:
            return bracket.upper if budget is None else Interval.exact(bracket.upper)
        result = context.ged_within(budget, cap)
        if result is None:
            return None
        if budget is None:
            return result.distance
        interval = result.interval()
        return interval if interval.lower < cap else None

    def distance_interval(
        self,
        g1: LabeledGraph,
        g2: LabeledGraph,
        context: PairContext | None = None,
        budget: Budget | None = None,
    ) -> Interval:
        # The uncapped verification, in interval form: never None.
        return self.distance_below(g1, g2, context, math.inf, budget or Budget())

    def pair_lower_bound(
        self,
        g1: LabeledGraph,
        g2: LabeledGraph,
        context: PairContext,
    ) -> float:
        # The bracket's lower side (0.0 unless it is a proof). A context
        # priced by another model would solve a bracket nobody reuses.
        if context.costs is not self.costs:
            return 0.0
        return context.ged_bracket().lower


class NormalizedEditDistance(DistanceMeasure):
    """``DistN-Ed = DistEd / (1 + DistEd)`` (Section VII).

    The map ``x / (1 + x)`` is strictly increasing and bounded by 1, so the
    normalised value preserves every comparison made with ``DistEd`` while
    becoming commensurable with the normalized MCS-based measures.
    """

    name = "edit-normalized"
    normalized = True

    def __init__(self, costs: CostModel = UNIFORM_COSTS) -> None:
        self._edit = EditDistance(costs)

    @property
    def is_metric(self) -> bool:
        # f(x) = x/(1+x) is subadditive and increasing: a metric stays one.
        return self._edit.is_metric

    def distance(
        self,
        g1: LabeledGraph,
        g2: LabeledGraph,
        context: PairContext | None = None,
    ) -> float:
        raw = self._edit.distance(g1, g2, context)
        return raw / (1.0 + raw)

    def distance_below(
        self,
        g1: LabeledGraph,
        g2: LabeledGraph,
        context: PairContext | None = None,
        cap: float = math.inf,
        budget: Budget | None = None,
    ) -> float | Interval | None:
        if cap <= 0.0:
            return None  # values are >= 0
        # x / (1 + x) < cap  <=>  x < cap / (1 - cap). The raw cap errs
        # high by a relative 1e-8, far above the rounding of either side,
        # so no pair below ``cap`` is cut; the last word is the
        # normalised comparison itself. Near 1 the cap is not used.
        raw_cap = math.inf
        if cap < _NEAR_ONE:
            raw_cap = cap / (1.0 - cap) * (1.0 + 1e-8)
        raw = self._edit.distance_below(g1, g2, context, raw_cap, budget)
        if raw is None:
            return None
        if budget is None:
            value = raw / (1.0 + raw)
            return value if value < cap else None
        interval = _normalised(raw)
        return interval if interval.lower < cap else None

    def distance_interval(
        self,
        g1: LabeledGraph,
        g2: LabeledGraph,
        context: PairContext | None = None,
        budget: Budget | None = None,
    ) -> Interval:
        return _normalised(self._edit.distance_interval(g1, g2, context, budget))

    def pair_lower_bound(
        self,
        g1: LabeledGraph,
        g2: LabeledGraph,
        context: PairContext,
    ) -> float:
        raw = self._edit.pair_lower_bound(g1, g2, context)
        return raw / (1.0 + raw)


def _normalised(raw: Interval) -> Interval:
    """``x / (1 + x)`` maps interval endpoints directly: it is increasing
    (and its sup over x -> inf is 1, the measure's bound)."""
    return Interval(
        lower=raw.lower / (1.0 + raw.lower),
        upper=1.0 if math.isinf(raw.upper) else raw.upper / (1.0 + raw.upper),
    )


register_measure("edit", EditDistance)
register_measure("edit-normalized", NormalizedEditDistance)
