"""Distance-measure abstraction for graph compound similarity.

The paper's GCS (Definition 11) is a vector of *local distance measures*.
Here a measure is an object with a ``distance(g1, g2)`` method returning a
non-negative float (smaller = more similar). Measures advertise whether
they are normalized to [0, 1] and whether they are metrics.

Because several measures share expensive sub-computations (both ``DistMcs``
and ``DistGu`` need the maximum common subgraph), measures accept an
optional :class:`PairContext` that lazily computes and memoises the MCS and
the exact GED for one graph pair. The database executor builds one context
per pair so nothing is solved twice.

A small registry maps measure names to factories so queries can be
specified with plain strings (``measures=("edit", "mcs", "union")``).
"""

from __future__ import annotations

import abc
import dataclasses
import math
from collections.abc import Callable, Iterable, Sequence

from repro.errors import QueryError
from repro.graph.budget import Budget, Interval
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.ged import GedResult, graph_edit_distance
from repro.graph.ged_approx import GedBracket, ged_bracket
from repro.graph.mcs import McsResult, maximum_common_subgraph, mcs_edge_bound
from repro.graph.operations import CostModel, UNIFORM_COSTS
from repro.graph.pairview import CostTables, PairView


class PairContext:
    """Lazy, memoised sub-computations for one ordered graph pair.

    Besides the exact memos (``mcs``/``ged``), the context keeps the best
    *partial* result of budgeted runs so progressive refinement resumes
    from the tightest certificate seen instead of starting over: a GED
    re-run starts from the previous incumbent as its upper bound, an MCS
    re-run seeds its pruning incumbent with the previous realised size,
    and results are merged monotonically (bounds only ever tighten).

    The GED bracket (:meth:`ged_bracket`) is solved once too: its
    assignment is every seeded GED run's starting mapping. So is the
    |mcs| bound (:meth:`mcs_upper`): every MCS run stops at it.

    Every solver run of the pair — GED, its bipartite seed, MCS, and each
    refinement re-run — works on one :class:`~repro.graph.pairview.PairView`,
    made on first use. The view only pairs the two graphs' integer-indexed
    sides, which :func:`~repro.graph.pairview.graph_side` caches per graph
    version: a query's side is built once for all its candidates, and a
    database graph's once for all the queries that reach it.
    """

    def __init__(
        self,
        g1: LabeledGraph,
        g2: LabeledGraph,
        costs: CostModel = UNIFORM_COSTS,
    ) -> None:
        self.g1 = g1
        self.g2 = g2
        self.costs = costs
        self._mcs: McsResult | None = None
        self._ged: GedResult | None = None
        self._mcs_partial: McsResult | None = None
        self._ged_partial: GedResult | None = None
        self._bracket: GedBracket | None = None
        self._mcs_bound: int | None = None
        self._view: PairView | None = None

    @property
    def view(self) -> PairView:
        """The pair's integer-indexed solver view (built once)."""
        if self._view is None:
            self._view = PairView(self.g1, self.g2)
        return self._view

    @property
    def mcs(self) -> McsResult:
        """Maximum common connected subgraph (computed once)."""
        if self._mcs is None:
            self._mcs = maximum_common_subgraph(
                self.g1, self.g2, _view=self.view, _upper=self.mcs_upper()
            )
        return self._mcs

    def mcs_upper(self) -> int:
        """Certified upper bound on ``|mcs|``: the exact size once known,
        else :func:`~repro.graph.mcs.mcs_edge_bound` (computed once)."""
        if self._mcs is not None:
            return self._mcs.size
        if self._mcs_bound is None:
            self._mcs_bound = mcs_edge_bound(self.view)
        return self._mcs_bound

    def ged_bracket(self) -> GedBracket:
        """Certified ``[lower, upper]`` around the exact GED from one
        bipartite assignment (solved once; see
        :class:`~repro.graph.ged_approx.GedBracket`)."""
        if self._bracket is None:
            self._bracket = ged_bracket(
                self.view, CostTables(self.view, self.costs), self.costs
            )
        return self._bracket

    @property
    def ged(self) -> GedResult:
        """Exact graph edit distance (computed once)."""
        return self.ged_within()

    def ged_within(
        self, budget: Budget | None = None, cap: float = math.inf
    ) -> GedResult | None:
        """Best GED certificate obtainable in ``budget``, solved against ``cap``.

        ``None`` proves the distance is at least ``cap``: a search ran to
        completion with no mapping below ``cap + 1e-9`` (so float sums
        that round above an equal-cost mapping cannot hide it), or the
        memoised exact value reaches it. Otherwise the result brackets
        the exact distance; an optimal one is the memo. A finite cap is
        the search's incumbent, with no seed. A truncated result is kept
        and the next call resumes from the tighter of ``cap`` and its
        realised incumbent. One that found nothing below the cap has
        ``min(frontier bound, cap)`` as its lower side and the realised
        seed (bipartite estimate, or full rewrite) as its upper side.
        """
        if self._ged is None:
            if budget is not None and budget.unlimited:
                budget = None
            prev = self._ged_partial
            capped = prev is None or cap + 1e-9 < prev.distance
            upper = None  # seeded from the bracket: the first uncapped run
            if not capped:
                upper = prev.distance
            elif cap < math.inf:
                upper = cap + 1e-9
            seed = self.ged_bracket() if upper is None else None
            run = graph_edit_distance(
                self.g1, self.g2, self.costs, upper, budget=budget,
                _view=self.view, _bracket=seed,
            )
            if capped and not run.found:  # nothing below the cap
                if run.optimal:
                    return None
                run = dataclasses.replace(run, lower_bound=min(run.lower_bound, cap))
                if prev is None:  # no expansion: just the realised seed
                    prev = graph_edit_distance(
                        self.g1, self.g2, self.costs, node_limit=0,
                        _view=self.view, _bracket=self.ged_bracket(),
                    )
            result = run if prev is None else _merge_ged(prev, run)
            if not result.optimal:
                self._ged_partial = result
                return result
            self._ged = result
        return self._ged if self._ged.distance < cap else None

    def mcs_within(self, budget: Budget | None) -> McsResult:
        """Best (possibly partial) MCS certificate obtainable in ``budget``."""
        if budget is None or budget.unlimited:
            return self.mcs
        if self._mcs is not None:
            return self._mcs
        prev = self._mcs_partial
        result = maximum_common_subgraph(
            self.g1,
            self.g2,
            budget=budget,
            initial_best_edges=None if prev is None else prev.size,
            _view=self.view,
            _upper=self.mcs_upper(),
        )
        if prev is not None:
            result = _merge_mcs(prev, result)
        if result.optimal:
            self._mcs = result
        else:
            self._mcs_partial = result
        return result


def _merge_ged(prev: GedResult, new: GedResult) -> GedResult:
    """Monotone merge of two GED certificates for the same pair."""
    lower = max(prev.lower_bound or 0.0, new.lower_bound or 0.0)
    if new.found and (not prev.found or new.distance < prev.distance):
        distance, mapping, found = new.distance, new.mapping, True
    else:
        distance, mapping, found = prev.distance, prev.mapping, prev.found
    return GedResult(
        distance=distance,
        mapping=dict(mapping),
        optimal=new.optimal,
        expanded_nodes=prev.expanded_nodes + new.expanded_nodes,
        lower_bound=min(lower, distance),
        found=found,
    )


def _merge_mcs(prev: McsResult, new: McsResult) -> McsResult:
    """Monotone merge of two MCS certificates for the same pair."""
    if new.size > prev.size:
        mapping, matched = new.mapping, new.matched_edges
    else:
        mapping, matched = prev.mapping, prev.matched_edges
    size = len(matched)
    upper = max(size, min(prev.edge_bound, new.edge_bound))
    optimal = new.optimal or upper <= size
    return McsResult(
        mapping=dict(mapping),
        matched_edges=frozenset(matched),
        optimal=optimal,
        size_upper=None if optimal else upper,
    )


class DistanceMeasure(abc.ABC):
    """A local graph distance measure (one GCS dimension).

    Attributes
    ----------
    name:
        Registry key and display name.
    normalized:
        Whether values are guaranteed to lie in ``[0, 1]``.
    is_metric:
        Whether the measure satisfies the metric axioms (the paper cites
        proofs for ``DistMcs`` and ``DistGu``; the uniform-cost edit
        distance is a metric as well).
    """

    name: str = "abstract"
    normalized: bool = False
    is_metric: bool = False

    @abc.abstractmethod
    def distance(
        self,
        g1: LabeledGraph,
        g2: LabeledGraph,
        context: PairContext | None = None,
    ) -> float:
        """Distance between ``g1`` and ``g2`` (smaller = more similar)."""

    def distance_interval(
        self,
        g1: LabeledGraph,
        g2: LabeledGraph,
        context: PairContext | None = None,
        budget: Budget | None = None,
    ) -> Interval:
        """Certified ``[lower, upper]`` interval obtainable within ``budget``.

        The exact distance is guaranteed to lie in the returned interval;
        a settled interval (``lower == upper``) pins it. The default runs
        the exact ``distance`` to completion and returns the degenerate
        interval — measures built on budgetable searches override this to
        honor the budget and return genuine partial certificates.
        """
        return Interval.exact(self.distance(g1, g2, context))

    def distance_below(
        self,
        g1: LabeledGraph,
        g2: LabeledGraph,
        context: PairContext | None = None,
        cap: float = math.inf,
        budget: Budget | None = None,
    ) -> float | Interval | None:
        """The exact distance if it is below ``cap``, else ``None``.

        The verification form of :meth:`distance`: a search that knows
        the cutoff may stop once it proves the value is at least ``cap``.
        With a ``budget`` it is the verification form of
        :meth:`distance_interval` instead: the certified interval, or
        ``None`` once its lower side reaches ``cap``. The default
        computes the value and compares; measures built on a bounded
        search override this.
        """
        if budget is None:
            value = self.distance(g1, g2, context)
            return value if value < cap else None
        interval = self.distance_interval(g1, g2, context, budget)
        return interval if interval.lower < cap else None

    def pair_lower_bound(
        self,
        g1: LabeledGraph,
        g2: LabeledGraph,
        context: PairContext,
    ) -> float:
        """A certified lower bound on the distance that costs no search.

        Asked before any dimension of a pair is solved, so that a pair
        whose bounds already put it out of the answer is cut for free.
        The default proves nothing; measures with a search-free bound
        in ``context`` override this.
        """
        return 0.0

    def __call__(
        self,
        g1: LabeledGraph,
        g2: LabeledGraph,
        context: PairContext | None = None,
    ) -> float:
        return self.distance(g1, g2, context)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


_REGISTRY: dict[str, Callable[[], DistanceMeasure]] = {}


def register_measure(name: str, factory: Callable[[], DistanceMeasure]) -> None:
    """Register a measure factory under ``name`` (overwrites silently)."""
    _REGISTRY[name] = factory


def available_measures() -> list[str]:
    """Names of every registered measure."""
    return sorted(_REGISTRY)


def get_measure(spec: "str | DistanceMeasure") -> DistanceMeasure:
    """Resolve a measure instance from a name or pass an instance through."""
    if isinstance(spec, DistanceMeasure):
        return spec
    try:
        factory = _REGISTRY[spec]
    except KeyError:
        raise QueryError(
            f"unknown measure {spec!r}; available: {', '.join(available_measures())}"
        ) from None
    return factory()


def resolve_measures(
    specs: Iterable["str | DistanceMeasure"],
) -> tuple[DistanceMeasure, ...]:
    """Resolve a sequence of measure specs, rejecting the empty vector."""
    measures = tuple(get_measure(spec) for spec in specs)
    if not measures:
        raise QueryError("a compound similarity needs at least one measure")
    return measures


def default_measures() -> tuple[DistanceMeasure, ...]:
    """The paper's d = 3 instantiation: (DistEd, DistMcs, DistGu)."""
    return resolve_measures(("edit", "mcs", "union"))


def diversity_measures() -> tuple[DistanceMeasure, ...]:
    """Section VII's diversity dimensions: (DistN-Ed, DistMcs, DistGu)."""
    return resolve_measures(("edit-normalized", "mcs", "union"))


class FunctionMeasure(DistanceMeasure):
    """Adapter turning a plain ``f(g1, g2) -> float`` into a measure."""

    def __init__(
        self,
        function: Callable[[LabeledGraph, LabeledGraph], float],
        name: str,
        normalized: bool = False,
        is_metric: bool = False,
    ) -> None:
        self._function = function
        self.name = name
        self.normalized = normalized
        self.is_metric = is_metric

    def distance(
        self,
        g1: LabeledGraph,
        g2: LabeledGraph,
        context: PairContext | None = None,
    ) -> float:
        return float(self._function(g1, g2))


def measure_names(measures: Sequence[DistanceMeasure]) -> tuple[str, ...]:
    """Display names of a measure vector (used by reports and results)."""
    return tuple(measure.name for measure in measures)
