"""Exact evaluators: the batched solving step of the staged engine.

Everything upstream of this module avoids work; this module does the
work. An :class:`Evaluator` receives the candidates that survived the
pruning cascade and produces their exact measure vectors, either

* immediately (:class:`SerialEvaluator`) — each vector is returned to the
  engine loop right away, which is what lets feedback-driven stages
  (Pareto pruning, the top-k cutoff) tighten as the scan progresses. It
  also solves against the leading bound stage's live cutoff
  (:func:`solve_pair`): a pair whose exact value would reach the cutoff
  comes back :data:`SOLVER_CUTOFF` after a bounded search, and the
  engine prunes it. The cap it reached is kept in the run's pair cache
  as the pair's floor, so a later run over that cache cuts it at any cap
  up to the floor without a search. It solves under the run's budget
  (``ctx.deadline``): a hard deadline that expires inside a pair raises
  :class:`~repro.errors.DeadlineExceeded` at once. Anytime runs
  (:mod:`repro.engine.anytime`) apply the same rule under slices of
  their budget and keep open pairs instead; or
* deferred (``PooledEvaluator``) — candidates accumulate and are solved
  in chunks on the **persistent worker pool**
  (:mod:`repro.engine.workers`) after the scan. Only the exhaustive
  ``parallel`` preset defers: a pruning plan needs each exact vector
  before its next pair, so it never pools.

The pool machinery (``PooledEvaluator``, ``get_pool``,
``shutdown_pool``, …) lives in :mod:`repro.engine.workers`, which
imports this module's :class:`Evaluator` and :func:`pair_values`.
"""

from __future__ import annotations

import abc
import math
from typing import TYPE_CHECKING

from repro.errors import DeadlineExceeded
from repro.graph.budget import Budget
from repro.graph.labeled_graph import LabeledGraph
from repro.measures.base import DistanceMeasure, PairContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.core import RunContext
    from repro.engine.plan import BoundStage, Candidate


#: What a serial evaluator returns for a pair it cut at the stage's cap;
#: the engine books it as a prune under this stage name.
SOLVER_CUTOFF = "solver-cutoff"


def _bounded_dimension(measures: tuple[DistanceMeasure, ...]) -> int | None:
    """The first dimension whose measure solves against a cutoff."""
    for dim, measure in enumerate(measures):
        if type(measure).distance_below is not DistanceMeasure.distance_below:
            return dim
    return None


def pair_values(
    graph: LabeledGraph,
    query: LabeledGraph,
    measures: tuple[DistanceMeasure, ...],
    stage: "BoundStage | None" = None,
    floor: float = -math.inf,
    budget: Budget | None = None,
    context: PairContext | None = None,
    bounds: tuple[float, ...] | None = None,
) -> tuple | float:
    """Measure vector of one (graph, query) pair (shared ``context``).

    With a ``stage``, the first measure that overrides
    :meth:`~repro.measures.base.DistanceMeasure.distance_below` is solved
    last, against the stage's :meth:`~repro.engine.plan.BoundStage.cap`
    given the other dimensions. A pair whose value reaches the cap is out
    of the answer: the result is then that cap (a float, not a vector),
    which proves the value is at least that much. ``floor`` is such a
    proof from an earlier solve; a cap at or below it cuts the pair
    without a search.

    With a ``budget`` the vector holds certified intervals, and the other
    dimensions' lower bounds stand in for their exact values in the cap:
    an exact vector no worse than them is no worse than the exact values
    (and strictly better where strictly below a lower bound).

    Before any dimension is solved, the cap is asked once with every
    other dimension at its search-free lower bound
    (:meth:`~repro.measures.base.DistanceMeasure.pair_lower_bound`, or
    the candidate's optimistic ``bounds`` where higher). Lowering values
    outside ``dim`` never lowers a cap, so a pair whose ``floor`` or own
    lower bound already reaches that cap is cut with nothing solved.
    """
    if context is None:
        context = PairContext(graph, query)

    def solve(measure: DistanceMeasure):
        if budget is None:
            return measure.distance(graph, query, context)
        return measure.distance_interval(graph, query, context, budget)

    dim = None if stage is None else _bounded_dimension(measures)
    if dim is None:
        return tuple(solve(measure) for measure in measures)
    if len(measures) > 1:
        cap = stage.cap(
            _lower_bounds(graph, query, measures, dim, context, bounds), dim
        )
        if cap is not None and (
            floor >= cap
            or measures[dim].pair_lower_bound(graph, query, context) >= cap
        ):
            return cap
    values = [
        math.nan if index == dim else solve(measure)
        for index, measure in enumerate(measures)
    ]
    known = values
    if budget is not None:  # interval lower bounds; values[dim] is NaN
        known = [math.nan if i == dim else v.lower for i, v in enumerate(values)]
    cap = stage.cap(known, dim)
    if cap is None:
        values[dim] = solve(measures[dim])
        return tuple(values)
    if floor >= cap:
        return cap
    value = measures[dim].distance_below(graph, query, context, cap, budget)
    if value is None:
        return cap
    values[dim] = value
    return tuple(values)


def _lower_bounds(
    graph: LabeledGraph,
    query: LabeledGraph,
    measures: tuple[DistanceMeasure, ...],
    dim: int,
    context: PairContext,
    bounds: tuple[float, ...] | None,
) -> list[float]:
    """Search-free lower bounds of every dimension but ``dim`` (NaN): the
    higher of the measure's pair bound and the candidate's own."""
    lower = []
    for index, measure in enumerate(measures):
        if index == dim:
            lower.append(math.nan)
            continue
        value = measure.pair_lower_bound(graph, query, context)
        if bounds is not None and index < len(bounds) and bounds[index] > value:
            value = bounds[index]
        lower.append(value)
    return lower


def solve_pair(
    ctx: "RunContext",
    graph_id: int,
    budget: Budget | None = None,
    context: PairContext | None = None,
    bounds: tuple[float, ...] | None = None,
) -> tuple | str:
    """:func:`pair_values` of one candidate against ``ctx.cutoff``: the
    vector, or :data:`SOLVER_CUTOFF` with the cap kept as the pair's
    floor in the pair cache. The per-pair rule of serial and anytime
    (``budget``) evaluation alike.

    The floor is the higher of the cached one and the candidate's
    optimistic ``bounds`` on the bounded dimension: once the other
    dimensions are exact the cap can drop to that bound, and the pair is
    then cut without a solve."""
    key = _floor_key(ctx, graph_id)
    floor = -math.inf if key is None else ctx.cache.floor(*key)
    if bounds is not None and ctx.cutoff is not None:
        dim = _bounded_dimension(ctx.measures)
        if dim is not None and dim < len(bounds) and bounds[dim] > floor:
            floor = bounds[dim]
    graph = ctx.database.get(graph_id)
    values = pair_values(
        graph, ctx.spec.graph, ctx.measures, ctx.cutoff, floor, budget, context,
        bounds,
    )
    if isinstance(values, tuple):
        return values
    if key is not None:
        ctx.cache.raise_floor(*key, values)
    return SOLVER_CUTOFF


def settled(values: tuple) -> tuple[float, ...] | None:
    """A budgeted solve's interval vector as exact values, or ``None``
    while the budget left any dimension open."""
    if all(interval.settled for interval in values):
        return tuple(interval.upper for interval in values)
    return None


def exact_values(values: tuple) -> tuple[float, ...]:
    """:func:`settled` under a hard deadline: an open dimension means the
    deadline expired inside the pair, so the run is cancelled."""
    exact = settled(values)
    if exact is None:
        raise DeadlineExceeded(
            "query deadline exceeded inside a pair; evaluation cancelled"
        )
    return exact


class Evaluator(abc.ABC):
    """Solves cascade survivors exactly; see the module docstring."""

    #: Whether :meth:`evaluate` returns values immediately (stage feedback).
    interleaved: bool = True

    def begin(self, ctx: "RunContext", total: int) -> None:
        """Reset per-run state (called once before the candidate scan of
        ``total`` candidates)."""

    @abc.abstractmethod
    def evaluate(
        self, ctx: "RunContext", candidate: "Candidate"
    ) -> tuple[float, ...] | str | None:
        """Solve (or enqueue) one candidate; ``None`` means deferred,
        :data:`SOLVER_CUTOFF` that the solve was cut at the cap of
        ``ctx.cutoff`` (the candidate is out of the answer)."""

    def drain(
        self, ctx: "RunContext"
    ) -> list[tuple[int, tuple[float, ...]]]:
        """Deferred results, in ascending id order (empty when
        interleaved)."""
        return []


class SerialEvaluator(Evaluator):
    """Solve each pair in the scanning thread, immediately, against the
    run's cutoff stage and under its deadline. With a pair cache, a cut
    pair's cap is kept as its floor, and a floor already at the cap cuts
    without a search."""

    interleaved = True

    def evaluate(self, ctx, candidate):
        budget = ctx.deadline
        values = solve_pair(ctx, candidate.graph_id, budget, bounds=candidate.bounds)
        if budget is None or values == SOLVER_CUTOFF:
            return values
        return exact_values(values)


def _floor_key(ctx: "RunContext", graph_id: int) -> tuple | None:
    """The pair cache key of the bounded dimension's floor (``None``
    without a cache or a cutoff stage)."""
    if ctx.cache is None or ctx.cutoff is None:
        return None
    dim = _bounded_dimension(ctx.measures)
    if dim is None:
        return None
    cache = ctx.cache
    return (
        cache.subject_key(ctx.database.entry(graph_id)),
        cache.query_hash(ctx.spec.graph),
        ctx.names[dim],
    )
