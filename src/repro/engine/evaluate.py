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
  up to the floor without a search. The anytime driver
  (:mod:`repro.engine.anytime`) applies the same rule under a budget; or
* deferred (``PooledEvaluator``) — candidates accumulate and are solved
  in chunks on the **persistent worker pool**
  (:mod:`repro.engine.workers`): long-lived processes holding
  shared-memory database attachments, drained in bound-ordered waves
  with a shared best-so-far frontier, so deferral no longer forfeits
  bound-stage pruning. Pooled solves run against the frontier's cap
  (``FrontierCutoff``), and the drain reports a cut pair as
  :data:`SOLVER_CUTOFF`.

A deferring evaluator may also *prune* while draining (frontier checks
against exact vectors published by other workers/shards);
:meth:`Evaluator.drained_pruned_ids` reports those ids so the engine
counts them exactly like cascade prunes.

The pool machinery lives in :mod:`repro.engine.workers`; its public
names (``PooledEvaluator``, ``shared_pool``, ``shutdown_pool``, …) are
re-exported here lazily (module ``__getattr__``) for backward
compatibility without an import cycle — :mod:`repro.engine.workers`
imports this module's :class:`Evaluator` and :func:`pair_values` at the
top level, this module never imports it until one of those names is
actually touched.
"""

from __future__ import annotations

import abc
import math
from typing import TYPE_CHECKING

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


class Evaluator(abc.ABC):
    """Solves cascade survivors exactly; see the module docstring."""

    #: Whether :meth:`evaluate` returns values immediately (stage feedback).
    interleaved: bool = True

    def begin(self, ctx: "RunContext") -> None:
        """Reset per-run state (called once before the candidate scan)."""

    @abc.abstractmethod
    def evaluate(
        self, ctx: "RunContext", candidate: "Candidate"
    ) -> tuple[float, ...] | str | None:
        """Solve (or enqueue) one candidate; ``None`` means deferred,
        :data:`SOLVER_CUTOFF` that the solve was cut at the cap of
        ``ctx.cutoff`` (the candidate is out of the answer)."""

    def drain(
        self, ctx: "RunContext"
    ) -> list[tuple[int, tuple[float, ...] | str]]:
        """Deferred results, in ascending id order (empty when interleaved);
        a value of :data:`SOLVER_CUTOFF` marks a solve cut at a cap."""
        return []

    def drained_pruned_ids(self) -> "list[int] | tuple[int, ...]":
        """Ids the last :meth:`drain` soundly pruned instead of solving.

        The engine counts them as index prunes (they were eliminated by
        exact vectors of other graphs, never evaluated). Interleaved
        evaluators never prune, hence the empty default.
        """
        return ()


class SerialEvaluator(Evaluator):
    """Solve each pair in the scanning thread, immediately, against the
    run's cutoff stage. With a pair cache, a cut pair's cap is kept as
    its floor, and a floor already at the cap cuts without a search."""

    interleaved = True

    def evaluate(self, ctx, candidate):
        return solve_pair(ctx, candidate.graph_id, bounds=candidate.bounds)


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


#: Names living in :mod:`repro.engine.workers`, importable from here for
#: backward compatibility (tests and backends predate the split).
_WORKER_NAMES = (
    "PooledEvaluator",
    "PersistentPoolEvaluator",
    "WorkerPool",
    "WorkerPoolError",
    "BoundSharing",
    "get_pool",
    "shared_pool",
    "shutdown_pool",
    "live_segments",
)


def __getattr__(name: str):
    if name in _WORKER_NAMES:
        from repro.engine import workers

        return getattr(workers, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(list(globals()) + list(_WORKER_NAMES))
