"""The staged evaluation engine: one candidate loop for every backend.

:func:`run_plan` executes a validated :class:`~repro.api.spec.GraphQuery`
under an :class:`~repro.engine.plan.EvaluationPlan`:

1. the plan's source returns one
   :class:`~repro.engine.plan.CandidateBlock` — candidate ids in
   visiting order, with index lower bounds when it has them;
2. the candidates walk the pruning cascade in windows: the leading
   :class:`~repro.engine.plan.BoundStage` judges a whole window with one
   ``prune_mask`` call, re-judging the rows still alive only after an
   observation changed its state, so every decision equals a
   per-candidate walk's; each survivor then meets the later stages,
   which may prune it (sound: it provably cannot change the answer),
   serve its exact vector (cached pairs), or pass;
3. survivors reach the evaluator — solved immediately (serial) or batched
   onto a process pool and drained after the scan. The serial evaluator
   solves against the leading bound stage's cap, the pool against its
   shared frontier's; a pair cut there is pruned as ``solver-cutoff``
   (an index prune, not an evaluation);
4. every exact vector is fed back to the stages (``observe``), then the
   kind-specific consumer selects the answer.

A source may also seed the run with exact values it already knows
(``RunContext.seeded``): a replayed answer's stored values are recorded
before the walk, exactly like values solved during it.

The engine is the only place counting statistics, so ``memory``,
``indexed`` and ``parallel`` report comparable numbers by construction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.gcs import CompoundSimilarity
from repro.db.database import GraphDatabase
from repro.db.stats import PhaseTimer, QueryStats
from repro.graph.features import GraphFeatures
from repro.measures.base import (
    DistanceMeasure,
    default_measures,
    get_measure,
    measure_names,
    resolve_measures,
)
from repro.api.spec import GraphQuery
from repro.engine.consume import finish_distances, finish_vectors
from repro.engine.deadline import Deadline, current_deadline
from repro.engine.evaluate import SOLVER_CUTOFF, Evaluator, SerialEvaluator
from repro.engine.plan import BoundStage, EvaluationPlan, Stage

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.backends import BackendAnswer
    from repro.db.cache import PairCache

#: Rows a bound stage judges per mask call; the deadline is checked per
#: window and per survivor.
_WINDOW = 256


def resolved_measures(spec: GraphQuery) -> tuple[DistanceMeasure, ...]:
    """The spec's GCS dimensions (paper defaults when unset)."""
    if spec.measures is None:
        return default_measures()
    return resolve_measures(spec.measures)


def single_measure(
    spec: GraphQuery, measures: tuple[DistanceMeasure, ...]
) -> DistanceMeasure:
    """The measure of a topk/threshold query (first dimension default)."""
    if spec.measure is not None:
        return get_measure(spec.measure)
    return measures[0]


@dataclass
class RunContext:
    """Everything one engine run shares with its stages and evaluator.

    ``measures`` is the evaluated dimension tuple — the full GCS vector
    for skyline/skyband, a single-element tuple for topk/threshold — and
    ``names`` its registry names (cache keys). ``measure_specs`` is the
    picklable form shipped to pool workers. ``query_features`` is
    computed lazily so plans without bound stages never pay for it.
    """

    spec: GraphQuery
    database: GraphDatabase
    measures: tuple[DistanceMeasure, ...]
    names: tuple[str, ...]
    measure_specs: tuple[object, ...] | None
    cache: "PairCache | None"
    #: Cooperative cancellation hook (see :mod:`repro.engine.deadline`):
    #: the engine loop and deferring evaluators call ``deadline.check()``
    #: between exact evaluations and stop the run once it has passed.
    deadline: Deadline | None = None
    stats: QueryStats = field(default_factory=QueryStats)
    #: Graph ids a candidate source soundly removed in one batched pass
    #: *before* the cascade (e.g. the vectorized threshold pre-filter).
    #: The engine counts them exactly like cascade prunes.
    prefiltered: list[int] = field(default_factory=list)
    #: Exact values a candidate source already knows for graphs it does
    #: not return (a replayed answer's stored values, see
    #: :class:`~repro.engine.plan.DeltaSource`). The engine records them
    #: before the walk: every stage observes them and the consumer
    #: receives them, but they count as no evaluation and are not
    #: written back to the pair cache.
    seeded: dict[int, tuple[float, ...]] = field(default_factory=dict)
    #: The leading bound stage, handed to an interleaved evaluator: it
    #: solves against the stage's :meth:`~repro.engine.plan.BoundStage.cap`.
    cutoff: BoundStage | None = None
    _query_features: GraphFeatures | None = None

    @property
    def vector_kind(self) -> bool:
        return self.spec.kind in ("skyline", "skyband")

    @property
    def query_features(self) -> GraphFeatures:
        if self._query_features is None:
            self._query_features = GraphFeatures.of(self.spec.graph)
        return self._query_features


def make_context(
    database: GraphDatabase, spec: GraphQuery, cache: "PairCache | None" = None
) -> RunContext:
    """Resolve a validated spec into the run context the engine needs."""
    gcs_measures = resolved_measures(spec)
    if spec.kind in ("skyline", "skyband"):
        measures = gcs_measures
        measure_specs = spec.measures
    else:
        single = single_measure(spec, gcs_measures)
        measures = (single,)
        measure_specs = (spec.measure,) if spec.measure is not None else (single,)
    return RunContext(
        spec=spec,
        database=database,
        measures=measures,
        names=measure_names(measures),
        measure_specs=measure_specs,
        cache=cache,
        deadline=current_deadline(),
        stats=QueryStats(database_size=len(database)),
    )


def run_plan(
    database: GraphDatabase,
    spec: GraphQuery,
    plan: EvaluationPlan,
    cache: "PairCache | None" = None,
) -> "BackendAnswer":
    """Execute ``spec`` over ``database`` under ``plan`` (see module doc)."""
    spec.validate()
    ctx = make_context(database, spec, cache)
    if spec.anytime:
        from repro.engine.anytime import run_plan_anytime

        answer = run_plan_anytime(ctx, plan)
        answer.stage_labels = plan.stage_labels
        return answer
    stats = ctx.stats
    evaluator: Evaluator = plan.evaluator or SerialEvaluator()

    if plan.source.computes_bounds:
        with PhaseTimer(stats, "bounds"):
            candidates = plan.source.candidates(ctx)
    else:
        with PhaseTimer(stats, "source"):
            candidates = plan.source.candidates(ctx)
    stages: list[Stage] = [factory(ctx) for factory in plan.cascade]
    evaluator.begin(ctx)

    exact: dict[int, tuple[float, ...]] = {}
    pruned_ids: list[int] = list(ctx.prefiltered)
    stats.candidates_considered += len(ctx.prefiltered)
    stats.pruned_by_index += len(ctx.prefiltered)
    stats.pruned_by_batch += len(ctx.prefiltered)
    if ctx.prefiltered:
        stats.count_prune("batch-prefilter", len(ctx.prefiltered))

    # The leading bound stage judges whole windows; later stages judge
    # each survivor of its mask.
    masker: BoundStage | None = None
    rest = stages
    if stages and isinstance(stages[0], BoundStage):
        rest = stages[1:]
        if candidates.bounds is not None:
            masker = stages[0]
        if evaluator.interleaved:
            ctx.cutoff = stages[0]
    ids = candidates.ids

    perf = time.perf_counter
    cascade_s = 0.0
    evaluate_s = 0.0

    def record(graph_id: int, values: tuple[float, ...]) -> None:
        nonlocal cascade_s
        exact[graph_id] = values
        begin = perf()
        for stage in stages:
            stage.observe(graph_id, values)
        cascade_s += perf() - begin

    def prune(start: int, end: int, name: str) -> None:
        if end > start:
            stats.pruned_by_index += end - start
            stats.count_prune(name, end - start)
            pruned_ids.extend(ids[start:end])

    def visit(position: int) -> None:
        nonlocal cascade_s, evaluate_s
        candidate = candidates[position]
        verdict: "str | tuple[float, ...] | None" = None
        decided: Stage | None = None
        begin = perf()
        for stage in rest:
            verdict = stage.decide(candidate)
            if verdict is not None:
                decided = stage
                break
        cascade_s += perf() - begin
        if verdict == "prune":
            prune(position, position + 1, getattr(decided, "name", "stage"))
            return
        if isinstance(verdict, tuple):
            stats.served_from_cache += 1
            record(candidate.graph_id, verdict)
            return
        begin = perf()
        values = evaluator.evaluate(ctx, candidate)
        evaluate_s += perf() - begin
        if values == SOLVER_CUTOFF:
            # Out of the answer by the stage's own rule. Its exact value
            # is unknown, so no stage observes it and no value is cached
            # (the evaluator keeps the cap as the pair's floor).
            prune(position, position + 1, SOLVER_CUTOFF)
        elif values is not None:
            stats.exact_evaluations += 1
            record(candidate.graph_id, values)

    for graph_id, values in ctx.seeded.items():
        record(graph_id, values)

    deadline = ctx.deadline
    masked = masker.name if masker is not None else "stage"
    stats.candidates_considered += len(ids)
    try:
        for start in range(0, len(ids), _WINDOW):
            if deadline is not None:
                deadline.check()
            end = min(len(ids), start + _WINDOW)
            alive = list(range(start, end))
            revision = None
            done = start  # every row before ``done`` is decided
            while alive:
                if masker is not None and masker.revision != revision:
                    # (Re-)judge the rows still alive. Pruning is
                    # monotone in feedback, so a pruned row stays pruned.
                    begin = perf()
                    revision = masker.revision
                    mask = masker.prune_mask(candidates.rows(alive))
                    if not isinstance(mask, list):
                        mask = mask.tolist()
                    alive = [row for row, out in zip(alive, mask) if not out]
                    cascade_s += perf() - begin
                    if not alive:
                        break
                position = alive.pop(0)
                prune(done, position, masked)
                if deadline is not None:
                    deadline.check()
                visit(position)
                done = position + 1
            prune(done, end, masked)
        begin = perf()
        drained = list(evaluator.drain(ctx))
        evaluate_s += perf() - begin
        for graph_id, values in drained:
            if values == SOLVER_CUTOFF:
                stats.pruned_by_index += 1
                stats.count_prune(SOLVER_CUTOFF, 1)
                pruned_ids.append(graph_id)
            else:
                stats.exact_evaluations += 1
                record(graph_id, values)
        # A deferring evaluator may prune while draining (shared-frontier
        # checks against exact vectors other workers/shards published);
        # those ids were eliminated without evaluation, exactly like
        # cascade prunes, and the invariants (pruned ∪ evaluated partition
        # the considered candidates) must keep holding.
        deferred_pruned = list(evaluator.drained_pruned_ids())
        if deferred_pruned:
            stats.pruned_by_index += len(deferred_pruned)
            stats.count_prune("shared-frontier", len(deferred_pruned))
            pruned_ids.extend(deferred_pruned)
    finally:
        stats.phase_seconds["cascade"] = (
            stats.phase_seconds.get("cascade", 0.0) + cascade_s
        )
        stats.phase_seconds["evaluate"] = (
            stats.phase_seconds.get("evaluate", 0.0) + evaluate_s
        )

    if ctx.vector_kind:
        vectors = {
            graph_id: CompoundSimilarity(values=values, measures=ctx.names)
            for graph_id, values in exact.items()
        }
        answer = finish_vectors(spec, vectors, stats, pruned_ids)
    else:
        distances = {graph_id: values[0] for graph_id, values in exact.items()}
        answer = finish_distances(spec, distances, stats, pruned_ids)
    answer.stage_labels = plan.stage_labels
    return answer
