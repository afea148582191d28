"""Scatter-gather execution over a sharded store.

The distributed-skyline/top-k decomposition the paper's bound-based
pruning supports natively: bounds are *shard-local* facts (a lower bound
on ``d(q, g)`` does not care where ``g`` lives), so the pruning cascade
fans out per shard without losing soundness, and only the cheap
selection step needs a gather phase. Three parts live here:

* :class:`ShardedSource` — the scatter counterpart of
  :class:`~repro.index.IndexedSource`: one candidate sub-source per
  shard, each over a **shard-local index** (a
  :class:`~repro.index.store.FeatureStore` and its SignatureMatrix)
  maintained off the shard's own ``version`` counter — a mutation on
  one shard never invalidates another shard's index rows.
* merge consumers — :class:`SkylineMerge` (local skyline/skyband per
  shard, then one global dominance pass over the union) and
  :class:`FrontierMerge` (per-shard top-k frontiers / threshold matches
  merged by ``(distance, id)``). Both are property-equal to the
  monolithic consumer (:mod:`repro.engine.consume`); the soundness
  arguments are on the classes.
* :func:`merged_stats` — per-shard counter aggregation into one
  :class:`~repro.db.stats.QueryStats` with a ``per_shard`` breakdown.
* :func:`scatter_run` — the one scatter loop behind the ``sharded`` and
  ``auto`` backends: per-shard :func:`~repro.engine.core.run_plan` with
  the caller's (serial) evaluator, then merge.

Cross-shard pruning falls out of stage *sharing*: the scatter loop
reuses one bound-stage instance across its sequential per-shard runs, so
exact vectors observed while scanning shard ``i`` prune candidates in
every later shard — the scatter analogue of the sorted-scan cutoff.
Sharing is sound because a stage only ever accumulates exact vectors of
real database graphs, and those dominate/cut off globally.
"""

from __future__ import annotations

import abc
import dataclasses
import math
import time
from typing import TYPE_CHECKING

from repro.db.stats import QueryStats
from repro.engine.core import run_plan
from repro.engine.evaluate import Evaluator
from repro.engine.plan import CandidateBlock, CandidateSource, EvaluationPlan
from repro.engine.consume import select
from repro.api.spec import GraphQuery

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.backends import BackendAnswer
    from repro.engine.core import RunContext
    from repro.shard.store import ShardedGraphDatabase


class ShardedSource(CandidateSource):
    """Scatter fan-out: per-shard candidate sources over shard-local indexes.

    :meth:`shard_source` hands the sharded backend one sub-source per
    shard (cached — index state persists across queries);
    :meth:`candidates` is the degenerate single-run form, concatenating
    every shard's candidates in shard order, which keeps the source
    usable in an ordinary :class:`~repro.engine.plan.EvaluationPlan`.
    """

    computes_bounds = True

    def __init__(self, database: "ShardedGraphDatabase") -> None:
        self.database = database
        self._sources: dict[int, CandidateSource] = {}

    def shard_source(self, index: int) -> CandidateSource:
        """The candidate source bound to shard ``index``."""
        source = self._sources.get(index)
        if source is None:
            # Imported here: repro.index imports repro.engine.plan.
            from repro.index import FeatureStore, IndexedSource

            store = FeatureStore(self.database.shards[index])
            source = self._sources[index] = IndexedSource(store)
        return source

    def candidates(self, ctx: "RunContext") -> CandidateBlock:
        return CandidateBlock.concat(
            [
                self.shard_source(index).candidates(ctx)
                for index in range(self.database.shard_count)
                if len(self.database.shards[index])
            ]
        )


# ----------------------------------------------------------------------
# Merge consumers (the gather phase)
# ----------------------------------------------------------------------
def _union_intervals(
    shard_answers: "list[BackendAnswer]",
) -> tuple[dict[int, tuple] | None, bool]:
    """``(interval union, any shard approximate)`` across shard answers.

    Shard id spaces are disjoint, so the union is a plain dict merge;
    ``None`` when no shard ran an anytime (budgeted) plan.
    """
    intervals: dict[int, tuple] | None = None
    approximate = False
    for answer in shard_answers:
        if answer.intervals is not None:
            if intervals is None:
                intervals = {}
            intervals.update(answer.intervals)
            approximate = approximate or answer.approximate
    return intervals, approximate


class MergeConsumer(abc.ABC):
    """Combines per-shard :class:`BackendAnswer` objects into the global one."""

    name: str = "merge"

    @abc.abstractmethod
    def merge(
        self,
        spec: GraphQuery,
        shard_answers: "list[BackendAnswer]",
        stats: QueryStats,
    ) -> "BackendAnswer":
        """The global answer over the per-shard local answers."""


class SkylineMerge(MergeConsumer):
    """Local skyline (or k-skyband) union, then one global dominance pass.

    Soundness: a graph in the global skyline is dominated by nobody, in
    particular by nobody in its own shard — so it is in its shard's local
    skyline and therefore in the union the global pass sees. The same
    argument with "dominated by < k" gives the k-skyband case. The global
    pass then removes exactly the cross-shard-dominated members, because
    exact dominance (tolerance 0, finite values) is transitive: anything
    a discarded local non-member would have eliminated is also eliminated
    by one of that non-member's own dominators, which *is* in some local
    answer.

    Transitivity is where the two documented edge cases live, and both
    fall back to pooling **every** evaluated vector (a verbatim re-run of
    the monolithic selection) instead of only the local answers:

    * ``tolerance > 0`` — tolerant dominance is not transitive;
    * NaN coordinates — NaN compares as a tie, which also breaks
      transitivity (``y`` may dominate ``w`` and ``w`` dominate ``u``
      with ``y`` and ``u`` incomparable through a NaN dimension).

    Property-tested against the monolithic consumer for random vector
    sets and placements in ``tests/test_shard_merge_property.py``.
    """

    name = "skyline-merge"

    def merge(self, spec, shard_answers, stats):
        from repro.api.backends import BackendAnswer

        vectors = {}
        evaluated: list[int] = []
        pruned: list[int] = []
        local_union: list[int] = []
        intervals, approximate = _union_intervals(shard_answers)
        for answer in shard_answers:
            vectors.update(answer.vectors)
            evaluated.extend(answer.evaluated_ids)
            pruned.extend(answer.pruned_ids)
            local_union.extend(answer.ids)
        if intervals is not None and any(
            not interval.settled
            for vector in intervals.values()
            for interval in vector
        ):
            # Anytime gather with open intervals. Upper-bound vectors are
            # not sound dominance evidence (``x <= y_upper`` says nothing
            # about ``x <= y_exact``), so the local-answer-union argument
            # breaks: re-certify membership over the *union* of the
            # per-shard intervals instead. When that cannot decide every
            # candidate the merged answer is best-effort over upper
            # bounds, exactly like the monolithic consumer.
            from repro.engine.anytime import vector_membership

            certain_in: "set[int] | None" = None
            if spec.tolerance == 0:
                member_in, member_out = vector_membership(spec, intervals)
                if len(member_in) + len(member_out) == len(intervals):
                    certain_in = member_in
            if certain_in is not None:
                answer_ids = sorted(certain_in)
                approximate = False
            else:
                approximate = True
                answer_ids = select(spec, vectors)
            stats.skyline_size = len(answer_ids)
            return BackendAnswer(
                answer_ids, evaluated, vectors, None, stats, pruned,
                intervals=intervals, approximate=approximate,
            )
        pool = local_union
        if spec.tolerance > 0 or any(
            math.isnan(value)
            for vector in vectors.values()
            for value in vector.values
        ):
            pool = list(vectors)
        answer_ids = select(spec, vectors, pool)
        stats.skyline_size = len(answer_ids)
        return BackendAnswer(
            answer_ids, evaluated, vectors, None, stats, pruned,
            intervals=intervals, approximate=approximate,
        )


class FrontierMerge(MergeConsumer):
    """Merge per-shard top-k frontiers (or threshold matches) by distance.

    Soundness for top-k: every member of the global top-k is among the k
    best of its own shard (fewer than k graphs beat it anywhere, so fewer
    than k beat it in its shard), hence in some shard's frontier; merging
    the frontiers by ``(distance, id)`` and cutting at ``k`` reproduces
    the monolithic ranking, ties included. Threshold answers are plain
    filters, so the merge is a sorted union.
    """

    name = "frontier-merge"

    def merge(self, spec, shard_answers, stats):
        from repro.api.backends import BackendAnswer

        distances: dict[int, float] = {}
        evaluated: list[int] = []
        pruned: list[int] = []
        frontier: list[int] = []
        intervals, approximate = _union_intervals(shard_answers)
        for answer in shard_answers:
            distances.update(answer.distances or {})
            evaluated.extend(answer.evaluated_ids)
            pruned.extend(answer.pruned_ids)
            frontier.extend(answer.ids)
        if approximate:
            # Best-effort anytime gather: rank everything evaluated by
            # its certified upper bound — sound for threshold (upper <= t
            # certifies membership) and the natural pessimistic ranking
            # for top-k. Certified shard answers (approximate=False) keep
            # the exact frontier-merge below: certified local answers are
            # the exact local answers, members settled, so the classic
            # every-global-member-is-in-its-local-frontier argument holds.
            if spec.kind == "topk":
                frontier = sorted(
                    distances, key=lambda graph_id: (distances[graph_id], graph_id)
                )[: spec.k]
            else:
                frontier = sorted(
                    (g for g in distances if distances[g] <= spec.threshold),
                    key=lambda graph_id: (distances[graph_id], graph_id),
                )
            return BackendAnswer(
                frontier, evaluated, {}, distances, stats, pruned,
                intervals=intervals, approximate=True,
            )
        frontier.sort(key=lambda graph_id: (distances[graph_id], graph_id))
        if spec.kind == "topk":
            frontier = frontier[: spec.k]
        return BackendAnswer(
            frontier, evaluated, {}, distances, stats, pruned,
            intervals=intervals, approximate=False,
        )


def merge_consumer(spec: GraphQuery) -> MergeConsumer:
    """The gather consumer matching the spec's query kind."""
    if spec.kind in ("skyline", "skyband"):
        return SkylineMerge()
    return FrontierMerge()


# ----------------------------------------------------------------------
# Stats aggregation
# ----------------------------------------------------------------------
def merged_stats(
    database: "ShardedGraphDatabase",
    shard_stats: "list[QueryStats | None]",
) -> QueryStats:
    """One global :class:`QueryStats` summing per-shard runs.

    Counters and phase timings add up; the per-shard breakdown (empty
    shards included, with zero counters) lands in
    :attr:`QueryStats.per_shard` for ``explain()``/``to_dict()``.
    """
    stats = QueryStats(database_size=len(database))
    breakdown: list[dict[str, int]] = []
    anytime_total: dict[str, object] | None = None
    for index, shard in enumerate(shard_stats):
        row = {
            "shard": index,
            "size": len(database.shards[index]),
            "candidates": 0,
            "pruned": 0,
            "evaluated": 0,
            "served": 0,
        }
        if shard is not None:
            stats.candidates_considered += shard.candidates_considered
            stats.pruned_by_index += shard.pruned_by_index
            stats.pruned_by_batch += shard.pruned_by_batch
            stats.exact_evaluations += shard.exact_evaluations
            stats.served_from_cache += shard.served_from_cache
            for name, count in shard.pruned_by_stage.items():
                stats.count_prune(name, count)
            for phase, seconds in shard.phase_seconds.items():
                stats.phase_seconds[phase] = (
                    stats.phase_seconds.get(phase, 0.0) + seconds
                )
            row.update(
                candidates=shard.candidates_considered,
                pruned=shard.pruned_by_index,
                evaluated=shard.exact_evaluations,
                served=shard.served_from_cache,
            )
            if shard.anytime is not None:
                # Anytime telemetry sums across shards; the wall clock
                # (``budget_spent_ms``) takes the slowest shard since the
                # sequential scatter shares one budget.
                if anytime_total is None:
                    anytime_total = {
                        "passes": 0,
                        "refined": 0,
                        "settled": 0,
                        "interval_pruned": 0,
                        "starved": 0,
                        "budget_spent_ms": 0.0,
                    }
                for key in (
                    "passes",
                    "refined",
                    "settled",
                    "interval_pruned",
                    "starved",
                ):
                    anytime_total[key] += shard.anytime.get(key, 0)
                anytime_total["budget_spent_ms"] = max(
                    anytime_total["budget_spent_ms"],
                    shard.anytime.get("budget_spent_ms", 0.0),
                )
        breakdown.append(row)
    stats.per_shard = breakdown
    stats.anytime = anytime_total
    return stats


# ----------------------------------------------------------------------
# The scatter loop
# ----------------------------------------------------------------------
def scatter_run(
    database: "ShardedGraphDatabase",
    spec: GraphQuery,
    source: ShardedSource,
    cascade: tuple,
    evaluator: Evaluator,
    cache=None,
) -> "BackendAnswer":
    """Run ``spec`` shard by shard, then gather the global answer.

    Empty shards are skipped. Every shard run shares ``cascade`` — one
    bound-stage instance per query, the cross-shard pruning channel —
    and ``evaluator``. An anytime wall-clock budget is *global*: each
    shard gets the remainder (a shard after expiry still runs its
    cascade and reports interval-bounded starved candidates instead of
    re-anchoring the full budget).
    """
    anytime_wall = None
    if spec.budget_ms is not None:
        anytime_wall = time.monotonic() + spec.budget_ms / 1000.0
    answers = []
    shard_stats: "list[QueryStats | None]" = [None] * database.shard_count
    for index, shard in enumerate(database.shards):
        if not len(shard):
            continue
        plan = EvaluationPlan(
            source=source.shard_source(index),
            cascade=cascade,
            evaluator=evaluator,
        )
        shard_spec = spec
        if anytime_wall is not None:
            remaining_ms = max(1, int((anytime_wall - time.monotonic()) * 1000))
            shard_spec = dataclasses.replace(spec, budget_ms=remaining_ms)
        answer = run_plan(shard, shard_spec, plan, cache=cache)
        shard_stats[index] = answer.stats
        answers.append(answer)
    stats = merged_stats(database, shard_stats)
    return merge_consumer(spec).merge(spec, answers, stats)
