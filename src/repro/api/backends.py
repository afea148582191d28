"""One executor for every backend name: presets over the staged engine.

A backend answers any :class:`~repro.api.spec.GraphQuery` against a
:class:`~repro.db.database.GraphDatabase`. One class,
:class:`ExecutionBackend`, does it for every name; a name is a
:class:`Preset`, the rule that picks one
:class:`~repro.engine.planner.PlanDecision` per query — candidate source,
bound stage, evaluator:

* ``memory`` — database order, no bound stage, serial (the reference
  semantics);
* ``indexed`` — ``auto``'s source and stage: the packed
  :class:`~repro.index.IndexedSource` and the batched bound stage for
  the kind wherever :meth:`~repro.engine.planner.QueryPlanner.prunes`
  says pruning is sound, database order otherwise; serial;
* ``parallel`` — database order, no bound stage, pooled
  (:class:`~repro.engine.workers.PooledEvaluator`);
* ``sharded`` — ``indexed``'s decision, scattered over a
  :class:`~repro.shard.store.ShardedGraphDatabase`;
* ``auto`` — :meth:`QueryPlanner.decide
  <repro.engine.planner.QueryPlanner.decide>`: ``indexed``'s source,
  stage and serial evaluator, scattered like ``sharded`` over a sharded
  store.

The executor materialises the decision — the lazily built
:class:`~repro.index.FeatureStore`, one bound-stage instance per query,
one pooled evaluator for ``parallel`` — and runs it. Over a sharded
store, ``sharded`` and ``auto`` go through
:func:`~repro.engine.scatter.scatter_run`; every other case is one
:func:`~repro.engine.core.run_plan`. So every name returns the
exhaustive answer and differs only in how much work it does. Every run
records its decision in ``stats.planner``, and the session's
:class:`~repro.api.result.QueryPlan` is built from it.

``cache=`` (a :class:`~repro.db.cache.PairCache`) appends the
cached-pairs stage to every cascade; ``max_workers=`` sizes the pool of
the ``parallel`` preset.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

from repro.core.gcs import CompoundSimilarity
from repro.db.database import GraphDatabase
from repro.db.stats import QueryStats
from repro.api.spec import GraphQuery
from repro.engine.core import run_plan
from repro.engine.evaluate import Evaluator, SerialEvaluator
from repro.engine.plan import (
    BoundStage,
    CachedPairStage,
    DatabaseOrderSource,
    EvaluationPlan,
    cached_pairs,
)
from repro.engine.planner import PlanDecision, QueryPlanner
from repro.engine.scatter import ShardedSource, merge_consumer, scatter_run
from repro.engine.workers import PooledEvaluator
from repro.errors import QueryError
from repro.shard.store import ShardedGraphDatabase


@dataclass(frozen=True)
class Preset:
    """A backend name's plan rule.

    ``prunes``: the bound stage joins the cascade wherever
    :meth:`QueryPlanner.prunes` allows it, else never. ``evaluator``:
    ``serial`` or ``pooled``. ``scatters``: over a sharded store, runs
    shard by shard.
    """

    prunes: bool
    evaluator: str
    scatters: bool = False


PRESETS: dict[str, Preset] = {
    "memory": Preset(prunes=False, evaluator="serial"),
    "indexed": Preset(prunes=True, evaluator="serial"),
    "parallel": Preset(prunes=False, evaluator="pooled"),
    "sharded": Preset(prunes=True, evaluator="serial", scatters=True),
    "auto": Preset(prunes=True, evaluator="serial", scatters=True),
}


def available_backends() -> list[str]:
    """Every backend name."""
    return sorted(PRESETS)


@dataclass(frozen=True)
class Execution:
    """One spec's run as its preset decided it.

    ``stages`` are the cascade labels (plus the merge consumer's on the
    scatter path); ``scattered`` is whether the run goes shard by shard;
    ``workers`` is the pool size when the evaluator is pooled, else 1.
    """

    decision: PlanDecision
    stages: tuple[str, ...]
    scattered: bool = False
    workers: int = 1


@dataclass
class BackendAnswer:
    """Normalized backend output, independent of query kind.

    ``ids`` is the answer set (sorted for skyline/skyband, ranked for
    topk/threshold); ``vectors`` holds the exact GCS vectors of every
    evaluated graph (pruned ids absent); ``distances`` carries the
    single-measure values for topk/threshold kinds; ``pruned_ids`` are
    the candidates a cascade stage proved irrelevant (never evaluated).

    Anytime (budgeted) runs additionally set ``intervals`` — certified
    ``[lower, upper]`` :class:`~repro.graph.budget.Interval` vectors per
    candidate that survived the cascade — and ``approximate``, true when
    the budget expired with straddling intervals left, i.e. the answer is
    best-effort rather than certified equal to the exhaustive oracle's.

    ``execution`` is the decision the backend ran (``None`` for an engine
    run outside a backend), so the session reports the plan that ran
    without planning a second time.
    """

    ids: list[int]
    evaluated_ids: list[int]
    vectors: dict[int, CompoundSimilarity]
    distances: dict[int, float] | None
    stats: QueryStats = field(default_factory=QueryStats)
    pruned_ids: list[int] = field(default_factory=list)
    intervals: dict[int, tuple] | None = None
    approximate: bool = False
    execution: Execution | None = None


class ExecutionBackend:
    """Runs the :data:`PRESETS` rule named ``name`` over ``database``.

    Parameters
    ----------
    database:
        Monolithic or sharded; ``sharded`` needs a sharded one
        (``connect(..., shards=N)`` partitions where the caller keeps the
        reference, so later mutations reach the shards).
    name:
        A :data:`PRESETS` key.
    cache:
        Optional shared pair cache (the cached-pairs stage joins every
        plan).
    max_workers:
        Pool size of the ``parallel`` preset (default: the CPU count).
    """

    def __init__(
        self,
        database: GraphDatabase,
        name: str = "memory",
        cache=None,
        max_workers: int | None = None,
    ) -> None:
        if name not in PRESETS:
            raise QueryError(
                f"unknown backend {name!r}; "
                f"available: {', '.join(available_backends())}"
            )
        sharded = isinstance(database, ShardedGraphDatabase)
        if name == "sharded" and not sharded:
            raise QueryError(
                "the sharded backend needs a ShardedGraphDatabase; open the "
                "session with connect(..., shards=N) or re-partition via "
                "ShardedGraphDatabase.from_database(...)"
            )
        self.name = name
        self.preset = PRESETS[name]
        self.database = database
        self.cache = cache
        self.planner = QueryPlanner()
        self.max_workers = max(1, max_workers or os.cpu_count() or 1)
        self._store = None
        self._pooled: PooledEvaluator | None = None
        self._scatter = (
            ShardedSource(database) if sharded and self.preset.scatters else None
        )

    def __repr__(self) -> str:
        return f"<ExecutionBackend {self.name!r} over {self.database!r}>"

    @property
    def store(self):
        """The monolithic feature store, built on first use and synced to
        the database on every indexed run."""
        if self._store is None:
            from repro.index import FeatureStore

            self._store = FeatureStore(self.database)
        return self._store

    # -- deciding ---------------------------------------------------------
    def decide(self, spec: GraphQuery) -> PlanDecision:
        """The preset's plan decision for ``spec`` over the whole database."""
        rows = len(self.database)
        if self.name == "auto":
            return self.planner.decide(spec, rows)
        preset = self.preset
        if preset.prunes:
            source, stage, reason = QueryPlanner.pruning(spec, rows)
        else:
            source, stage = "database-order", None
            reason = f"{self.name} preset: exhaustive scan"
        evaluator = preset.evaluator
        why = f"{self.name} preset: {evaluator}"
        if spec.anytime:
            evaluator, why = "serial", "anytime budget: evaluation is serial"
        return PlanDecision(source, stage, evaluator, (reason, why))

    def execution(self, spec: GraphQuery) -> Execution:
        """What :meth:`run` executes for ``spec``."""
        decision = self.decide(spec)
        stages = () if decision.stage is None else (decision.stage,)
        if self.cache is not None:
            stages += (CachedPairStage.name,)
        scattered = self._scatter is not None
        if scattered:
            stages += (merge_consumer(spec).name,)
        workers = self.max_workers if decision.evaluator == "pooled" else 1
        return Execution(decision, stages, scattered, workers)

    # -- materialising ----------------------------------------------------
    def _bound_stage(self, spec: GraphQuery) -> BoundStage:
        """The query's bound stage, one instance per run (shared by every
        shard run: the cross-shard pruning channel)."""
        from repro.index.source import batch_bound_stage_for

        return batch_bound_stage_for(spec)

    def _cascade(self, spec: GraphQuery, decision: PlanDecision) -> tuple:
        tail = (cached_pairs,) if self.cache is not None else ()
        if decision.stage is None:
            return tail
        stage = self._bound_stage(spec)
        return ((lambda ctx: stage),) + tail

    def _evaluator(self, name: str) -> Evaluator:
        if name != "pooled":
            return SerialEvaluator()
        if self._pooled is None:
            self._pooled = PooledEvaluator(max_workers=self.max_workers)
        return self._pooled

    def build_plan(
        self, spec: GraphQuery, execution: Execution | None = None
    ) -> EvaluationPlan:
        """The single-run plan of ``spec``'s decision (on the scatter path
        its concatenated-shards form, which :meth:`run` does not use)."""
        decision = (execution or self.execution(spec)).decision
        if self._scatter is not None:
            source = self._scatter
        elif decision.source == "indexed":
            from repro.index import IndexedSource

            source = IndexedSource(self.store)
        else:
            source = DatabaseOrderSource()
        return EvaluationPlan(
            source=source,
            cascade=self._cascade(spec, decision),
            evaluator=self._evaluator(decision.evaluator),
        )

    # -- running ----------------------------------------------------------
    def run(self, spec: GraphQuery) -> BackendAnswer:
        """Answer ``spec`` (validated first) against the bound database."""
        spec.validate()
        execution = self.execution(spec)
        decision = execution.decision
        if execution.scattered:
            answer = scatter_run(
                self.database,
                spec,
                self._scatter,
                self._cascade(spec, decision),
                self._evaluator(decision.evaluator),
                cache=self.cache,
            )
        else:
            plan = self.build_plan(spec, execution)
            answer = run_plan(self.database, spec, plan, cache=self.cache)
        answer.execution = execution
        answer.stats.planner = self._record(spec, execution)
        return answer

    def _record(self, spec: GraphQuery, execution: Execution) -> dict:
        """``stats.planner``: the decision and its reasons."""
        decision = execution.decision
        if execution.scattered:
            decision = replace(
                decision, source=f"scatter×{self.database.shard_count}"
            )
        return {
            "backend": self.name,
            "summary": decision.summary,
            "source": decision.source,
            "stages": list(execution.stages),
            "evaluator": (
                "serial(anytime)" if spec.anytime else decision.evaluator
            ),
            "reasons": list(decision.reasons),
        }
