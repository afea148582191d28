"""The ``auto`` execution backend: rule-based plan selection per query.

Where the fixed backends hard-code one point of the plan space, this one
asks :class:`repro.engine.planner.QueryPlanner` per query, whose rule
reads only static inputs, so a spec plans the same way whatever the
session ran before. The decision and the rule's reasons land in
``stats.planner`` for ``ResultSet.explain()`` / ``to_dict()``. A pooled
plan drains in waves
against the same per-query exact-vector channel as the scatter path
(:func:`~repro.engine.scatter.bound_sharing`), so it prunes like serial.

Over a :class:`~repro.shard.store.ShardedGraphDatabase` the backend runs
the same scatter loop as ``sharded``
(:func:`~repro.engine.scatter.scatter_run`: a shared bound stage for
cross-shard pruning, merge consumers for the gather), but evaluators
are chosen *per shard* by the same rule over the shard's rows — a big
shard may go pooled while a small one stays serial — and the per-shard
choices are reported individually.
"""

from __future__ import annotations

from repro.db.database import GraphDatabase
from repro.api.spec import GraphQuery
from repro.api.backends import (
    BackendAnswer,
    ExecutionBackend,
    register_backend,
)
from repro.engine.core import run_plan
from repro.engine.evaluate import Evaluator, SerialEvaluator
from repro.engine.plan import DatabaseOrderSource, EvaluationPlan
from repro.engine.planner import PlanDecision, QueryPlanner
from repro.engine.scatter import (
    ShardedSource,
    bound_sharing,
    merge_consumer,
    scatter_run,
)
from repro.shard.store import ShardedGraphDatabase


def _pool_started() -> bool:
    """Whether a persistent worker pool is already warm in this process
    (lowers the planner's pool break-even)."""
    from repro.engine import workers

    return any(pool.started for pool in workers._POOLS.values())


class AutoBackend(ExecutionBackend):
    """Rule-based planning over the full plan space.

    Parameters
    ----------
    database:
        Monolithic or sharded; the sharded case scatter-gathers.
    cache:
        Optional shared pair cache (cached-pairs stage joins every plan).
    max_workers / chunk_size:
        Pool sizing if a plan goes pooled (defaults match ``parallel``).
    """

    name = "auto"

    def __init__(
        self,
        database: GraphDatabase,
        cache=None,
        max_workers: int | None = None,
        chunk_size: int | None = None,
    ) -> None:
        super().__init__(database)
        self.cache = cache
        self.use_index = True  # duck-typed by Session.plan()
        self.planner = QueryPlanner(max_workers=max_workers)
        self._max_workers = max_workers
        self._chunk_size = chunk_size
        # The monolithic feature store, built lazily and version-synced.
        self._store = None
        # Pooled evaluators keyed by shard index (``None``: monolithic).
        self._pooled: dict[int | None, object] = {}
        # Scatter path state (sharded databases only).
        self._sharded = isinstance(database, ShardedGraphDatabase)
        self._scatter = (
            ShardedSource(database, use_index=True) if self._sharded else None
        )

    # -- topology observability ------------------------------------------
    @property
    def shard_count(self) -> int:
        return getattr(self.database, "shard_count", 1)

    @property
    def max_workers(self) -> int:
        return self.planner.max_workers

    def close(self) -> None:
        """Release pool attachments this backend created (the persistent
        pool itself stays warm for other sessions)."""
        for evaluator in self._pooled.values():
            evaluator.release()

    # -- providers --------------------------------------------------------
    def _feature_store(self):
        if self._store is None:
            from repro.index import FeatureStore

            self._store = FeatureStore(self.database)
        return self._store

    # -- decision → plan materialization ----------------------------------
    def _avg_order(self) -> float:
        size = len(self.database)
        return self.database.vertex_load / size if size else 1.0

    def _decide(self, spec: GraphQuery) -> PlanDecision:
        return self.planner.decide(
            spec,
            db_size=len(self.database),
            avg_order=self._avg_order(),
            pool_started=_pool_started(),
        )

    def _source(self, decision: PlanDecision):
        if decision.source == "indexed":
            from repro.index import IndexedSource

            return IndexedSource(self._feature_store(), prefilter=True)
        return DatabaseOrderSource()

    def _cascade(self, spec: GraphQuery, decision: PlanDecision) -> tuple:
        """One bound-stage instance per query (on the scatter path it is
        shared by every shard run — the cross-shard pruning channel)."""
        if decision.stage is None:
            return self._cache_stages()
        from repro.index.source import batch_bound_stage_for

        stage = batch_bound_stage_for(spec)
        return ((lambda ctx: stage),) + self._cache_stages()

    def _evaluator(self, name: str, shard: int | None = None) -> Evaluator:
        if name != "pooled":
            return SerialEvaluator()
        evaluator = self._pooled.get(shard)
        if evaluator is None:
            from repro.engine.workers import PooledEvaluator

            evaluator = self._pooled[shard] = PooledEvaluator(
                max_workers=self._max_workers, chunk_size=self._chunk_size
            )
        return evaluator

    def _stage_labels(self, decision: PlanDecision) -> tuple[str, ...]:
        stages = () if decision.stage is None else (decision.stage,)
        return stages + self._cache_labels()

    def _plan(
        self, spec: GraphQuery, decision: PlanDecision
    ) -> EvaluationPlan:
        if self._sharded:
            return EvaluationPlan(
                source=self._scatter,
                cascade=self._cascade(spec, decision),
                evaluator=SerialEvaluator(),
                stage_labels=self._stage_labels(decision)
                + (merge_consumer(spec).name,),
            )
        return EvaluationPlan(
            source=self._source(decision),
            cascade=self._cascade(spec, decision),
            evaluator=self._evaluator(decision.evaluator),
            stage_labels=self._stage_labels(decision),
        )

    def build_plan(self, spec: GraphQuery) -> EvaluationPlan:
        """The plan the current decision would run (``Session.plan()``).
        :meth:`run` decides once itself and records the stages it ran
        in the answer, so executing never plans twice."""
        return self._plan(spec, self._decide(spec))

    # -- execution --------------------------------------------------------
    def run(self, spec: GraphQuery) -> BackendAnswer:
        spec.validate()
        # Pruning is one global decision; on the scatter path
        # evaluators are then chosen per shard, before the loop.
        decision = self._decide(spec)
        prunes = decision.stage is not None
        anytime = "serial(anytime)" if spec.anytime else None
        scatter: dict = {}
        if self._sharded:
            database: ShardedGraphDatabase = self.database
            rule = self.planner.evaluator
            avg_order, warm = self._avg_order(), _pool_started()
            evaluators = {
                index: rule(spec, len(shard), avg_order, warm)[0]
                for index, shard in enumerate(database.shards)
                if len(shard)
            }
            answer = scatter_run(
                database,
                spec,
                self._scatter,
                self._cascade(spec, decision),
                self._stage_labels(decision) + (merge_consumer(spec).name,),
                {
                    index: self._evaluator(name, index)
                    for index, name in evaluators.items()
                },
                prunes=prunes,
                cache=self.cache,
            )
            source = f"scatter×{database.shard_count}"
            prune = decision.stage or "no-prune"
            scatter = {
                "source": source,
                "summary": f"{source}+{prune}/per-shard",
                "evaluator": "per-shard",
                "stages": list(answer.stage_labels),
                "per_shard": [
                    {
                        "shard": index,
                        "size": len(database.shards[index]),
                        "evaluator": anytime or name,
                    }
                    for index, name in evaluators.items()
                ],
            }
        else:
            plan = self._plan(spec, decision)
            shared = {plan.evaluator: self._feature_store} if prunes else {}
            with bound_sharing(spec, shared):
                answer = run_plan(self.database, spec, plan, cache=self.cache)
        answer.stats.planner = {
            "backend": self.name,
            "summary": decision.summary,
            "source": decision.source,
            "stages": list(self._stage_labels(decision)),
            "evaluator": anytime or decision.evaluator,
            "reasons": list(decision.reasons),
            **scatter,
        }
        return answer


register_backend(AutoBackend.name, AutoBackend)
