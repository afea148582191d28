"""The ``auto`` execution backend: cost-based plan selection per query.

Where the fixed backends hard-code one point of the plan space, this one
asks :class:`repro.engine.planner.QueryPlanner` per query — database
size, average graph order, NumPy/pool availability and the session's
:class:`~repro.engine.planner.SelectivityProfile` of observed prune
rates and per-pair costs pick scalar vs batched bounds and serial vs
pooled evaluation. The plan is chosen once, before the scan, and keeps
its bound stage wherever pruning is sound. Every executed query feeds
its :class:`~repro.db.stats.QueryStats` back into the profile, and every
decision — predicted vs observed selectivities, the costs of the losing
plans — lands in ``stats.planner`` for ``ResultSet.explain()`` /
``to_dict()``. A pooled plan drains in waves against the same per-query
exact-vector channel as the scatter path
(:func:`~repro.engine.scatter.bound_sharing`), so it prunes like serial.

Over a :class:`~repro.shard.store.ShardedGraphDatabase` the backend runs
the same scatter loop as ``sharded``
(:func:`~repro.engine.scatter.scatter_run`: a shared bound stage for
cross-shard pruning, merge consumers for the gather), but evaluators
are chosen *per shard* before the loop — a big shard may go pooled
while a small one stays serial — and the per-shard choices are reported
individually.

The profile is per backend instance, i.e. per session. The server
caches one session per backend name behind its existing per-backend
lock, so all clients of a server share (and jointly train) one profile.
"""

from __future__ import annotations

from repro.db.database import GraphDatabase
from repro.db.index import FeatureIndex
from repro.api.spec import GraphQuery
from repro.api.backends import (
    BackendAnswer,
    ExecutionBackend,
    _numpy_available,
    register_backend,
)
from repro.engine.core import run_plan
from repro.engine.evaluate import Evaluator, SerialEvaluator
from repro.engine.plan import (
    BoundOrderedSource,
    DatabaseOrderSource,
    EvaluationPlan,
    Stage,
    bound_stage_for,
)
from repro.engine.planner import PlanDecision, QueryPlanner, SelectivityProfile
from repro.engine.scatter import (
    ShardedSource,
    bound_sharing,
    merge_consumer,
    scatter_run,
)
from repro.shard.store import ShardedGraphDatabase


def _pool_started() -> bool:
    """Whether a persistent worker pool is already warm in this process
    (zeroes the startup term of the planner's pooled-cost estimate)."""
    from repro.engine import workers

    return any(pool.started for pool in workers._POOLS.values())


class AutoBackend(ExecutionBackend):
    """Cost-based planning over the full plan space.

    Parameters
    ----------
    database:
        Monolithic or sharded; the sharded case scatter-gathers.
    cache:
        Optional shared pair cache (cached-pairs stage joins every plan).
    profile:
        A :class:`SelectivityProfile` to share/resume; a fresh one is
        created when omitted.
    max_workers / chunk_size:
        Pool sizing if a plan goes pooled (defaults match ``parallel``).
    """

    name = "auto"

    def __init__(
        self,
        database: GraphDatabase,
        cache=None,
        profile: SelectivityProfile | None = None,
        max_workers: int | None = None,
        chunk_size: int | None = None,
    ) -> None:
        super().__init__(database)
        self.cache = cache
        self.profile = profile if profile is not None else SelectivityProfile()
        self.use_index = True  # duck-typed by Session.plan()
        self._numpy = _numpy_available()
        self.planner = QueryPlanner(
            self.profile,
            numpy_available=self._numpy,
            max_workers=max_workers,
        )
        self._max_workers = max_workers
        self._chunk_size = chunk_size
        # Monolithic providers, built lazily and version-synced.
        self._index = FeatureIndex()
        self._index_version = -1
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
    def _ensure_index(self) -> FeatureIndex:
        if self._index_version != self.database.version:
            self._index = FeatureIndex()
            for entry in self.database.entries():
                self._index.add(entry.graph_id, entry.features)
            self._index_version = self.database.version
        return self._index

    def _feature_store(self):
        if self._store is None:
            from repro.index import FeatureStore

            self._store = FeatureStore(self.database)
        return self._store

    def _pooled_evaluator(self, shard: int | None = None):
        evaluator = self._pooled.get(shard)
        if evaluator is None:
            from repro.engine.workers import PooledEvaluator

            evaluator = self._pooled[shard] = PooledEvaluator(
                max_workers=self._max_workers, chunk_size=self._chunk_size
            )
        return evaluator

    # -- decision → plan materialization ----------------------------------
    def _avg_order(self) -> float:
        size = len(self.database)
        if size == 0:
            return 1.0
        return self.database.vertex_load / size

    def _decide(self, spec: GraphQuery, db_size: int) -> PlanDecision:
        return self.planner.decide(
            spec,
            db_size=db_size,
            avg_order=self._avg_order(),
            pool_started=_pool_started(),
        )

    def _source(self, decision: PlanDecision):
        if decision.source == "indexed":
            from repro.index import IndexedSource

            store = self._feature_store()
            return IndexedSource(
                lambda store=store: store, prefilter=True
            )
        if decision.source == "bound-ordered":
            return BoundOrderedSource(self._ensure_index)
        return DatabaseOrderSource()

    def _bound_stage(self, spec: GraphQuery, decision: PlanDecision) -> Stage:
        if decision.batch and self._numpy:
            from repro.index.source import batch_bound_stage_for

            return batch_bound_stage_for(spec)
        return bound_stage_for(spec)

    def _cascade(self, spec: GraphQuery, decision: PlanDecision) -> tuple:
        """One bound-stage instance per query (on the scatter path it is
        shared by every shard run — the cross-shard pruning channel)."""
        if decision.stage is None:
            return self._cache_stages()
        stage = self._bound_stage(spec, decision)
        return ((lambda ctx: stage),) + self._cache_stages()

    def _evaluator(
        self, decision: PlanDecision, shard: int | None = None
    ) -> Evaluator:
        if decision.evaluator == "pooled":
            return self._pooled_evaluator(shard)
        return SerialEvaluator()

    def _stage_labels(self, decision: PlanDecision) -> tuple[str, ...]:
        labels: tuple[str, ...] = ()
        if decision.stage is not None:
            labels = (decision.stage,)
        return labels + self._cache_labels()

    def _plan(
        self, spec: GraphQuery, decision: PlanDecision
    ) -> EvaluationPlan:
        """The monolithic plan for ``decision``."""
        return EvaluationPlan(
            source=self._source(decision),
            cascade=self._cascade(spec, decision),
            evaluator=self._evaluator(decision),
            stage_labels=self._stage_labels(decision),
        )

    def build_plan(self, spec: GraphQuery) -> EvaluationPlan:
        """The plan the current decision would run (``Session.plan()``).
        :meth:`run` decides once itself and records the stages it ran
        in the answer, so executing never plans twice."""
        decision = self._decide(spec, len(self.database))
        if self._sharded:
            return EvaluationPlan(
                source=self._scatter,
                cascade=self._cascade(spec, decision),
                evaluator=SerialEvaluator(),
                stage_labels=self._stage_labels(decision)
                + (merge_consumer(spec).name,),
            )
        return self._plan(spec, decision)

    # -- execution --------------------------------------------------------
    def run(self, spec: GraphQuery) -> BackendAnswer:
        spec.validate()
        # Pruning/batching is one global decision; on the scatter path
        # evaluators are then chosen per shard, before the loop.
        decision = self._decide(spec, len(self.database))
        prunes = decision.stage is not None
        scatter: dict = {}
        if self._sharded:
            database: ShardedGraphDatabase = self.database
            shard_decisions = {
                index: self._decide(spec, len(shard))
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
                    index: self._evaluator(shard_decision, index)
                    for index, shard_decision in shard_decisions.items()
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
                        "evaluator": self._evaluator_label(
                            spec, shard_decision
                        ),
                        "predicted_survivors": shard_decision.survivors,
                    }
                    for index, shard_decision in shard_decisions.items()
                ],
            }
        else:
            plan = self._plan(spec, decision)
            matrix_source = self._feature_store if self._numpy else None
            shared = {plan.evaluator: matrix_source} if prunes else {}
            with bound_sharing(spec, shared):
                answer = run_plan(self.database, spec, plan, cache=self.cache)
        stats = answer.stats
        stats.planner = {
            **self._planner_payload(spec, decision, stats),
            **scatter,
        }
        self.profile.observe(
            spec.kind, stats, stage_names=tuple(decision.predicted)
        )
        return answer

    @staticmethod
    def _evaluator_label(spec: GraphQuery, decision: PlanDecision) -> str:
        return "serial(anytime)" if spec.anytime else decision.evaluator

    def _observed(self, decision: PlanDecision, stats) -> dict[str, float]:
        """Observed per-stage prune fractions, aligned with predictions."""
        observed: dict[str, float] = {}
        considered = max(1, stats.candidates_considered)
        survivors = max(1, considered - stats.pruned_by_batch)
        for name in decision.predicted:
            if name == "batch-prefilter":
                observed[name] = round(
                    stats.pruned_by_batch / considered, 4
                )
            else:
                observed[name] = round(
                    stats.pruned_by_stage.get(name, 0) / survivors, 4
                )
        return observed

    def _planner_payload(
        self, spec: GraphQuery, decision: PlanDecision, stats
    ) -> dict:
        return {
            "backend": self.name,
            "summary": decision.summary,
            "source": decision.source,
            "stages": list(self._stage_labels(decision)),
            "evaluator": self._evaluator_label(spec, decision),
            "predicted": {
                name: round(value, 4)
                for name, value in decision.predicted.items()
            },
            "observed": self._observed(decision, stats),
            "costs_ms": {
                label: round(seconds * 1000.0, 3)
                for label, seconds in sorted(decision.costs.items())
            },
            "reasons": list(decision.reasons),
            "profile_queries": self.profile.queries,
        }


register_backend(AutoBackend.name, AutoBackend)
