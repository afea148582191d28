"""The ``sharded`` execution backend: scatter-gather over the shard store.

Registered under ``"sharded"``; opened most conveniently through
``repro.connect(source, backend="sharded", shards=N)`` (the session
re-partitions a monolithic source into a
:class:`~repro.shard.store.ShardedGraphDatabase` when needed).

Execution is the classic distributed decomposition, run by
:func:`~repro.engine.scatter.scatter_run` — the one scatter loop this
backend shares with ``auto``, which differs only in choosing each
shard's evaluator with its planner:

1. **scatter** — one :func:`~repro.engine.core.run_plan` per non-empty
   shard, each over that shard's local candidate source
   (:class:`~repro.engine.scatter.ShardedSource`) and — in parallel mode
   — its own :class:`~repro.engine.workers.PooledEvaluator` on the
   persistent worker pool, so a shard's payload is attached in shared
   memory once and kept current by deltas, never re-shipped per query;
2. **cross-shard pruning** — the bound stage instance is shared across
   the sequential shard runs: exact vectors observed in shard ``i``
   prune candidates in shards ``i+1..N`` (sound: dominators and rank
   cutoffs are global facts, wherever the dominating graph lives). In
   parallel mode the same channel extends *into* the pool: one
   :class:`~repro.engine.workers.BoundSharing` per query carries every
   exact vector drained so far (plus vectors workers publish to the
   shared-memory frontier mid-chunk) into each shard's wave-based
   drain, so deferred evaluation no longer forfeits the pruning;
3. **gather** — :class:`~repro.engine.scatter.SkylineMerge` /
   :class:`~repro.engine.scatter.FrontierMerge` combine the per-shard
   local answers into the global one, property-equal to the monolithic
   consumers.

``tolerance > 0`` disables the Pareto stages and makes the merge pool
every evaluated vector (tolerant dominance is not transitive, so neither
pruning nor local-answer merging is sound there) — the backend then
degenerates to exhaustive per-shard evaluation plus one global
selection, i.e. exact ``memory`` semantics.
"""

from __future__ import annotations

from repro.errors import QueryError
from repro.db.database import GraphDatabase
from repro.api.spec import GraphQuery
from repro.api.backends import ExecutionBackend, register_backend
from repro.engine.evaluate import Evaluator, SerialEvaluator
from repro.engine.workers import PooledEvaluator
from repro.engine.plan import EvaluationPlan, Stage
from repro.engine.planner import QueryPlanner
from repro.engine.scatter import ShardedSource, merge_consumer, scatter_run
from repro.shard.store import ShardedGraphDatabase


class ShardedBackend(ExecutionBackend):
    """Scatter-gather evaluation across the shards of a sharded store.

    Parameters
    ----------
    database:
        A :class:`~repro.shard.store.ShardedGraphDatabase`. A monolithic
        database is rejected — partitioning must happen where the caller
        keeps their reference (``connect(..., shards=N)`` does it), or
        later mutations would silently bypass the shards.
    use_index:
        Enable the bound-pruning cascade (shared across shards).
    parallel:
        Evaluate each shard's cascade survivors on the shared process
        pool, shipping per-shard payloads; serial otherwise.
    max_workers / chunk_size:
        Pool sizing for ``parallel=True`` (see
        :class:`~repro.engine.workers.PooledEvaluator`).
    cache:
        Optional shared :class:`~repro.db.cache.PairCache`; the
        cached-pairs stage joins every shard's cascade.
    """

    name = "sharded"

    def __init__(
        self,
        database: GraphDatabase,
        use_index: bool = True,
        parallel: bool = False,
        max_workers: int | None = None,
        chunk_size: int | None = None,
        cache=None,
    ) -> None:
        if not isinstance(database, ShardedGraphDatabase):
            raise QueryError(
                "the sharded backend needs a ShardedGraphDatabase; open the "
                "session with connect(..., shards=N) or re-partition via "
                "ShardedGraphDatabase.from_database(...)"
            )
        super().__init__(database)
        self.use_index = use_index
        self.parallel = parallel
        self.cache = cache
        self._source = ShardedSource(database, use_index=use_index)
        self._evaluators: dict[int, PooledEvaluator] = {}
        self._max_workers = max_workers
        self._chunk_size = chunk_size

    # -- topology observability ------------------------------------------
    @property
    def shard_count(self) -> int:
        return self.database.shard_count

    @property
    def max_workers(self) -> int:
        if not self.parallel:
            return 1
        return self._shard_evaluator(0).max_workers

    def close(self) -> None:
        """Release per-shard shared-memory attachments and matrix
        exports (the persistent pool itself stays warm)."""
        for evaluator in self._evaluators.values():
            evaluator.release()

    # -- plan construction -----------------------------------------------
    def _shard_evaluator(self, index: int) -> Evaluator:
        if not self.parallel:
            return SerialEvaluator()
        evaluator = self._evaluators.get(index)
        if evaluator is None:
            evaluator = self._evaluators[index] = PooledEvaluator(
                max_workers=self._max_workers, chunk_size=self._chunk_size
            )
        return evaluator

    def _prunes(self, spec: GraphQuery) -> bool:
        """Whether the bound stage is in the cascade for ``spec``: the
        index is on and pruning is sound (:meth:`QueryPlanner.prunes` —
        vector kinds with ``tolerance > 0`` run exhaustively and rely on
        the merge's global-pool fallback)."""
        return self.use_index and QueryPlanner.prunes(spec)

    def _shared_bound_stage(self, spec: GraphQuery) -> Stage:
        """One bound-stage instance reused by every shard run (the
        cross-shard pruning channel; see the module docstring)."""
        from repro.index.source import batch_bound_stage_for

        return batch_bound_stage_for(spec)

    def _cascade(self, spec: GraphQuery) -> tuple:
        if not self._prunes(spec):
            return self._cache_stages()
        stage = self._shared_bound_stage(spec)
        return (lambda ctx: stage,) + self._cache_stages()

    def _stage_labels(self, spec: GraphQuery) -> tuple[str, ...]:
        labels: tuple[str, ...] = ()
        if self._prunes(spec):
            labels = (type(self._shared_bound_stage(spec)).name,)
        labels += self._cache_labels()
        return labels + (merge_consumer(spec).name,)

    def build_plan(self, spec: GraphQuery) -> EvaluationPlan:
        """The representative plan (single-run form over all shards).

        :meth:`run` executes the scatter-gather equivalent: the same
        cascade per shard, with per-shard sources and evaluators, then a
        merge consumer. The source here is the concatenated-scatter
        :class:`ShardedSource`, so running this plan through
        :func:`~repro.engine.core.run_plan` directly stays correct.
        """
        return EvaluationPlan(
            source=self._source,
            cascade=self._cascade(spec),
            evaluator=SerialEvaluator(),
            stage_labels=self._stage_labels(spec),
        )

    # -- execution --------------------------------------------------------
    def run(self, spec: GraphQuery) -> "BackendAnswer":
        spec.validate()
        database: ShardedGraphDatabase = self.database
        return scatter_run(
            database,
            spec,
            self._source,
            self._cascade(spec),
            self._stage_labels(spec),
            {
                index: self._shard_evaluator(index)
                for index in range(database.shard_count)
            },
            prunes=self._prunes(spec),
            cache=self.cache,
        )


register_backend(ShardedBackend.name, ShardedBackend)
