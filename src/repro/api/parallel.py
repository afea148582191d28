"""Process-pool execution backend: a pooled-evaluator plan configuration.

The expensive part of every query kind is the per-graph exact evaluation
(GED + MCS per pair); the selection step over the resulting vectors is
negligible. This backend pairs the engine's database-order candidate
source with a :class:`~repro.engine.workers.PooledEvaluator`, which fans
chunks of work out to the **persistent worker pool**
(:mod:`repro.engine.workers`) and runs the selection serially — so the
answer set is identical to ``memory`` by construction (and
property-tested to be). The database crosses the process boundary as a
shared-memory attachment written once per database object and kept
current by version-keyed row deltas; per-chunk tasks carry only graph
ids, and the long-lived workers keep their materialized payloads warm
across queries and sessions. With ``cache=``, cached pairs are served
before the fan-out and new vectors written back after it, so batching
and caching compose.

The pool machinery lives in :mod:`repro.engine.workers`;
:func:`shutdown_pool` is re-exported here for backward compatibility.
"""

from __future__ import annotations

from repro.db.database import GraphDatabase
from repro.api.spec import GraphQuery
from repro.api.backends import ExecutionBackend, register_backend
from repro.engine.workers import PooledEvaluator, shutdown_pool  # noqa: F401
from repro.engine.plan import DatabaseOrderSource, EvaluationPlan


class ParallelBackend(ExecutionBackend):
    """Exhaustive evaluation distributed over a process pool.

    Parameters
    ----------
    database:
        The target database.
    max_workers:
        Pool size (default: ``os.cpu_count()``).
    chunk_size:
        Graphs per task; ``None`` auto-sizes to ~4 chunks per worker so
        uneven per-pair costs still balance.
    cache:
        Optional shared pair cache consulted before the fan-out.
    """

    name = "parallel"

    def __init__(
        self,
        database: GraphDatabase,
        max_workers: int | None = None,
        chunk_size: int | None = None,
        cache=None,
    ) -> None:
        super().__init__(database)
        self.cache = cache
        self._evaluator = PooledEvaluator(
            max_workers=max_workers, chunk_size=chunk_size
        )

    @property
    def max_workers(self) -> int:
        return self._evaluator.max_workers

    @property
    def chunk_size(self) -> int | None:
        return self._evaluator.chunk_size

    def _chunks(self) -> list[list]:
        """How the current database would be split into pool tasks."""
        return self._evaluator.chunk(list(self.database))

    def close(self) -> None:
        """Release this session's shared-memory attachment (pool stays
        warm for other sessions; :func:`shutdown_pool` stops it)."""
        self._evaluator.release()

    def build_plan(self, spec: GraphQuery) -> EvaluationPlan:
        return EvaluationPlan(
            source=DatabaseOrderSource(),
            cascade=self._cache_stages(),
            evaluator=self._evaluator,
            stage_labels=self._cache_labels(),
        )


register_backend(ParallelBackend.name, ParallelBackend)
