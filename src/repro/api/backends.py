"""Pluggable execution backends: thin plan configurations over the engine.

A backend knows how to answer any :class:`~repro.api.spec.GraphQuery`
against a :class:`~repro.db.database.GraphDatabase`. Since the staged
engine refactor, no backend owns a candidate loop: each one merely
configures an :class:`~repro.engine.plan.EvaluationPlan` — candidate
source, pruning cascade, evaluator — and :func:`repro.engine.run_plan`
executes it. All backends return identical answer *sets*
(property-tested) and differ only in how much work they do:

* ``memory``  — database-order source, empty cascade, serial evaluator
  (the reference semantics);
* ``indexed`` (also spelled ``vectorized``) — :class:`repro.index.
  IndexedSource` over an incrementally-maintained packed feature matrix:
  optimistic vectors for the whole database in one batched kernel call,
  a flat bound-mask pre-filter for threshold queries, and the batched
  bound stage in the cascade, so candidates whose optimistic vector is
  already dominated never reach the exact solvers;
* ``parallel`` — database-order source, chunked process-pool evaluator
  (:class:`~repro.engine.PooledEvaluator`).

Every backend accepts ``cache=`` (a :class:`~repro.db.cache.PairCache`),
which appends the cached-pairs cascade stage — pruning, caching and
batching compose instead of living in per-backend code paths.

Backends are registered by name (:func:`register_backend`) so sessions
can be opened with ``repro.connect(db, backend="indexed")`` and new
strategies plug in without touching callers.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro.errors import QueryError
from repro.measures.base import DistanceMeasure
from repro.core.gcs import CompoundSimilarity
from repro.db.database import GraphDatabase
from repro.db.stats import QueryStats
from repro.api.spec import GraphQuery
from repro.engine.core import resolved_measures, run_plan, single_measure
from repro.engine.evaluate import SerialEvaluator
from repro.engine.plan import (
    CachedPairStage,
    DatabaseOrderSource,
    EvaluationPlan,
    cached_pairs,
)


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

    ``stage_labels`` are the labels of the plan the run executed (set by
    :func:`~repro.engine.core.run_plan` and
    :func:`~repro.engine.scatter.scatter_run`), so the session reports
    the plan that ran without planning a second time.
    """

    ids: list[int]
    evaluated_ids: list[int]
    vectors: dict[int, CompoundSimilarity]
    distances: dict[int, float] | None
    stats: QueryStats = field(default_factory=QueryStats)
    pruned_ids: list[int] = field(default_factory=list)
    intervals: dict[int, tuple] | None = None
    approximate: bool = False
    stage_labels: tuple[str, ...] = ()


class ExecutionBackend(abc.ABC):
    """Strategy interface: configures evaluation plans for query specs."""

    #: Registry key; subclasses must override.
    name: str = "abstract"

    def __init__(self, database: GraphDatabase) -> None:
        self.database = database
        self.cache = None

    @abc.abstractmethod
    def build_plan(self, spec: GraphQuery) -> EvaluationPlan:
        """The evaluation plan this backend uses for ``spec``."""

    def run(self, spec: GraphQuery) -> BackendAnswer:
        """Answer ``spec`` (validated first) against the bound database."""
        spec.validate()
        return run_plan(self.database, spec, self.build_plan(spec), cache=self.cache)

    def close(self) -> None:
        """Release backend resources (pools, sockets); default no-op."""

    # -- helpers shared with the session planner ------------------------
    @staticmethod
    def _resolve_measures(spec: GraphQuery) -> tuple[DistanceMeasure, ...]:
        return resolved_measures(spec)

    @staticmethod
    def _single_measure(
        spec: GraphQuery, measures: tuple[DistanceMeasure, ...]
    ) -> DistanceMeasure:
        """The measure of a topk/threshold query (first dimension default)."""
        return single_measure(spec, measures)

    def _cache_stages(self) -> tuple:
        """Cascade tail shared by every backend: cached pairs, when enabled."""
        return (cached_pairs,) if self.cache is not None else ()

    def _cache_labels(self) -> tuple[str, ...]:
        return (CachedPairStage.name,) if self.cache is not None else ()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} over {self.database!r}>"


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_BACKENDS: dict[str, type[ExecutionBackend]] = {}


def register_backend(name: str, backend: type[ExecutionBackend]) -> None:
    """Register a backend class under ``name`` (overwrites silently)."""
    _BACKENDS[name] = backend


def available_backends() -> list[str]:
    """Names of every registered execution backend."""
    return sorted(_BACKENDS)


def create_backend(
    name: str, database: GraphDatabase, **options: object
) -> ExecutionBackend:
    """Instantiate the backend registered under ``name``."""
    try:
        backend = _BACKENDS[name]
    except KeyError:
        raise QueryError(
            f"unknown backend {name!r}; "
            f"available: {', '.join(available_backends())}"
        ) from None
    return backend(database, **options)


# ----------------------------------------------------------------------
# memory — serial exhaustive evaluation (reference semantics)
# ----------------------------------------------------------------------
class MemoryBackend(ExecutionBackend):
    """Evaluates every database graph exactly, in insertion order."""

    name = "memory"

    def __init__(self, database: GraphDatabase, cache=None) -> None:
        super().__init__(database)
        self.cache = cache

    def build_plan(self, spec: GraphQuery) -> EvaluationPlan:
        return EvaluationPlan(
            source=DatabaseOrderSource(),
            cascade=self._cache_stages(),
            evaluator=SerialEvaluator(),
            stage_labels=self._cache_labels(),
        )


# ----------------------------------------------------------------------
# indexed — batched lower-bound pruning over the packed feature matrix
# ----------------------------------------------------------------------
class IndexedBackend(ExecutionBackend):
    """Prunes never-in-the-answer candidates via sound index lower bounds.

    The pruning argument (see :mod:`repro.engine.plan`): optimistic
    vectors are componentwise ≤ the exact vectors, so a candidate whose
    optimistic vector is already Pareto-dominated by an exact vector can
    never enter the skyline. One batched kernel call bounds every row of
    the packed :class:`~repro.index.SignatureMatrix` of a
    :class:`~repro.index.FeatureStore`, threshold queries are
    pre-filtered with one flat bound mask, and the cascade runs the
    batched bound stage for the kind. The store follows database
    mutation through the ``version`` dirty flag, row by row, so no
    manual refresh is ever needed.
    """

    name = "indexed"

    def __init__(
        self,
        database: GraphDatabase,
        use_index: bool = True,
        cache=None,
    ) -> None:
        # repro.index (NumPy) loads with the first bounded backend, not
        # with ``import repro``.
        from repro.index import FeatureStore

        super().__init__(database)
        self.use_index = use_index
        self.cache = cache
        self.store = FeatureStore(database)

    def build_plan(self, spec: GraphQuery) -> EvaluationPlan:
        from repro.index.source import (
            IndexedSource,
            batch_bound_pruning,
            batch_bound_stage_for,
        )

        prune = (batch_bound_pruning,) if self.use_index else ()
        labels = (batch_bound_stage_for(spec).name,) if self.use_index else ()
        return EvaluationPlan(
            source=IndexedSource(self.store, prefilter=self.use_index),
            cascade=prune + self._cache_stages(),
            evaluator=SerialEvaluator(),
            stage_labels=labels + self._cache_labels(),
        )


class VectorizedBackend(IndexedBackend):
    """``indexed`` under the name it had while it was the NumPy-only
    variant; kept so ``backend="vectorized"`` stays a valid spelling."""

    name = "vectorized"


register_backend(MemoryBackend.name, MemoryBackend)
register_backend(IndexedBackend.name, IndexedBackend)
register_backend(VectorizedBackend.name, VectorizedBackend)
