"""Sessions: the single front door for executing declarative queries.

``repro.connect(...)`` opens a :class:`Session` over anything graph-shaped
— a :class:`~repro.db.database.GraphDatabase`, a plain sequence of
:class:`~repro.graph.labeled_graph.LabeledGraph`, or a path to a saved
database JSON file — bound to a named execution backend. The session
plans and executes any :class:`~repro.api.spec.GraphQuery` (or fluent
:class:`~repro.api.spec.Query` builder) and returns a unified
:class:`~repro.api.result.ResultSet`::

    import repro

    with repro.connect(graphs, backend="indexed") as session:
        result = session.execute(repro.Query(q).skyline().refine(k=2))
        print(result.explain())

Every entry point of the library (engine, executor, CLI, benches) routes
through this layer, so swapping the backend never touches callers.
"""

from __future__ import annotations

import dataclasses
import math
import os
from pathlib import Path
from collections.abc import Iterable

from repro.errors import QueryError
from repro.graph.labeled_graph import LabeledGraph
from repro.measures.base import measure_names
from repro.core.diversity import refine_by_diversity
from repro.db.cache import AnswerStore
from repro.db.database import GraphDatabase
from repro.db.stats import QueryStats
from repro.api.spec import GraphQuery, Query
from repro.api.result import QueryPlan, ResultSet
from repro.api.backends import BackendAnswer, Execution, ExecutionBackend
from repro.engine.core import resolved_measures, run_plan, single_measure
from repro.engine.plan import (
    DeltaSource,
    EvaluationPlan,
    bound_pruning,
    cached_pairs,
)
from repro.shard.store import ShardedGraphDatabase


def _answer_key(spec: GraphQuery, cache) -> tuple | None:
    """``spec``'s answer-store key, or ``None`` when ``spec`` must run.

    The key is the query graph's canonical hash plus every field that
    steers ``backend.run``; ``limit`` and diversity refinement are applied
    to the run's answer afterwards, so their variants share one entry.
    It also holds the pair cache's ``generation``: answers built from
    values the cache was told to drop (``clear``, ``invalidate_subject``,
    e.g. after a measure was re-registered) are never served again.
    Without a pair cache there is no store. Anytime specs always run:
    wall-clock budgets are nondeterministic and intervals depend on
    vertex numbering. So do specs holding measure instances, which are
    not keyed by a registry name.
    """
    if cache is None or spec.anytime:
        return None
    measures = tuple(spec.measures) if spec.measures is not None else None
    named = measures or ()
    if spec.measure is not None:
        named += (spec.measure,)
    if not all(isinstance(name, str) for name in named):
        return None
    return (
        cache.generation,
        cache.query_hash(spec.graph),
        spec.kind,
        measures,
        spec.measure,
        spec.tolerance,
        spec.k,
        spec.threshold,
    )


@dataclasses.dataclass(frozen=True)
class _StoredAnswer:
    """One answer as the store keeps it: the plan that ran, private
    copies of the answer's containers that no returned result shares,
    ``rendered``, the memo of the answer's rendered names and rows
    that every hit's result shares (see ``ResultSet.rendered``), and
    ``refined``, the memo of the diversity refinements its hits asked
    for, keyed by ``(refine_k, refine_measures, refine_method)``. Memo
    values are whole values, never mutated; results hand out copies."""

    plan: QueryPlan
    ids: tuple[int, ...]
    evaluated_ids: tuple[int, ...]
    vectors: dict
    distances: dict | None
    database_size: int
    skyline_size: int
    rendered: dict = dataclasses.field(default_factory=dict, compare=False)
    refined: dict = dataclasses.field(default_factory=dict, compare=False)

    @classmethod
    def of(cls, plan: QueryPlan, answer: BackendAnswer) -> "_StoredAnswer":
        return cls(
            plan=plan,
            ids=tuple(answer.ids),
            evaluated_ids=tuple(answer.evaluated_ids),
            vectors=dict(answer.vectors),
            distances=None if answer.distances is None else dict(answer.distances),
            database_size=answer.stats.database_size,
            skyline_size=answer.stats.skyline_size,
        )

    def known(self, removed: set[int]) -> dict[int, tuple[float, ...]]:
        """Exact values of the evaluated graphs not in ``removed``."""
        if self.distances is not None:
            return {
                graph_id: (distance,)
                for graph_id, distance in self.distances.items()
                if graph_id not in removed
            }
        return {
            graph_id: vector.values
            for graph_id, vector in self.vectors.items()
            if graph_id not in removed
        }

    def reuse(self, version: int) -> tuple[QueryPlan, BackendAnswer]:
        """The plan and a fresh answer for one reuse, with the stats of a
        read that did no work."""
        return self.plan, BackendAnswer(
            ids=list(self.ids),
            evaluated_ids=list(self.evaluated_ids),
            vectors=dict(self.vectors),
            distances=None if self.distances is None else dict(self.distances),
            stats=QueryStats(
                database_size=self.database_size,
                skyline_size=self.skyline_size,
                reused_version=version,
            ),
        )


class Session:
    """An open connection between a database and an execution backend.

    Parameters
    ----------
    database:
        The target database.
    backend:
        A backend name (see :data:`~repro.api.backends.PRESETS`) or a
        ready :class:`~repro.api.backends.ExecutionBackend` instance.
    measures:
        Session-wide default GCS dimensions, used whenever a spec leaves
        ``measures`` unset (``None`` keeps the paper's default).
    shards:
        Partition the database across this many shards (see
        :class:`~repro.shard.store.ShardedGraphDatabase`). A monolithic
        ``database`` is re-partitioned (ids and metadata preserved, the
        source object untouched); an already-sharded one is re-sharded
        only when the count differs. ``backend="sharded"`` with no
        ``shards`` defaults to 2.
    placement:
        Shard placement policy name (``"hash"``/``"size-balanced"``) or
        instance; only consulted when a (re-)partition happens.
    backend_options:
        Forwarded to the backend constructor: ``cache=...`` and
        ``max_workers=...``.
    """

    def __init__(
        self,
        database: GraphDatabase,
        backend: "str | ExecutionBackend" = "memory",
        measures: tuple[object, ...] | None = None,
        shards: int | None = None,
        placement: object = "hash",
        **backend_options: object,
    ) -> None:
        if shards is not None and isinstance(backend, ExecutionBackend):
            # Re-partitioning would desynchronize session.database from
            # the database the ready-made backend is bound to.
            raise QueryError(
                "shards= cannot be combined with a backend instance; "
                "bind the backend to a ShardedGraphDatabase instead"
            )
        if shards is None and backend == "sharded" and not isinstance(
            database, ShardedGraphDatabase
        ):
            shards = 2
        if shards is not None and (
            not isinstance(database, ShardedGraphDatabase)
            or database.shard_count != shards
        ):
            database = ShardedGraphDatabase.from_database(
                database, shards=shards, placement=placement
            )
        self.database = database
        self.default_measures = tuple(measures) if measures is not None else None
        if isinstance(backend, ExecutionBackend):
            if backend_options:
                raise QueryError(
                    "backend options cannot be combined with a backend instance"
                )
            self._backend = backend
        else:
            self._backend = ExecutionBackend(database, backend, **backend_options)
        self._answers = AnswerStore()
        self._closed = False

    # -- lifecycle ------------------------------------------------------
    @property
    def backend(self) -> ExecutionBackend:
        """The live execution backend."""
        return self._backend

    @property
    def backend_name(self) -> str:
        return self._backend.name

    def close(self) -> None:
        """Close the session; further queries raise QueryError."""
        self._closed = True

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"<Session backend={self.backend_name!r} "
            f"database={self.database.name!r} ({len(self.database)} graphs)>"
        )

    # -- planning and execution -----------------------------------------
    def _materialize(self, query: "GraphQuery | Query") -> GraphQuery:
        spec = query.build() if isinstance(query, Query) else query.validate()
        if spec.measures is None and self.default_measures is not None:
            spec = dataclasses.replace(
                spec, measures=self.default_measures
            ).validate()
        return spec

    def plan(self, query: "GraphQuery | Query") -> QueryPlan:
        """How this session would execute ``query`` (no evaluation)."""
        spec = self._materialize(query)
        return self._query_plan(spec, self._backend.execution(spec))

    def _query_plan(self, spec: GraphQuery, execution: Execution) -> QueryPlan:
        """The plan of ``execution``, the decision a run of ``spec`` took."""
        measures = resolved_measures(spec)
        if spec.kind in ("topk", "threshold"):
            names: tuple[str, ...] = (single_measure(spec, measures).name,)
        else:
            names = measure_names(measures)
        return QueryPlan(
            backend=self.backend_name,
            kind=spec.kind,
            database_size=len(self.database),
            measures=names,
            uses_index=execution.decision.stage is not None,
            workers=execution.workers,
            stages=execution.stages,
            shards=self.database.shard_count if execution.scattered else 1,
        )

    def execute(self, query: "GraphQuery | Query") -> ResultSet:
        """Plan and run ``query``, returning the unified result set.

        With a pair cache (``cache=``, the opt-in to cross-query reuse),
        the session also keeps an :class:`~repro.db.cache.AnswerStore`: a
        spec already answered at the current database version is served
        from it without planning, scanning or probing a pair, and its
        stats say so (``stats.reused``). A spec answered at an older
        version is brought forward over the database's change log
        instead of re-run (see :meth:`_replay`; ``stats.replayed_from``).
        Anytime specs and specs holding measure instances always run.
        """
        return self._read(self._materialize(query), self._answers)

    def _read(self, spec: GraphQuery, store) -> ResultSet:
        """Answer ``spec`` through ``store``: a hit on its entry at the
        current version, a replay of an older entry, or a full run.

        ``store`` is the session's :class:`~repro.db.cache.AnswerStore`
        for :meth:`execute`, or a :class:`~repro.engine.views.LiveView`'s
        one entry; both answer ``get``, ``put`` and ``count``. An answer
        computed at one version is put back.
        """
        if self._closed:
            raise QueryError("session is closed")
        cache = self._backend.cache
        key = _answer_key(spec, cache)
        version = self.database.version
        entry = store.get(key) if key is not None else None
        if entry is not None and entry[0] == version:
            store.count("hits")
            stored = entry[1]
            plan, answer = stored.reuse(version)
            return self._result(spec, plan, answer, cache, (0, 0), stored)
        probes = (cache.hits, cache.misses) if cache is not None else (0, 0)
        replayed = None
        if entry is not None:
            replayed = self._replay(spec, cache, *entry)
        if replayed is not None:
            store.count("replays")
            plan, answer = replayed
        else:
            if key is not None:
                store.count("misses")
            answer = self._backend.run(spec)
            plan = self._query_plan(spec, answer.execution)
        if cache is not None:
            probes = (cache.hits - probes[0], cache.misses - probes[1])
        # A mutation during the run may or may not be reflected in its
        # answer, so only an answer computed at one version is stored.
        if key is not None and self.database.version == version:
            store.put(version, key, _StoredAnswer.of(plan, answer))
        return self._result(spec, plan, answer, cache, probes)

    def _replay(
        self, spec: GraphQuery, cache, since: int, stored: _StoredAnswer
    ) -> tuple[QueryPlan, BackendAnswer] | None:
        """``stored`` (the answer at version ``since``) brought forward to
        the current version, or ``None`` when the read must run in full.

        The replay runs :func:`~repro.engine.core.run_plan` over a
        :class:`~repro.engine.plan.DeltaSource`: the stored exact values
        of the evaluated graphs minus the removed ones are seeded, each
        graph added since ``since`` is judged by the kind's scalar bound
        stage, survivors go through the pair cache or are solved, and the
        kind's consumer selects over seeded ∪ new values. Let ``V`` be
        that set, ``L`` the live graphs and ``A`` the added ones. The
        consumer over ``V`` returns a full run's ids and exact values:

        * threshold: the answer is every live graph within the threshold.
          The stored evaluated set held every graph within it at
          ``since`` (the others were soundly pruned), so dropping removed
          graphs, whatever they are, and judging ``A`` leaves exactly the
          live ones in ``V``.
        * top-k (ties by id), no removed answer member: a graph live at
          ``since`` and outside the stored top-k is beaten by k stored
          members, all still live, so the new top-k lies in the stored
          top-k ∪ ``A``. An added graph is pruned only when its bound
          exceeds the k-th best value in ``V``. So ``V`` holds the new
          top-k, and the k best of ``V`` are the k best of ``L``.
        * skyline and k-skyband (skyline: k = 1), tolerance 0, no removed
          answer member: exact dominance is a strict partial order, so a
          graph dominated by ≥ k graphs is dominated by ≥ k members of
          the k-skyband (the first k of its dominators in a linear
          extension of dominance have < k dominators each). A graph live
          at ``since`` and outside the stored band is therefore dominated
          by ≥ k stored members, all still live: removals promote nothing,
          and the new band lies in the stored band ∪ ``A``. An added
          graph is pruned only when ≥ k values in ``V`` dominate its
          bound, hence its exact vector. So ``V`` holds the new band
          ``B``; a member of ``B`` has < k dominators in ``L ⊇ V``, and a
          graph of ``V`` outside ``B`` has ≥ k dominators in ``B ⊆ V``.

        The read runs in full when the change log no longer reaches back
        to ``since``, when a removed graph was in a top-k, skyline or
        skyband answer, when ``tolerance > 0`` (tolerant dominance is not
        transitive) and when a value is NaN (NaN compares as a tie, which
        breaks transitivity and the ranking). Sharded stores replay
        globally: ``database.entry`` resolves any id, so nothing scatters.
        """
        if spec.tolerance > 0:
            return None
        delta = self.database.changes_since(since)
        if delta is None:
            return None
        added, removed = delta
        gone = set(removed)
        if spec.kind != "threshold" and not gone.isdisjoint(stored.ids):
            return None
        plan = EvaluationPlan(
            source=DeltaSource(added, stored.known(gone)),
            cascade=(bound_pruning, cached_pairs),
        )
        answer = run_plan(self.database, spec, plan, cache)
        if answer.distances is not None:
            values = list(answer.distances.values())
        else:
            values = [
                value
                for vector in answer.vectors.values()
                for value in vector.values
            ]
        if any(math.isnan(value) for value in values):
            return None
        answer.stats.replayed_from = since
        answer.stats.replayed_delta = (len(added), len(removed))
        size = len(self.database)
        return dataclasses.replace(stored.plan, database_size=size), answer

    @property
    def answer_store(self) -> AnswerStore:
        """This session's store of whole answers (used with a pair cache)."""
        return self._answers

    def _result(
        self,
        spec: GraphQuery,
        plan: QueryPlan,
        answer: BackendAnswer,
        cache,
        probes: tuple[int, int],
        stored: _StoredAnswer | None = None,
    ) -> ResultSet:
        """Package a backend answer: refinement, ``limit`` and the pair
        cache's ``(hits, misses)`` during this read. On a hit, ``stored``
        is the hit entry, whose memos of rendered rows and refinements
        the result reads and fills."""
        cache_info = None
        if cache is not None:
            cache_info = {
                "hits": probes[0],
                "misses": probes[1],
                "served": answer.stats.served_from_cache,
                "pinned": cache.pinned,
                "pin_limit": cache.pin_limit,
            }

        refinement = None
        if (
            spec.refine_k is not None
            and spec.kind in ("skyline", "skyband")
            and spec.refine_k < len(answer.ids)
        ):
            refinement = self._refine(spec, answer.ids, stored)

        ids = answer.ids
        if spec.limit is not None:
            ids = ids[: spec.limit]
        return ResultSet(
            spec=spec,
            plan=plan,
            database=self.database,
            ids=ids,
            evaluated_ids=answer.evaluated_ids,
            vectors=answer.vectors,
            distances=answer.distances,
            stats=answer.stats,
            refinement=refinement,
            cache_info=cache_info,
            intervals=answer.intervals,
            approximate=answer.approximate,
            rendered=None if stored is None else stored.rendered,
        )

    def _refine(self, spec: GraphQuery, ids, stored: _StoredAnswer | None):
        """``spec``'s diversity refinement of the answer ``ids``, through
        the ``stored`` answer's memo on a hit: the stored ids cannot
        change, so the first hit solves the refinement for its key and
        every later one gets a copy. Specs refining over measure
        instances, which are not keyed by a registry name, are always
        solved."""
        key = (spec.refine_k, spec.refine_measures, spec.refine_method)
        memo = None if stored is None else stored.refined
        if spec.refine_measures is not None and not all(
            isinstance(name, str) for name in spec.refine_measures
        ):
            memo = None
        refinement = None if memo is None else memo.get(key)
        if refinement is None:
            refinement = refine_by_diversity(
                [self.database.get(graph_id) for graph_id in ids],
                spec.refine_k,
                measures=spec.refine_measures,
                method=spec.refine_method,
            )
            if memo is not None:
                memo[key] = refinement
        return dataclasses.replace(
            refinement,
            graphs=list(refinement.graphs),
            candidates=list(refinement.candidates),
        )

    def watch(self, query: "GraphQuery | Query") -> "LiveView":
        """Materialize ``query`` as a live view that follows database
        mutation (see :class:`repro.engine.views.LiveView`).

        Any spec is watchable: the view reads through :meth:`execute`'s
        path over an answer entry of its own, so with a pair cache a
        refresh replays the view's last answer over the change log.
        """
        from repro.engine.views import LiveView

        return LiveView(self, self._materialize(query))


def connect(
    source: "GraphDatabase | Iterable[LabeledGraph] | str | os.PathLike",
    backend: "str | ExecutionBackend" = "memory",
    measures: tuple[object, ...] | None = None,
    name: str = "graphdb",
    shards: int | None = None,
    placement: object = "hash",
    **backend_options: object,
) -> Session:
    """Open a :class:`Session` over ``source``.

    ``source`` may be a :class:`~repro.db.database.GraphDatabase` (used
    as-is), an iterable of graphs (loaded into a fresh database), or a
    path to a database JSON file saved with
    :func:`repro.db.persistence.save_database`. With ``shards=N`` (or
    ``backend="sharded"``) the session runs over a
    :class:`~repro.shard.store.ShardedGraphDatabase` partitioned by
    ``placement``. Answers never depend on placement; for a
    *bit-identical* re-shard of a saved database, load it with
    ``load_database(path, preserve_ids=True)`` first (the default load
    compacts ids, which moves hash-placed graphs).
    """
    if isinstance(source, GraphDatabase):
        database = source
    elif isinstance(source, (str, os.PathLike, Path)):
        from repro.db.persistence import load_database

        database = load_database(source)
    else:
        database = GraphDatabase.from_graphs(source, name=name)
    return Session(
        database,
        backend=backend,
        measures=measures,
        shards=shards,
        placement=placement,
        **backend_options,
    )
