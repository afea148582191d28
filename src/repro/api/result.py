"""Unified result sets for the declarative query API.

:class:`ResultSet` is the one result shape of every query: one object
carrying the answer graphs *and* their ids, the exact GCS vectors (or
single-measure distances) of everything that was evaluated, the execution
statistics, the diversity refinement when requested, and renderers
(``to_rows``, ``to_json``, ``explain``) every caller — library, CLI,
benches — shares.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from collections.abc import Iterator

from repro.graph.labeled_graph import LabeledGraph
from repro.core.gcs import CompoundSimilarity
from repro.core.diversity import DiversityResult
from repro.db.database import GraphDatabase
from repro.db.stats import QueryStats
from repro.api.spec import GraphQuery


@dataclass(frozen=True)
class QueryPlan:
    """How a session decided to execute a spec (returned by ``plan()``)."""

    backend: str
    kind: str
    database_size: int
    measures: tuple[str, ...]
    uses_index: bool
    workers: int = 1
    #: Cascade stage labels of the engine plan (empty = straight to exact).
    stages: tuple[str, ...] = ()
    #: Shard count of a scatter-gather backend (1 = monolithic).
    shards: int = 1

    def describe(self) -> str:
        """One-line human-readable plan."""
        pruning = "index lower-bound pruning" if self.uses_index else "full scan"
        fan_out = f", {self.workers} workers" if self.workers > 1 else ""
        scatter = f", {self.shards} shards" if self.shards > 1 else ""
        cascade = f"; cascade: {' → '.join(self.stages)}" if self.stages else ""
        return (
            f"{self.kind} over {self.database_size} graphs via "
            f"{self.backend!r} ({pruning}{fan_out}{scatter}; "
            f"measures: {', '.join(self.measures)}{cascade})"
        )


@dataclass
class ResultSet:
    """Outcome of one executed :class:`~repro.api.spec.GraphQuery`.

    Attributes
    ----------
    spec:
        The query that produced this result.
    plan:
        The execution plan the session chose.
    ids:
        Answer ids (sorted for skyline/skyband, ranked for topk/threshold),
        after refinement and ``limit`` were applied.
    evaluated_ids:
        Every id whose exact vector/distance was computed (pruned ids are
        absent).
    vectors:
        Exact GCS vectors keyed by id (skyline/skyband kinds).
    distances:
        Exact single-measure distances keyed by id (topk/threshold kinds).
    stats:
        Execution counters and phase timings.
    refinement:
        Section-VII diversity refinement, when the spec requested one and
        the answer was large enough to need it.
    cache_info:
        Pair-cache counters for *this* query (``hits``/``misses`` deltas
        of the backend's shared cache, plus ``served`` — candidates whose
        exact vector the cache replaced — and the query-hash memo's
        ``pinned``/``pin_limit`` occupancy); ``None`` when the backend
        runs uncached. A read served from the session's answer store
        probes no pair, so its deltas are zero; a replayed read counts
        the probes of the added graphs it judged.
    intervals:
        Anytime (budgeted) runs only: certified ``[lower, upper]``
        :class:`~repro.graph.budget.Interval` vectors per candidate that
        survived the cascade. Settled intervals are exact values; open
        ones bracket the true distance. ``None`` for exact runs.
    approximate:
        True when the budget expired before the answer was certified —
        the answer is then the best-effort selection over certified
        upper bounds; reported vectors/distances of unsettled candidates
        are their upper bounds.
    rendered:
        Answer-store hits only: the stored answer's memo of rendered
        ``(names, rows)`` tuples, keyed by the length of :attr:`ids`
        (``limit`` variants share one stored answer). The first hit of
        each length fills it; renderers return fresh copies of it.
        ``None`` (every other read) renders from the database.
    """

    spec: GraphQuery
    plan: QueryPlan
    database: GraphDatabase = field(repr=False)
    ids: list[int] = field(default_factory=list)
    evaluated_ids: list[int] = field(default_factory=list)
    vectors: dict[int, CompoundSimilarity] = field(default_factory=dict)
    distances: dict[int, float] | None = None
    stats: QueryStats = field(default_factory=QueryStats)
    refinement: DiversityResult | None = None
    cache_info: dict[str, int] | None = None
    intervals: dict[int, tuple] | None = None
    approximate: bool = False
    rendered: dict[int, tuple] | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        # A hit fills the stored answer's memo now, from the fresh copies
        # it was just given, so nothing a caller later does to this
        # result's containers can reach the memo. Only a whole tuple is
        # assigned: threads that fill it at once store equal values.
        if self.rendered is not None and len(self.ids) not in self.rendered:
            names, rows = self._render()
            self.rendered[len(self.ids)] = (tuple(names), tuple(rows))

    # -- answer access --------------------------------------------------
    @property
    def graphs(self) -> list[LabeledGraph]:
        """The answer graphs, aligned with :attr:`ids`."""
        return [self.database.get(graph_id) for graph_id in self.ids]

    @property
    def names(self) -> list[str]:
        """Answer graph names (``#<id>`` fallback), aligned with ids."""
        memo = self._memo()
        if memo is not None:
            return list(memo[0])
        return [
            self.database.get(graph_id).name or f"#{graph_id}"
            for graph_id in self.ids
        ]

    @property
    def measures(self) -> tuple[str, ...]:
        """Names of the evaluated dimensions."""
        return self.plan.measures

    def vector(self, graph_id: int) -> CompoundSimilarity:
        """The exact GCS vector of an evaluated graph."""
        return self.vectors[graph_id]

    def distance(self, graph_id: int) -> float:
        """The exact single-measure distance of an evaluated graph."""
        if self.distances is None:
            raise KeyError("this result carries vectors, not distances")
        return self.distances[graph_id]

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[LabeledGraph]:
        return iter(self.graphs)

    def __contains__(self, graph: object) -> bool:
        # Structural equality, not identity: sessions opened over plain
        # graph sequences store defensive copies, so the caller's objects
        # are never the stored ones.
        return any(member is graph or member == graph for member in self.graphs)

    # -- renderers -------------------------------------------------------
    def to_rows(self) -> list[dict[str, object]]:
        """Table-III-style rows over everything evaluated, in id order.

        Vector kinds yield one column per measure plus ``in_answer``;
        distance kinds yield the measure column plus ``rank`` (``None``
        for evaluated graphs outside the answer).
        """
        return self._rendered()[1]

    def _render(self) -> tuple[list[str], list[dict[str, object]]]:
        """Answer names and rows, one database lookup per evaluated id."""
        get = self.database.get
        named = [
            (graph_id, get(graph_id).name or f"#{graph_id}")
            for graph_id in sorted(self.evaluated_ids)
        ]
        member = set(self.ids)
        if self.distances is not None:
            rank_of = {graph_id: rank for rank, graph_id in enumerate(self.ids, 1)}
            measure = self.measures[0]
            rows = [
                {
                    "id": graph_id,
                    "graph": name,
                    measure: self.distances[graph_id],
                    "rank": rank_of.get(graph_id),
                    "in_answer": graph_id in member,
                }
                for graph_id, name in named
            ]
        else:
            rows = [
                {
                    "id": graph_id,
                    "graph": name,
                    **self.vectors[graph_id].as_dict(),
                    "in_answer": graph_id in member,
                }
                for graph_id, name in named
            ]
        name_of = dict(named)
        names = [
            name_of[graph_id] if graph_id in name_of
            else get(graph_id).name or f"#{graph_id}"
            for graph_id in self.ids
        ]
        return names, rows

    def _memo(self) -> tuple[tuple[str, ...], tuple[dict, ...]] | None:
        """The stored answer's rendering of this answer, or ``None``."""
        if self.rendered is None:
            return None
        return self.rendered.get(len(self.ids))

    def _rendered(self) -> tuple[list[str], list[dict[str, object]]]:
        """Fresh answer names and rows: copies of the memo on an
        answer-store hit, else one render from the database."""
        memo = self._memo()
        if memo is None:
            return self._render()
        return list(memo[0]), [dict(row) for row in memo[1]]

    def to_dict(self) -> dict[str, object]:
        """Plain-data payload of the whole result (JSON-representable)."""
        names, rows = self._rendered()
        payload: dict[str, object] = {
            "kind": self.spec.kind,
            "backend": self.plan.backend,
            "measures": list(self.measures),
            "ids": list(self.ids),
            "answer": names,
            "rows": rows,
            "stats": {
                "database_size": self.stats.database_size,
                "candidates_considered": self.stats.candidates_considered,
                "exact_evaluations": self.stats.exact_evaluations,
                "pruned_by_index": self.stats.pruned_by_index,
                "pruned_by_batch": self.stats.pruned_by_batch,
                "served_from_cache": self.stats.served_from_cache,
                "pruned_by_stage": dict(self.stats.pruned_by_stage),
                "source_ms": round(self.stats.source_ms, 3),
                "cascade_ms": round(self.stats.cascade_ms, 3),
                "evaluate_ms": round(self.stats.evaluate_ms, 3),
                "reused": self.stats.reused,
                "replayed_from": self.stats.replayed_from,
            },
        }
        if self.stats.planner is not None:
            payload["stats"]["planner"] = {
                key: (dict(value) if isinstance(value, dict) else value)
                for key, value in self.stats.planner.items()
            }
        if self.stats.per_shard is not None:
            payload["stats"]["per_shard"] = [
                dict(row) for row in self.stats.per_shard
            ]
        if self.stats.pool is not None:
            payload["stats"]["pool"] = {
                key: (dict(value) if isinstance(value, dict) else value)
                for key, value in self.stats.pool.items()
            }
        if self.stats.anytime is not None:
            payload["stats"]["anytime"] = dict(self.stats.anytime)
        if self.intervals is not None:
            payload["approximate"] = self.approximate
            payload["intervals"] = {
                str(graph_id): [interval.to_wire() for interval in intervals]
                for graph_id, intervals in sorted(self.intervals.items())
            }
        if self.cache_info is not None:
            payload["cache"] = dict(self.cache_info)
        if self.refinement is not None:
            payload["refined"] = [
                graph.name or "?" for graph in self.refinement.subset
            ]
        return payload

    def to_json(self, **dumps_kwargs: object) -> str:
        """JSON string of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), **dumps_kwargs)

    def explain(self) -> str:
        """Human-readable account of the plan, the work, and the answer."""
        lines = [self.plan.describe(), self.stats.summary()]
        if self.stats.reused:
            lines.append(
                "answer store: reused the answer computed at database "
                f"version {self.stats.reused_version}; no candidate was touched"
            )
        if self.stats.replayed_from is not None:
            added, removed = self.stats.replayed_delta
            lines.append(
                "answer store: replayed the answer of version "
                f"{self.stats.replayed_from} over +{added}/−{removed} "
                "changes"
            )
        if self.stats.planner is not None:
            planner = self.stats.planner
            lines.append(f"planner: chose {planner.get('summary', 'auto')}")
            for reason in planner.get("reasons") or []:
                lines.append(f"  rule: {reason}")
        if self.stats.pruned_by_stage:
            breakdown = ", ".join(
                f"{name}: {count}"
                for name, count in sorted(self.stats.pruned_by_stage.items())
            )
            lines.append(f"pruned by stage: {breakdown}")
        lines.append(
            f"phases: source={self.stats.source_ms:.1f}ms "
            f"cascade={self.stats.cascade_ms:.1f}ms "
            f"evaluate={self.stats.evaluate_ms:.1f}ms"
        )
        if self.intervals is not None:
            open_count = sum(
                1
                for intervals in self.intervals.values()
                if any(not interval.settled for interval in intervals)
            )
            status = (
                "approximate — budget expired with straddling intervals"
                if self.approximate
                else "certified — intervals decide the exact answer"
            )
            lines.append(
                f"anytime: {status} "
                f"({open_count}/{len(self.intervals)} intervals left open)"
            )
        if self.stats.per_shard is not None:
            for row in self.stats.per_shard:
                lines.append(
                    "  shard {shard}: size={size} candidates={candidates} "
                    "pruned={pruned} evaluated={evaluated} "
                    "served={served}".format(**row)
                )
        if self.stats.pool is not None:
            pool = self.stats.pool
            lines.append(
                f"worker pool: workers={pool.get('workers', 0)} "
                f"chunks={pool.get('chunks', 0)} "
                f"respawns={pool.get('respawns', 0)}"
            )
        if self.cache_info is not None:
            pins = ""
            if "pinned" in self.cache_info:
                pins = " pinned={pinned}/{pin_limit}".format(**self.cache_info)
            lines.append(
                "pair cache: hits={hits} misses={misses} served={served}".format(
                    **self.cache_info
                )
                + pins
            )
        if self.spec.kind in ("topk", "threshold") and self.stats.pruned_by_batch:
            lines.append(
                f"batch pre-filter: {self.stats.pruned_by_batch} candidates "
                "removed in one vectorized pass"
            )
        if self.spec.kind in ("skyline", "skyband") and self.vectors:
            member = set(self.ids)
            for graph_id in sorted(self.evaluated_ids):
                vector = self.vectors[graph_id]
                name = self.database.get(graph_id).name or f"#{graph_id}"
                values = ", ".join(
                    f"{m}={v:.3g}" for m, v in zip(vector.measures, vector.values)
                )
                status = "in answer" if graph_id in member else "dominated"
                lines.append(f"  {name} ({values}) — {status}")
            pruned = self.stats.pruned_by_index
            if pruned:
                batched = (
                    f", {self.stats.pruned_by_batch} in one batched pass"
                    if self.stats.pruned_by_batch
                    else ""
                )
                lines.append(
                    f"  (+{pruned} candidates pruned by index lower bounds "
                    f"without exact evaluation{batched})"
                )
        if self.refinement is not None:
            names = ", ".join(g.name or "?" for g in self.refinement.subset)
            lines.append(
                f"refined to {self.refinement.k} diverse representatives: {names}"
            )
        return "\n".join(lines)
