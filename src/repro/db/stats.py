"""Execution statistics for similarity-skyline queries.

Collected by the executor and surfaced in results and traces: how many
candidates the index pruned, how many exact evaluations ran, and
wall-clock phase timings. The counters make the effect of pruning
directly observable rather than inferred from timings alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class QueryStats:
    """Counters and timings for one executed query."""

    database_size: int = 0
    candidates_considered: int = 0
    pruned_by_index: int = 0
    #: Of ``pruned_by_index``, how many were removed by a candidate
    #: source's batched pre-filter (one vectorized pass) rather than by
    #: a per-candidate cascade stage.
    pruned_by_batch: int = 0
    exact_evaluations: int = 0
    served_from_cache: int = 0
    skyline_size: int = 0
    #: Of ``pruned_by_index``, per-stage attribution keyed by the stage's
    #: ``name`` (e.g. ``"pareto-bound"``); batched pre-filter removals are
    #: booked under ``"batch-prefilter"``. Sums to ``pruned_by_index``.
    pruned_by_stage: dict[str, int] = field(default_factory=dict)
    phase_seconds: dict[str, float] = field(default_factory=dict)
    #: Planner decision record (``None`` for a run outside a backend):
    #: chosen source/stages/evaluator and the planning rule's reasons.
    planner: dict[str, object] | None = None
    #: Scatter-gather breakdown: one row per shard (``shard``, ``size``,
    #: ``candidates``, ``pruned``, ``evaluated``, ``served``), in shard
    #: order, empty shards included. ``None`` for monolithic runs.
    per_shard: list[dict[str, int]] | None = None
    #: Persistent worker-pool telemetry (``None`` for serial runs):
    #: ``workers`` (0 when the pool could not start and the drain solved
    #: in-process), ``chunks`` shipped, ``respawns`` (worker deaths
    #: recovered during this query).
    pool: dict[str, object] | None = None
    #: Anytime-execution telemetry (``None`` unless the query carried a
    #: budget): ``passes`` (budgeted evaluation passes run), ``refined``
    #: (passes beyond the first, i.e. progressive refinement work),
    #: ``settled`` (candidates whose intervals collapsed to exact
    #: values), ``interval_pruned`` (candidates excluded with their
    #: intervals still open — they provably cannot change the answer),
    #: ``starved`` (candidates never evaluated before the budget ran
    #: out), ``budget_spent_ms`` (wall clock consumed).
    anytime: dict[str, object] | None = None
    #: Database version of the stored answer this read reused from the
    #: session's answer store (``None``: the read ran). A reused read did
    #: no work, so every counter above is zero and ``phase_seconds`` empty.
    reused_version: int | None = None
    #: Database version of the stored answer this read brought forward
    #: over the change log (``None``: no replay). A replay's counters
    #: cover its own work only: the added graphs it judged.
    replayed_from: int | None = None
    #: ``(added, removed)`` graph counts of the change-log delta a replay
    #: applied.
    replayed_delta: tuple[int, int] = (0, 0)

    @property
    def reused(self) -> bool:
        """Whether this read was served whole from the answer store."""
        return self.reused_version is not None

    def count_prune(self, stage_name: str, count: int = 1) -> None:
        """Attribute ``count`` cascade prunes to ``stage_name``."""
        self.pruned_by_stage[stage_name] = (
            self.pruned_by_stage.get(stage_name, 0) + count
        )

    @property
    def pruning_ratio(self) -> float:
        """Fraction of candidates skipped thanks to index bounds."""
        if self.candidates_considered == 0:
            return 0.0
        return self.pruned_by_index / self.candidates_considered

    @property
    def source_ms(self) -> float:
        """Wall-clock spent enumerating/bounding candidates, in ms."""
        return (
            self.phase_seconds.get("source", 0.0)
            + self.phase_seconds.get("bounds", 0.0)
        ) * 1000.0

    @property
    def cascade_ms(self) -> float:
        """Wall-clock spent in per-candidate cascade stages, in ms."""
        return self.phase_seconds.get("cascade", 0.0) * 1000.0

    @property
    def evaluate_ms(self) -> float:
        """Wall-clock spent on exact evaluations (incl. drain), in ms."""
        return self.phase_seconds.get("evaluate", 0.0) * 1000.0

    def summary(self) -> str:
        """One-line human-readable summary."""
        timings = ", ".join(
            f"{phase}={seconds * 1000:.1f}ms"
            for phase, seconds in self.phase_seconds.items()
        )
        cached = (
            f" cached={self.served_from_cache}" if self.served_from_cache else ""
        )
        batched = (
            f" (batch={self.pruned_by_batch})" if self.pruned_by_batch else ""
        )
        stages = ""
        if self.pruned_by_stage:
            breakdown = ",".join(
                f"{name}:{count}"
                for name, count in sorted(self.pruned_by_stage.items())
            )
            stages = f" stages[{breakdown}]"
        planner = ""
        if self.planner is not None:
            planner = f" plan={self.planner.get('summary', 'auto')}"
        sharded = (
            f" shards={len(self.per_shard)}" if self.per_shard is not None else ""
        )
        pool = ""
        if self.pool is not None:
            pool = (
                f" pool[workers={self.pool.get('workers', 0)}"
                f" chunks={self.pool.get('chunks', 0)}"
                f" respawns={self.pool.get('respawns', 0)}]"
            )
        anytime = ""
        if self.anytime is not None:
            anytime = (
                f" anytime[passes={self.anytime.get('passes', 0)}"
                f" refined={self.anytime.get('refined', 0)}"
                f" settled={self.anytime.get('settled', 0)}"
                f" interval_pruned={self.anytime.get('interval_pruned', 0)}"
                f" starved={self.anytime.get('starved', 0)}"
                f" spent={self.anytime.get('budget_spent_ms', 0)}ms]"
            )
        reused = f" reused@v{self.reused_version}" if self.reused else ""
        if self.replayed_from is not None:
            added, removed = self.replayed_delta
            reused = f" replayed@v{self.replayed_from}(+{added}/-{removed})"
        return (
            f"n={self.database_size} evaluated={self.exact_evaluations} "
            f"pruned={self.pruned_by_index}{batched}{stages}{cached}"
            f"{sharded}{pool}{anytime}{planner}{reused} "
            f"skyline={self.skyline_size} [{timings}]"
        )


class PhaseTimer:
    """Context manager recording a phase duration into ``stats``."""

    def __init__(self, stats: QueryStats, phase: str) -> None:
        self._stats = stats
        self._phase = phase
        self._start = 0.0

    def __enter__(self) -> "PhaseTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        elapsed = time.perf_counter() - self._start
        previous = self._stats.phase_seconds.get(self._phase, 0.0)
        self._stats.phase_seconds[self._phase] = previous + elapsed
