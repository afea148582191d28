"""Rule-based planning: which point of the plan space ``auto`` runs.

Every backend name is a preset over one plan space — candidate source ×
bound stage × evaluator (:data:`repro.api.backends.PRESETS`). The fixed
names pin the evaluator and, through :meth:`QueryPlanner.pruning`, take
the same source and stage as ``auto``, or none. ``auto`` picks its point
per query by a rule over static inputs only: the spec, the row count,
the average graph order, the worker count and whether a pool is already
warm.

* **exhaustive** — ``database-order`` with no bound stage, only where
  bound pruning is unsound (tolerant skyline/skyband: tolerant dominance
  is not transitive).
* **bounded** — everywhere else: the packed ``indexed`` source and the
  batched bound stage for the kind, at any row count. The bounds cost
  microseconds per candidate, one exact GED/MCS pair costs milliseconds.
* **pooled** — iff the pool is usable (more than one worker, no anytime
  budget) and the rows' prior solver time exceeds the pool's break-even:
  :data:`POOL_START_SECONDS` while it is cold, :data:`POOL_WARM_SECONDS`
  once it is warm.

The same spec over the same database therefore plans the same way
whatever ran before it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.spec import GraphQuery


#: Pool break-even, cold: the worker pool's start (fork + first
#: chunk round-trips).
POOL_START_SECONDS = 1.2
#: Pool break-even, warm: chunk pickling and queue round-trips. On a
#: 2-vCPU host a warm 2-worker pool still lost to serial over 120
#: exhaustive top-k pairs (68 vs 55 ms, a 42 ms prior).
POOL_WARM_SECONDS = 0.1
#: Per-pair exact-evaluation prior per squared vertex. Fitted from the
#: e2e benchmark's traced ``solver_cold`` run (``--seed 1 --trace 1``):
#: ``graph.ms_per_pair`` 0.232 ms over a database of average order 4.17
#: vertices, i.e. 0.232e-3 / 4.17².
PAIR_SECONDS_PER_ORDER2 = 1.3e-5


@dataclass(frozen=True)
class PlanDecision:
    """One planner verdict: which plan to run and the rule's reasons.

    ``source`` ∈ ``database-order`` / ``indexed``; ``stage`` is the
    bound stage's display name, ``None`` only where pruning is unsound;
    ``evaluator`` ∈ ``serial`` / ``pooled``.
    """

    source: str
    stage: str | None
    evaluator: str
    reasons: tuple[str, ...] = ()

    @property
    def summary(self) -> str:
        prune = self.stage or "no-prune"
        return f"{self.source}+{prune}/{self.evaluator}"


class QueryPlanner:
    """The planning rule over one host's worker count."""

    def __init__(self, max_workers: int | None = None) -> None:
        self.max_workers = max(1, max_workers or os.cpu_count() or 1)

    @staticmethod
    def prunes(spec: "GraphQuery") -> bool:
        """Whether bound pruning is sound for ``spec`` — the one rule
        every backend and the worker pool's shared frontier follow
        (tolerant dominance is not transitive)."""
        return not (
            spec.kind in ("skyline", "skyband") and spec.tolerance > 0
        )

    def evaluator(
        self,
        spec: "GraphQuery",
        rows: int,
        avg_order: float,
        pool_warm: bool = False,
    ) -> tuple[str, str]:
        """``(evaluator, reason)`` for ``rows`` candidates of ``spec`` at
        ``avg_order`` vertices per graph."""
        if spec.anytime:
            return "serial", "anytime budget: evaluation is serial by design"
        if self.max_workers <= 1:
            return "serial", f"pool not usable (workers={self.max_workers})"
        solve = rows * PAIR_SECONDS_PER_ORDER2 * max(1.0, avg_order) ** 2
        break_even = POOL_WARM_SECONDS if pool_warm else POOL_START_SECONDS
        pooled = solve > break_even
        return (
            "pooled" if pooled else "serial",
            f"solver prior {solve * 1e3:.1f}ms {'>' if pooled else '≤'} "
            f"{'warm' if pool_warm else 'cold'} pool break-even "
            f"{break_even * 1e3:.0f}ms",
        )

    @classmethod
    def pruning(
        cls, spec: "GraphQuery", db_size: int
    ) -> tuple[str, str | None, str]:
        """``(source, stage, reason)``: the packed source and the batched
        bound stage wherever :meth:`prunes`, database order otherwise."""
        if cls.prunes(spec):
            from repro.index.source import batch_bound_stage_for

            return (
                "indexed",
                batch_bound_stage_for(spec).name,
                f"pruning is sound: batched bounds over {db_size} rows",
            )
        return (
            "database-order",
            None,
            "tolerant dominance is not transitive: bound pruning off",
        )

    def decide(
        self,
        spec: "GraphQuery",
        db_size: int,
        avg_order: float,
        pool_started: bool = False,
    ) -> PlanDecision:
        """The plan the rule names for ``spec`` over ``db_size`` rows."""
        source, stage, reason = self.pruning(spec, db_size)
        evaluator, why = self.evaluator(spec, db_size, avg_order, pool_started)
        return PlanDecision(source, stage, evaluator, (reason, why))


def availability() -> dict:
    """The backend presets, what the planner has to work with on this
    host, and its rule.

    Reported by ``python -m repro backends`` so users can see every name
    the one executor runs and why ``auto`` picked what it picked:
    ``cpu_count`` and the pool break-even gate pooled evaluation, and an
    already-started pool lowers the break-even.
    """
    import numpy

    from repro.api.backends import available_backends
    from repro.engine import workers

    cpu_count = os.cpu_count() or 1
    return {
        "backends": available_backends(),
        "numpy": numpy.__version__,
        "cpu_count": cpu_count,
        "pool_usable": cpu_count > 1,
        "pools_started": sorted(
            size for size, pool in workers._POOLS.items() if pool.started
        ),
        "pool_break_even_s": {
            "cold": POOL_START_SECONDS,
            "warm": POOL_WARM_SECONDS,
        },
    }
