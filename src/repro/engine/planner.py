"""Rule-based planning: which point of the plan space ``auto`` runs.

Every backend name is a preset over one plan space — candidate source ×
bound stage × evaluator (:data:`repro.api.backends.PRESETS`). The fixed
names pin the evaluator and, through :meth:`QueryPlanner.pruning`, take
the same source and stage as ``auto``, or none. ``auto`` picks its point
per query by a rule over the spec alone:

* **exhaustive** — ``database-order`` with no bound stage, only where
  bound pruning is unsound (tolerant skyline/skyband: tolerant dominance
  is not transitive).
* **bounded** — everywhere else: the packed ``indexed`` source and the
  batched bound stage for the kind, at any row count. The bounds cost
  microseconds per candidate, one exact GED/MCS pair costs milliseconds.

The evaluator is always **serial**. Each exact vector it solves tightens
the bound stage's cutoff before the next pair, and the next pair is
solved against that cutoff; a pool solves a deferred batch without that
feedback. On a 2-vCPU host the pooled threshold read of an 8-vertex
workload made 212 exact evaluations against serial's 37 and ran ~50×
slower, and its skyline and top-k reads lost too. The worker pool stays
behind the exhaustive ``parallel`` preset.

The same spec over the same database therefore plans the same way
whatever ran before it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.spec import GraphQuery


#: The evaluator reason of every ``auto`` plan.
SERIAL_REASON = "serial: each exact vector tightens the next pair's cutoff"


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
    """The planning rule of ``auto``."""

    @staticmethod
    def prunes(spec: "GraphQuery") -> bool:
        """Whether bound pruning is sound for ``spec`` — the one rule
        every backend follows (tolerant dominance is not transitive)."""
        return not (
            spec.kind in ("skyline", "skyband") and spec.tolerance > 0
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

    def decide(self, spec: "GraphQuery", db_size: int) -> PlanDecision:
        """The plan the rule names for ``spec`` over ``db_size`` rows."""
        source, stage, reason = self.pruning(spec, db_size)
        return PlanDecision(source, stage, "serial", (reason, SERIAL_REASON))


def availability() -> dict:
    """The backend presets and what this host offers them.

    Reported by ``python -m repro backends``: every name the one
    executor runs, the CPU count (the default ``max_workers`` of the
    ``parallel`` preset's pool) and the pool sizes already started in
    this process.
    """
    import numpy

    from repro.api.backends import available_backends
    from repro.engine import workers

    return {
        "backends": available_backends(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count() or 1,
        "pools_started": sorted(
            size for size, pool in workers._POOLS.items() if pool.started
        ),
    }
