"""Cost-based adaptive planning: pick the cheapest plan per query.

The fixed backends (``memory``/``indexed``/``vectorized``/``parallel``/
``sharded``) are hand-picked points in one plan space — candidate source
× bound stage × evaluator — and each of them is the wrong point for some
slice of the workload: batched kernels pay a setup cost that tiny
databases never amortize, exhaustive scans waste exact solves that a
bound stage would have pruned, and the process pool's fork/attach cost
dwarfs a handful of cheap pairs. This module closes the loop the ROADMAP
names: a System-R-style cost model over our own plan space, driven by

* **static inputs** — database size, average graph order, shard count,
  NumPy/pool availability, the query's kind/k/threshold/tolerance/budget;
* **observed feedback** — a per-session :class:`SelectivityProfile` of
  per-stage prune rates and per-pair solver cost, fed back from
  the :class:`~repro.db.stats.QueryStats` of every executed query.

Because selectivities are observed, the model self-corrects: the first
query of a kind runs on priors, later ones on measured reality.

The plan is chosen once, before the scan, and a sound bound stage is
always in it: a stage costs microseconds per candidate while one exact
GED/MCS pair costs milliseconds, so planning the stage away can save at
most the cascade time and can lose a full scan. The profile therefore
only chooses *how* to prune — scalar vs batched bounds — and serial vs
pooled evaluation; the exhaustive plan is offered only where bound
pruning is unsound (tolerant skyline/skyband).

The decision layer is consumed by :class:`repro.api.auto.AutoBackend`
(registered as the ``"auto"`` backend).
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.engine.evaluate import SOLVER_CUTOFF

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.spec import GraphQuery
    from repro.db.stats import QueryStats


# ----------------------------------------------------------------------
# Cost-model coefficients (seconds). Absolute accuracy does not matter —
# decisions compare plans against each other, and the two quantities
# that dominate (per-pair exact cost, per-stage selectivity) are
# *measured* and override these priors after the first few queries.
# ----------------------------------------------------------------------
#: Per-candidate scalar feature-index bound computation.
SCALAR_BOUND_SECONDS = 2.0e-5
#: Per-candidate batched (NumPy) bound computation.
BATCH_BOUND_SECONDS = 1.0e-6
#: Fixed per-query overhead of the batched kernels (dispatch, packing,
#: store sync; measured against the scalar cascade, the crossover where
#: batching wins sits near ~80 candidates).
BATCH_SETUP_SECONDS = 1.5e-3
#: Per-candidate cascade bookkeeping (stage walk, counters).
CASCADE_CHECK_SECONDS = 3.0e-6
#: Cold worker-pool start (fork + first shared-memory attachment).
POOL_START_SECONDS = 1.2
#: Per-chunk task overhead (pickle, queue round-trip).
POOL_CHUNK_SECONDS = 2.0e-3
#: Per-pair exact-evaluation prior per squared vertex (GED + MCS are
#: superquadratic, but the profile replaces this after one query).
#: Fitted from the e2e benchmark's traced ``solver_cold`` run
#: (``--seed 1 --trace 1``): ``graph.ms_per_pair`` 0.232 ms over a
#: database of average order 4.17 vertices, i.e. 0.232e-3 / 4.17².
PAIR_SECONDS_PER_ORDER2 = 1.3e-5

#: Prior fraction of candidates the bound stage prunes, per query kind.
PRIOR_SELECTIVITY = {
    "skyline": 0.45,
    "skyband": 0.30,
    "topk": 0.50,
    "threshold": 0.50,
}


def _pair_seconds_prior(avg_order: float) -> float:
    """Prior cost of one exact (GED+MCS) pair at ``avg_order`` vertices."""
    return PAIR_SECONDS_PER_ORDER2 * max(1.0, avg_order) ** 2


# ----------------------------------------------------------------------
# Observed-selectivity profile
# ----------------------------------------------------------------------
class SelectivityProfile:
    """Thread-safe EWMA store of observed selectivities and costs.

    One instance lives per ``auto`` backend — i.e. per session, and (the
    server caches one session per backend name) shared across every
    client of a server. Keys are ``(query kind, stage name)`` for prune
    rates and the query kind alone for per-pair cost, so skylines don't
    poison top-k estimates and vice versa.
    """

    def __init__(self, alpha: float = 0.3) -> None:
        self._alpha = alpha
        self._lock = threading.Lock()
        self._selectivity: dict[tuple[str, str], float] = {}
        self._pair_seconds: dict[str, float] = {}
        self._samples: dict[object, int] = {}
        self.queries = 0

    def _update(self, table: dict, key, value: float) -> None:
        previous = table.get(key)
        if previous is None:
            table[key] = value
        else:
            table[key] = previous + self._alpha * (value - previous)
        self._samples[key] = self._samples.get(key, 0) + 1

    def observe(
        self,
        kind: str,
        stats: "QueryStats",
        stage_names: tuple[str, ...] = (),
    ) -> None:
        """Fold one executed query's stats into the profile.

        ``stage_names`` are the bound stages the plan *ran* — passing
        them records zero-selectivity observations too, so the survivor
        estimate behind the serial-vs-pooled choice stays honest.
        """
        considered = stats.candidates_considered
        if considered <= 0:
            return
        prefiltered = stats.pruned_by_batch
        survivors = max(1, considered - prefiltered)
        with self._lock:
            self.queries += 1
            if prefiltered or "batch-prefilter" in stage_names:
                self._update(
                    self._selectivity,
                    (kind, "batch-prefilter"),
                    prefiltered / considered,
                )
            for name in stage_names:
                if name == "batch-prefilter":
                    continue
                pruned = stats.pruned_by_stage.get(name, 0)
                self._update(
                    self._selectivity, (kind, name), pruned / survivors
                )
            # Per pair handed to a solver: a solve cut at the bound
            # stage's cap is in the evaluate time but not an evaluation.
            solved = stats.exact_evaluations + stats.pruned_by_stage.get(
                SOLVER_CUTOFF, 0
            )
            if solved > 0:
                per_pair = stats.phase_seconds.get("evaluate", 0.0) / solved
                if per_pair > 0.0:
                    self._update(self._pair_seconds, kind, per_pair)

    def selectivity(self, kind: str, stage_name: str) -> float | None:
        """Observed EWMA prune rate of ``stage_name`` for ``kind``."""
        with self._lock:
            return self._selectivity.get((kind, stage_name))

    def pair_seconds(self, kind: str) -> float | None:
        """Observed EWMA seconds per pair handed to a solver for ``kind``
        (exact evaluations plus solves cut at the cap)."""
        with self._lock:
            return self._pair_seconds.get(kind)

    def snapshot(self) -> dict:
        """Diagnostics payload (explain(), ``repro backends``)."""
        with self._lock:
            return {
                "queries": self.queries,
                "selectivity": {
                    f"{kind}/{stage}": round(value, 4)
                    for (kind, stage), value in sorted(
                        self._selectivity.items()
                    )
                },
                "pair_ms": {
                    kind: round(value * 1000.0, 4)
                    for kind, value in sorted(self._pair_seconds.items())
                },
            }


# ----------------------------------------------------------------------
# The decision
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PlanDecision:
    """One planner verdict: which plan to run and why.

    ``source`` ∈ ``database-order`` / ``bound-ordered`` / ``indexed``;
    ``stage`` is the bound stage's display name, ``None`` only where
    pruning is unsound; ``evaluator`` ∈ ``serial`` / ``pooled``.
    ``predicted`` maps stage names to predicted
    prune fractions, ``costs`` maps every *considered* plan label to its
    predicted wall-clock (seconds) — losers included, so ``explain()``
    can show the decision, not just the winner.
    """

    source: str
    stage: str | None
    batch: bool
    evaluator: str
    predicted: dict[str, float] = field(default_factory=dict)
    costs: dict[str, float] = field(default_factory=dict)
    reasons: tuple[str, ...] = ()
    #: Predicted number of candidates surviving to exact evaluation.
    survivors: int = 0

    @property
    def summary(self) -> str:
        prune = self.stage or "no-prune"
        return f"{self.source}+{prune}/{self.evaluator}"


class QueryPlanner:
    """Enumerate candidate plans, cost each, pick the cheapest.

    Where bound pruning is sound the plan space is scalar feature-index
    bounds vs vectorized bounds + threshold pre-filter, each with serial
    or pooled evaluation; the exhaustive scan is the only source where
    it is not (see :meth:`prunes`). Soundness constraints prune the
    space first (the anytime path is serial by design; batch stages need
    NumPy), then each survivor is costed from the profile and the
    cheapest wins — deterministic tie-break on enumeration order.
    """

    def __init__(
        self,
        profile: SelectivityProfile,
        numpy_available: bool | None = None,
        max_workers: int | None = None,
    ) -> None:
        if numpy_available is None:
            from repro.api.backends import _numpy_available

            numpy_available = _numpy_available()
        self.profile = profile
        self.numpy_available = numpy_available
        self.max_workers = max(1, max_workers or os.cpu_count() or 1)

    # -- soundness gates -------------------------------------------------
    @staticmethod
    def prunes(spec: "GraphQuery") -> bool:
        """Whether bound pruning is sound for ``spec`` — the one rule
        every backend and the worker pool's shared frontier follow
        (tolerant dominance is not transitive)."""
        return not (
            spec.kind in ("skyline", "skyband") and spec.tolerance > 0
        )

    def pool_usable(self, spec: "GraphQuery") -> bool:
        """Whether pooled evaluation is even an option for ``spec``."""
        return self.max_workers > 1 and not spec.anytime

    # -- cost model ------------------------------------------------------
    def _predicted_selectivity(self, kind: str, stage_name: str) -> float:
        observed = self.profile.selectivity(kind, stage_name)
        if observed is None:
            # Batch and scalar Pareto stages have identical semantics —
            # an observation of one predicts the other.
            sibling = (
                stage_name[: -len("(batch)")]
                if stage_name.endswith("(batch)")
                else f"{stage_name}(batch)"
            )
            observed = self.profile.selectivity(kind, sibling)
        if observed is not None:
            return observed
        return PRIOR_SELECTIVITY.get(kind, 0.4)

    def _pair_seconds(self, kind: str, avg_order: float) -> float:
        observed = self.profile.pair_seconds(kind)
        if observed is not None:
            return observed
        return _pair_seconds_prior(avg_order)

    def _eval_seconds(
        self, survivors: float, pair_seconds: float, pool_started: bool
    ) -> tuple[float, float]:
        """(serial, pooled) predicted evaluation seconds for survivors."""
        serial = survivors * pair_seconds
        workers = self.max_workers
        # The pooled drain auto-sizes to ~4 chunks per worker.
        chunks = min(max(survivors, 0.0), float(workers * 4))
        start = 0.0 if pool_started else POOL_START_SECONDS
        pooled = (
            start
            + chunks * POOL_CHUNK_SECONDS
            + survivors * pair_seconds / workers
        )
        return serial, pooled

    def decide(
        self,
        spec: "GraphQuery",
        db_size: int,
        avg_order: float,
        pool_started: bool = False,
    ) -> PlanDecision:
        """Cost every legal plan for ``spec`` and return the cheapest."""
        kind = spec.kind
        n = float(db_size)
        pair_s = self._pair_seconds(kind, avg_order)
        pruning = self.prunes(spec)
        pool_ok = self.pool_usable(spec)
        reasons: list[str] = []
        if not pruning:
            reasons.append(
                "tolerant dominance is not transitive: bound pruning off"
            )
        if spec.anytime:
            reasons.append("anytime budget: evaluation is serial by design")
        elif not pool_ok:
            reasons.append(
                f"pool not usable (workers={self.max_workers})"
            )

        from repro.engine.plan import bound_stage_for

        scalar_stage = bound_stage_for(spec).name
        batch_stage = scalar_stage
        if self.numpy_available and kind in ("skyline", "skyband"):
            batch_stage = f"{scalar_stage}(batch)"

        # (label, source, stage, batch, setup_s, per_candidate_s, sel)
        options: list[tuple[str, str, str | None, bool, float, float, float]]
        if not pruning:
            options = [
                ("exhaustive", "database-order", None, False, 0.0, 0.0, 0.0)
            ]
        else:
            options = [
                (
                    "scalar-index",
                    "bound-ordered",
                    scalar_stage,
                    False,
                    0.0,
                    SCALAR_BOUND_SECONDS + CASCADE_CHECK_SECONDS,
                    self._predicted_selectivity(kind, scalar_stage),
                )
            ]
            if self.numpy_available:
                # Threshold: the vectorized source pre-filters before the
                # cascade; the residual threshold stage prunes ~0.
                sel = self._predicted_selectivity(
                    kind,
                    "batch-prefilter" if kind == "threshold" else batch_stage,
                )
                options.append(
                    (
                        "vectorized",
                        "indexed",
                        batch_stage,
                        True,
                        BATCH_SETUP_SECONDS,
                        BATCH_BOUND_SECONDS + CASCADE_CHECK_SECONDS,
                        sel,
                    )
                )

        costs: dict[str, float] = {}
        best = None
        for option in options:
            label, _, _, _, setup_s, per_cand_s, sel = option
            survivors = n * (1.0 - min(max(sel, 0.0), 1.0))
            serial_s, pooled_s = self._eval_seconds(
                survivors, pair_s, pool_started
            )
            filter_s = setup_s + n * per_cand_s
            evaluator_plans = [("serial", filter_s + serial_s)]
            if pool_ok:
                evaluator_plans.append(("pooled", filter_s + pooled_s))
            for evaluator, total in evaluator_plans:
                costs[f"{label}/{evaluator}"] = total
                if best is None or total < best[0]:
                    best = (total, option, evaluator, survivors)
        _, option, evaluator, survivors = best
        _, source, stage, batch, _, _, sel = option
        predicted = {}
        if batch and kind == "threshold":
            # The pre-filter does the pruning in the source; the residual
            # cascade stage sees only survivors.
            predicted["batch-prefilter"] = sel
            predicted[stage] = 0.0
        elif stage is not None:
            predicted[stage] = sel
        return PlanDecision(
            source=source,
            stage=stage,
            batch=batch,
            evaluator=evaluator,
            predicted=predicted,
            costs=costs,
            reasons=tuple(reasons),
            survivors=int(survivors),
        )


# ----------------------------------------------------------------------
# Environment diagnostics (the ``repro backends`` CLI)
# ----------------------------------------------------------------------
def availability() -> dict:
    """What the planner has to work with on this host.

    Reported by ``python -m repro backends`` so users can see why
    ``auto`` picked what it picked: NumPy gates the vectorized source
    and batch stages, ``cpu_count`` gates pooled evaluation, and an
    already-started pool zeroes the startup term of the cost model.
    """
    from repro.api.backends import _numpy_available, available_backends

    numpy_version: str | None = None
    if _numpy_available():
        import numpy

        numpy_version = numpy.__version__
    cpu_count = os.cpu_count() or 1
    from repro.engine import workers

    started = sorted(
        size for size, pool in workers._POOLS.items() if pool.started
    )
    return {
        "backends": available_backends(),
        "numpy": numpy_version,
        "cpu_count": cpu_count,
        "pool_usable": cpu_count > 1,
        "pools_started": started,
    }
