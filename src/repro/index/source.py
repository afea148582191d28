"""Engine wiring for the packed index: candidate source + batch stage.

:class:`IndexedSource` is the source of every full run that prunes: one
batched kernel call computes the optimistic vectors of *every*
candidate, NumPy sorts the visiting order, and the source returns one
:class:`~repro.engine.plan.CandidateBlock` (ids plus the bound rows,
no per-candidate objects). Where a sound upfront filter exists,
candidates are **pre-filtered before the cascade ever sees them**:

* ``threshold`` queries prune every graph whose lower bound already
  exceeds the threshold with one flat mask, ``kernel(matrix, q) <= t``;
  only survivors enter the cascade. Pre-filtered ids are recorded on the
  run context so the engine counts them exactly like cascade prunes
  (see ``QueryStats.pruned_by_batch``).
* ``skyline``/``skyband``/``topk`` have no sound exact-free upfront
  filter (their cutoffs depend on exact vectors discovered during the
  scan), so the source contributes the vectorized bound computation and
  visiting order, and feedback pruning stays in the cascade.

:class:`BatchParetoStage` is the vectorized cascade member: it keeps the
observed exact vectors in a growing ``(m, d)`` array and judges a whole
window of bound rows with :func:`~repro.index.kernels.dominator_counts`
— semantics (tolerance and NaN behaviour included) exactly match
:func:`repro.skyline.utils.dominates`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.engine.plan import (
    BoundStage,
    CandidateBlock,
    CandidateSource,
    RankBoundStage,
    ThresholdBoundStage,
    pareto_cap,
)
from repro.index.kernels import BATCH_BOUND_KERNELS, bound_matrix, dominator_counts
from repro.index.store import FeatureStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.core import RunContext


class IndexedSource(CandidateSource):
    """Vectorized bound computation, ordering and threshold pre-filtering
    over ``store``, synced to its database on every run."""

    computes_bounds = True

    def __init__(self, store: FeatureStore) -> None:
        self._store = store

    def candidates(self, ctx: "RunContext") -> CandidateBlock:
        matrix = self._store.sync()
        query = matrix.pack_query(ctx.spec.graph, ctx.query_features)
        kind = ctx.spec.kind
        ids = matrix.ids
        if kind == "threshold":
            kernel = BATCH_BOUND_KERNELS.get(ctx.measures[0].name)
            if kernel is None:
                # No bound for this measure: nothing can be filtered.
                order = np.argsort(ids)
                return CandidateBlock(
                    ids[order].tolist(), np.zeros((len(ids), 1))
                )
            values = kernel(matrix, query)
            keep = values <= ctx.spec.threshold
            ctx.prefiltered.extend(np.sort(ids[~keep]).tolist())
            ids, values = ids[keep], values[keep]
            order = np.argsort(ids)
            return CandidateBlock(ids[order].tolist(), values[order, np.newaxis])
        bounds = bound_matrix(matrix, query, ctx.measures)
        if kind == "topk":
            order = np.lexsort((ids, bounds[:, 0]))
        else:
            order = np.lexsort((ids, bounds.sum(axis=1)))
        return CandidateBlock(ids[order].tolist(), bounds[order])


# ----------------------------------------------------------------------
# Batched cascade stage
# ----------------------------------------------------------------------
class BatchParetoStage(BoundStage):
    """Pareto dominator counting over a packed exact-vector array.

    Drop-in replacement for :class:`~repro.engine.plan.ParetoPruneStage`
    with identical semantics; one :meth:`prune_mask` call judges a whole
    window of bound rows against every observed exact vector. The
    observations are also kept as a list of tuples for :meth:`cap`, which
    runs once or twice per solved pair: unpacking the array on each call
    would cost more than the cap itself.
    """

    name = "pareto-bound(batch)"

    def __init__(self, prune_limit: int, tolerance: float) -> None:
        self.prune_limit = prune_limit
        self.tolerance = tolerance
        self._exact: np.ndarray | None = None
        self._observed: list[tuple[float, ...]] = []

    def prune_mask(self, bounds) -> np.ndarray:
        count = len(self._observed)
        if count == 0:
            return np.zeros(len(bounds), dtype=bool)
        counts = dominator_counts(self._exact[:count], bounds, self.tolerance)
        return counts >= self.prune_limit

    def cap(self, values, dim: int) -> float | None:
        if self.tolerance > 0:
            return None
        return pareto_cap(self._observed, values, dim, self.prune_limit)

    def observe(self, graph_id: int, values: tuple[float, ...]) -> None:
        count = len(self._observed)
        if self._exact is None:
            self._exact = np.empty((8, len(values)), dtype=np.float64)
        elif count == self._exact.shape[0]:
            grown = np.empty((2 * count, self._exact.shape[1]), dtype=np.float64)
            grown[:count] = self._exact
            self._exact = grown
        self._exact[count] = values
        self._observed.append(values)
        self.revision += 1


def batch_bound_stage_for(spec) -> BoundStage:
    """The bound-pruning stage of a full run for ``spec``'s query kind.

    Skyline/skyband get the batched Pareto stage; the topk/threshold
    stages already judge array windows with one comparison, so the
    classes a replay uses (:func:`repro.engine.plan.bound_pruning`) are
    reused as-is. The planner and the scatter path, which share one
    stage instance across shard runs, call this directly.
    """
    if spec.kind == "skyline":
        return BatchParetoStage(1, spec.tolerance)
    if spec.kind == "skyband":
        return BatchParetoStage(spec.k, spec.tolerance)
    if spec.kind == "topk":
        return RankBoundStage(spec.k)
    return ThresholdBoundStage(spec.threshold)
