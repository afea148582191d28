"""repro.index — packed feature store and batched bound kernels.

The candidate-filtering layer of every full run that prunes:

* :class:`~repro.index.matrix.SignatureMatrix` — every graph's
  label multisets, labelled edge-type histogram and order/size packed
  into shared interned-vocabulary count matrices, maintained
  incrementally at row granularity;
* :mod:`~repro.index.kernels` — batched lower/upper-bound kernels that
  are bit-identical to the scalar bounds in :mod:`repro.graph.features`,
  plus :func:`~repro.index.kernels.dominator_counts`, the array form of
  Pareto dominance;
* :class:`~repro.index.store.FeatureStore` — keeps the matrix in
  sync with a :class:`~repro.db.database.GraphDatabase` via its
  ``version`` dirty flag;
* :class:`~repro.index.source.IndexedSource` /
  :func:`~repro.index.source.batch_bound_pruning` — the engine plan
  parts the ``indexed`` backend (alias ``vectorized``), ``auto`` and the
  shard scatter are made of.
"""

from repro.index.kernels import (
    BATCH_BOUND_KERNELS,
    bound_matrix,
    dist_gu_lower_bounds,
    dist_mcs_lower_bounds,
    dominator_counts,
    edit_lower_bounds,
    mcs_upper_bounds,
    normalized_edit_lower_bounds,
)
from repro.index.matrix import QuerySignature, SignatureMatrix
from repro.index.source import BatchParetoStage, IndexedSource, batch_bound_pruning
from repro.index.store import FeatureStore

__all__ = [
    "BATCH_BOUND_KERNELS",
    "BatchParetoStage",
    "FeatureStore",
    "IndexedSource",
    "QuerySignature",
    "SignatureMatrix",
    "batch_bound_pruning",
    "bound_matrix",
    "dist_gu_lower_bounds",
    "dist_mcs_lower_bounds",
    "dominator_counts",
    "edit_lower_bounds",
    "mcs_upper_bounds",
    "normalized_edit_lower_bounds",
]
