"""Batched bound kernels: every scalar bound of ``features.py``, whole-db.

Each kernel takes a :class:`~repro.index.matrix.SignatureMatrix` and a
:class:`~repro.index.matrix.QuerySignature` and returns one value per
live row, computed in a handful of NumPy array operations instead of a
per-graph Python loop. The kernels are **bit-identical** to their scalar
counterparts in :mod:`repro.graph.features` (property-tested with exact
``==`` against the per-pair forms of :mod:`repro.testkit.reference.bounds`):
every intermediate is integer arithmetic on counts below 2⁵³
followed by the same IEEE-754 double operations the scalar code performs,
so a full run and a replay (which bounds its added graphs one at a time
with :meth:`repro.graph.features.QueryBounds.vector`) prune on the same
optimistic vectors, to the last ulp.

The ``DistMcs`` / ``DistGu`` kernels read one ``|mcs|`` bound per row,
:func:`mcs_upper_bounds`: the overlap of labelled edge-type histograms.
It is the only ``|mcs|`` bound of the index, so the skyline and skyband
stages prune on it before any pair of a full run reaches the evaluator.

Bound registry: :func:`bound_matrix` assembles the full ``(n, d)``
optimistic-vector matrix for a measure tuple, mirroring the per-measure
dispatch of :class:`repro.graph.features.QueryBounds` (measures without a
kernel contribute an all-zero column — never pruned incorrectly).

:func:`dominator_counts` is the one array form of "how many exact vectors
dominate this bound", used by the batched Pareto stage.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.index.matrix import QuerySignature, SignatureMatrix
from repro.measures.base import DistanceMeasure


def _overlaps(counts: np.ndarray, query_vector: np.ndarray) -> np.ndarray:
    """Σ min(row, query) per row — the multiset-intersection sizes."""
    if counts.shape[1] == 0:
        return np.zeros(counts.shape[0], dtype=np.int64)
    return np.minimum(counts, query_vector[np.newaxis, :]).sum(axis=1)


def _counter_bounds(
    totals: np.ndarray, query_total: int, overlaps: np.ndarray
) -> np.ndarray:
    """Uniform-cost edits between multisets of ``totals`` and
    ``query_total`` labels sharing ``overlaps``: each half of
    ``features._edit_bound``, per row (int64)."""
    return np.abs(totals - query_total) + (
        np.minimum(totals, query_total) - overlaps
    )


def edit_lower_bounds(
    matrix: SignatureMatrix, query: QuerySignature
) -> np.ndarray:
    """``edit_distance_lower_bound`` against every row, ``(n,) float64``."""
    vertex_part = _counter_bounds(
        matrix.orders, query.order, _overlaps(matrix.vertex_counts, query.vertex_vector)
    )
    edge_part = _counter_bounds(
        matrix.sizes, query.size, _overlaps(matrix.edge_counts, query.edge_vector)
    )
    return (vertex_part + edge_part).astype(np.float64)


def normalized_edit_lower_bounds(
    matrix: SignatureMatrix, query: QuerySignature
) -> np.ndarray:
    """``raw / (1 + raw)`` of the edit bound (``edit-normalized`` measure)."""
    raw = edit_lower_bounds(matrix, query)
    return raw / (1.0 + raw)


def mcs_upper_bounds(
    matrix: SignatureMatrix, query: QuerySignature
) -> np.ndarray:
    """``mcs_upper_bound`` against every row, ``(n,) int64``: the overlap
    of the labelled edge-type histograms (the matrix's type block)."""
    return _overlaps(matrix.type_counts, query.type_vector)


def dist_mcs_lower_bounds(
    matrix: SignatureMatrix, query: QuerySignature
) -> np.ndarray:
    """``dist_mcs_lower_bound`` against every row, ``(n,) float64``."""
    caps = mcs_upper_bounds(matrix, query)
    denominators = np.maximum(matrix.sizes, query.size)
    safe = np.maximum(denominators, 1)
    bounds = 1.0 - np.minimum(caps, denominators) / safe
    return np.where(denominators == 0, 0.0, bounds)


def dist_gu_lower_bounds(
    matrix: SignatureMatrix, query: QuerySignature
) -> np.ndarray:
    """``dist_gu_lower_bound`` against every row, ``(n,) float64``."""
    caps = np.minimum(
        mcs_upper_bounds(matrix, query), np.minimum(matrix.sizes, query.size)
    )
    unions = matrix.sizes + query.size - caps
    safe = np.maximum(unions, 1)
    bounds = 1.0 - caps / safe
    return np.where(unions <= 0, 0.0, bounds)


#: Per-measure batched kernels (the vector form of ``_BOUND_FUNCTIONS``).
BATCH_BOUND_KERNELS = {
    "edit": edit_lower_bounds,
    "edit-normalized": normalized_edit_lower_bounds,
    "mcs": dist_mcs_lower_bounds,
    "union": dist_gu_lower_bounds,
}


def bound_matrix(
    matrix: SignatureMatrix,
    query: QuerySignature,
    measures: Sequence[DistanceMeasure],
) -> np.ndarray:
    """Optimistic ``(n, d) float64`` matrix: rows align with ``matrix.ids``.

    Column ``j`` is the lower bound of ``measures[j]`` against every
    graph; measures without a registered kernel get the trivial bound 0.
    """
    n = len(matrix)
    columns = []
    for measure in measures:
        kernel = BATCH_BOUND_KERNELS.get(measure.name)
        if kernel is None:
            columns.append(np.zeros(n, dtype=np.float64))
        else:
            columns.append(np.asarray(kernel(matrix, query), dtype=np.float64))
    if not columns:
        return np.zeros((n, 0), dtype=np.float64)
    return np.stack(columns, axis=1)


#: Cap on the ``(bounds, exact)`` comparison matrix one chunk builds.
_DOMINANCE_CELLS = 1 << 20


def dominator_counts(exact, bounds, tolerance: float = 0.0) -> np.ndarray:
    """Per bound row, how many ``exact`` rows dominate it, ``(n,) int64``.

    Mirrors :func:`repro.skyline.utils.dominates` exactly, NaN-as-tie
    included: ``p`` dominates ``q`` when no ``p_i > q_i + tol`` and some
    ``p_i < q_i - tol`` (a NaN comparison is False, so a NaN dimension
    neither blocks nor helps). Each dimension ORs one ``(bounds, exact)``
    comparison into a ``worse`` and a ``better`` mask; bound rows are
    processed in chunks so a mask stays under :data:`_DOMINANCE_CELLS`
    cells.
    """
    exact = np.asarray(exact, dtype=np.float64)
    bounds = np.asarray(bounds, dtype=np.float64)
    counts = np.zeros(len(bounds), dtype=np.int64)
    if not exact.size or not len(bounds):
        return counts  # no rows, or no dimension to be better in
    if exact.shape[1] != bounds.shape[1]:
        raise ValueError(
            f"dimension mismatch: {exact.shape[1]} vs {bounds.shape[1]}"
        )
    columns = exact.T
    step = max(1, _DOMINANCE_CELLS // len(exact))
    for start in range(0, len(bounds), step):
        rows = bounds[start : start + step].T[:, :, np.newaxis]
        upper = rows + tolerance if tolerance else rows
        lower = rows - tolerance if tolerance else rows
        worse = columns[0] > upper[0]
        better = columns[0] < lower[0]
        for dim in range(1, len(columns)):
            worse |= columns[dim] > upper[dim]
            better |= columns[dim] < lower[dim]
        # better > worse: better in some dimension and worse in none.
        counts[start : start + step] = (better > worse).sum(axis=1)
    return counts
