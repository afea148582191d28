"""SignatureMatrix over the process boundary, as shared-memory arrays.

The persistent worker pool (:mod:`repro.engine.workers`) wants workers to
frontier-check candidates against their optimistic bound vectors — but
shipping one bound vector per candidate per chunk re-introduces exactly
the per-task serialization this PR removes. Instead, the parent parks the
shard's :class:`~repro.index.matrix.SignatureMatrix` **once per (store,
version)**: :class:`SharedMatrixExport` copies the six live row windows
(ids, orders, sizes, vertex/edge label and edge-type counts) as raw
bytes into a single
``multiprocessing.shared_memory`` segment and describes the layout in a
small picklable meta dict. Workers map the segment back into zero-copy
NumPy views (:func:`attach_matrix`) and recompute any chunk's bound rows
with the normal batched kernels (:func:`matrix_bounds`) — per-chunk tasks
then carry row *indices* and the packed query signature, nothing else.

Row indices are pinned at ship time: the parent captures ``row_of`` from
the synced matrix in the same drain that builds the tasks, and the
database cannot mutate mid-drain (the parent thread is the only mutator),
so index and export always describe the same version. A new version gets
a new segment (the old one is released once no task references it) — the
row-level delta story lives in the matrix itself, which
:meth:`FeatureStore.sync` maintains incrementally before each export.

Everything here is NumPy- and shared-memory-gated by the caller
(:meth:`WorkerPool.export_matrix`); any failure degrades to inline bound
shipping, never to a wrong answer.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict

import numpy as np

from repro.engine.workers import _LIVE_OWNERS, _segment_name, attach_segment
from repro.index.kernels import bound_matrix
from repro.index.matrix import QuerySignature

#: The row windows shipped, in segment layout order.
_ARRAYS = (
    "ids", "orders", "sizes", "vertex_counts", "edge_counts", "type_counts"
)

#: Attached segments cached per worker (keyed by segment name — names are
#: unique per export version, so a name change *is* the invalidation).
_ATTACH_LIMIT = 4


class SharedMatrixExport:
    """One store's SignatureMatrix parked in a shared-memory segment.

    :meth:`refresh` re-exports only when ``store.database.version``
    moved; repeated queries against an unmutated shard reuse the segment
    (and every worker's existing zero-copy mapping of it).
    """

    def __init__(self, store) -> None:
        self._store_ref = weakref.ref(store)
        self._version: int | None = None
        self._segment = None
        self._meta: dict | None = None

    def store_ref(self):
        return self._store_ref()

    def refresh(self):
        """``(meta, matrix)`` for the store's current version.

        ``meta`` is the picklable worker-side handle; ``matrix`` the live
        parent-side :class:`SignatureMatrix` (for ``row_of`` and query
        packing). Raises on export failure — callers degrade to inline
        bounds.
        """
        store = self._store_ref()
        if store is None:
            raise RuntimeError("feature store was collected")
        matrix = store.sync()
        version = store.database.version
        if self._segment is not None and self._version == version:
            return self._meta, matrix
        arrays = {
            name: np.ascontiguousarray(getattr(matrix, name))
            for name in _ARRAYS
        }
        total = sum(array.nbytes for array in arrays.values())
        from multiprocessing import shared_memory

        segment = shared_memory.SharedMemory(
            create=True, size=max(1, total), name=_segment_name()
        )
        layout: dict[str, dict] = {}
        offset = 0
        for name, array in arrays.items():
            segment.buf[offset : offset + array.nbytes] = array.tobytes()
            layout[name] = {
                "shape": list(array.shape),
                "dtype": str(array.dtype),
                "offset": offset,
            }
            offset += array.nbytes
        self._drop_segment()
        self._segment = segment
        self._version = version
        self._meta = {"name": segment.name, "arrays": layout}
        _LIVE_OWNERS.add(self)
        return self._meta, matrix

    def segment_names(self) -> list[str]:
        return [self._segment.name] if self._segment is not None else []

    def _drop_segment(self) -> None:
        segment, self._segment = self._segment, None
        if segment is not None:
            try:
                segment.close()
                segment.unlink()
            except Exception:
                pass

    def release(self) -> None:
        _LIVE_OWNERS.discard(self)
        self._drop_segment()
        self._meta = None
        self._version = None


class _AttachedMatrix:
    """Worker-side zero-copy views over an exported segment.

    Duck-typed for :func:`repro.index.kernels.bound_matrix` row subsets
    via :meth:`rows` — the kernels only need ``len``, ``orders``,
    ``sizes`` and the three count windows. Holds the segment handle so the
    views stay mapped for the object's lifetime.
    """

    def __init__(self, meta: dict) -> None:
        self._segment = attach_segment(meta["name"])
        self.arrays: dict[str, np.ndarray] = {}
        for name, spec in meta["arrays"].items():
            shape = tuple(spec["shape"])
            count = 1
            for extent in shape:
                count *= extent
            self.arrays[name] = np.frombuffer(
                self._segment.buf,
                dtype=np.dtype(spec["dtype"]),
                count=count,
                offset=spec["offset"],
            ).reshape(shape)

    def rows(self, indices: np.ndarray) -> "_RowSubset":
        return _RowSubset(
            orders=self.arrays["orders"][indices],
            sizes=self.arrays["sizes"][indices],
            vertex_counts=self.arrays["vertex_counts"][indices],
            edge_counts=self.arrays["edge_counts"][indices],
            type_counts=self.arrays["type_counts"][indices],
        )

    def ids(self, indices: np.ndarray) -> np.ndarray:
        return self.arrays["ids"][indices]

    def release(self) -> None:
        self.arrays = {}
        segment, self._segment = self._segment, None
        if segment is not None:
            try:
                segment.close()  # attach-only: never unlink
            except Exception:
                pass


class _RowSubset:
    """The selected rows, shaped like a matrix for the bound kernels."""

    __slots__ = ("orders", "sizes", "vertex_counts", "edge_counts", "type_counts")

    def __init__(self, orders, sizes, vertex_counts, edge_counts, type_counts) -> None:
        self.orders = orders
        self.sizes = sizes
        self.vertex_counts = vertex_counts
        self.edge_counts = edge_counts
        self.type_counts = type_counts

    def __len__(self) -> int:
        return int(self.orders.shape[0])


def attach_matrix(meta: dict, cache: OrderedDict) -> _AttachedMatrix:
    """The (cached) worker-side mapping of an exported segment."""
    attached = cache.get(meta["name"])
    if attached is None:
        attached = _AttachedMatrix(meta)
        cache[meta["name"]] = attached
        while len(cache) > _ATTACH_LIMIT:
            _, evicted = cache.popitem(last=False)
            evicted.release()
    else:
        cache.move_to_end(meta["name"])
    return attached


def matrix_bounds(
    meta: dict,
    rows: list[int],
    qsig: tuple,
    measures,
    cache: OrderedDict,
) -> dict[int, tuple[float, ...]]:
    """Per-graph-id optimistic vectors of a chunk, from the shared matrix."""
    attached = attach_matrix(meta, cache)
    indices = np.asarray(rows, dtype=np.int64)
    order, size, *vectors = qsig
    query = QuerySignature(
        order, size, *(np.asarray(vector, dtype=np.int64) for vector in vectors)
    )
    bounds = bound_matrix(attached.rows(indices), query, measures)
    ids = attached.ids(indices)
    return {
        int(graph_id): tuple(row) for graph_id, row in zip(ids, bounds)
    }
