"""Packed label-signature matrix: the array form of ``GraphFeatures``.

:class:`SignatureMatrix` stores one row per graph — its vertex-label and
edge-label multisets as count vectors over a shared *interned vocabulary*
(one column per distinct label ever seen), plus its order and size — in
contiguous ``int64`` NumPy arrays. This is the data layout the batched
bound kernels (:mod:`repro.index.kernels`) operate on: one kernel call
bounds a query against *every* row at array speed instead of walking
per-graph ``collections.Counter`` objects in the interpreter.

The matrix is maintained **incrementally** at row granularity:

* :meth:`add` appends a row (amortized O(row) via capacity doubling;
  labels unseen so far extend the vocabulary with a zero-backfilled
  column);
* :meth:`discard` removes a row in O(row) by swapping the last row into
  the hole — no rebuild, no re-featurization of unrelated graphs;
* re-:meth:`add`-ing a present id overwrites its row in place.

Each block numbers its columns with its own
:class:`~repro.graph.vocabulary.LabelVocabulary` — the interner the
solvers match labels with — so labels are equal here exactly when they
are equal to the scalar bounds, the cost models and the solvers
(``1``, ``1.0`` and ``True`` share a column). A matrix row and the
feature tuples then describe the same multiset, and the kernels
reproduce the scalar bounds bit for bit.
"""

from __future__ import annotations

from collections.abc import Hashable

import numpy as np

from repro.graph.features import GraphFeatures
from repro.graph.vocabulary import LabelVocabulary

#: Initial row/column capacity of a fresh matrix.
_INITIAL_CAPACITY = 8


class _CountBlock:
    """A capacity-managed ``(rows, vocab)`` int64 count matrix."""

    def __init__(self) -> None:
        self.vocab = LabelVocabulary()
        self._data = np.zeros((_INITIAL_CAPACITY, _INITIAL_CAPACITY), dtype=np.int64)

    def _grow(self, rows: int, columns: int) -> None:
        grown_rows = max(rows, self._data.shape[0])
        grown_columns = max(columns, self._data.shape[1])
        if (grown_rows, grown_columns) == self._data.shape:
            return
        grown = np.zeros((grown_rows, grown_columns), dtype=np.int64)
        grown[: self._data.shape[0], : self._data.shape[1]] = self._data
        self._data = grown

    def column(self, label: Hashable) -> int:
        """The column of ``label``, interning it on first sight."""
        index = self.vocab.id(label)
        if index >= self._data.shape[1]:
            self._grow(self._data.shape[0], 2 * self._data.shape[1])
        return index

    def set_row(self, row: int, labels: tuple[tuple[Hashable, int], ...]) -> None:
        """Write one frozen ``(label, count)`` signature into ``row``."""
        if row >= self._data.shape[0]:
            self._grow(2 * self._data.shape[0], self._data.shape[1])
        columns = [self.column(label) for label, _ in labels]
        self._data[row, :] = 0
        for column, (_, count) in zip(columns, labels):
            self._data[row, column] = count

    def move_row(self, source: int, target: int) -> None:
        # Full capacity width: beyond-vocab columns of a written row are
        # zero, and copying them keeps the target clean if the vocabulary
        # later grows into that region.
        self._data[target, :] = self._data[source, :]

    def view(self, n_rows: int) -> np.ndarray:
        """The live ``(n_rows, |vocab|)`` window (shared memory, read-only use)."""
        return self._data[:n_rows, : len(self.vocab)]

    def project(self, labels: tuple[tuple[Hashable, int], ...]) -> np.ndarray:
        """A signature as a ``(|vocab|,)`` vector over the *current* vocab.

        Labels outside the vocabulary are dropped: no stored row has a
        positive count there, so they can never contribute to an overlap
        — the totals the bounds also need are taken from the features'
        ``order``/``size`` instead, which do include them.
        """
        vector = np.zeros(len(self.vocab), dtype=np.int64)
        for label, count in labels:
            index = self.vocab.get(label)
            if index is not None:
                vector[index] = count
        return vector


class SignatureMatrix:
    """Graph label signatures packed into contiguous NumPy arrays.

    Rows are addressed by graph id through :attr:`row_of`; the row order
    is registration order disturbed only by the swap-removal of
    :meth:`discard`, and is never semantically load-bearing — the
    kernels return values aligned with :meth:`ids`, and callers sort.
    """

    def __init__(self) -> None:
        self.vertex_block = _CountBlock()
        self.edge_block = _CountBlock()
        self._ids = np.zeros(_INITIAL_CAPACITY, dtype=np.int64)
        self._orders = np.zeros(_INITIAL_CAPACITY, dtype=np.int64)
        self._sizes = np.zeros(_INITIAL_CAPACITY, dtype=np.int64)
        self.row_of: dict[int, int] = {}
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def __contains__(self, graph_id: object) -> bool:
        return graph_id in self.row_of

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _grow_rows(self) -> None:
        if self._n < self._ids.shape[0]:
            return
        capacity = 2 * self._ids.shape[0]
        for name in ("_ids", "_orders", "_sizes"):
            grown = np.zeros(capacity, dtype=np.int64)
            grown[: self._n] = getattr(self, name)[: self._n]
            setattr(self, name, grown)

    def add(self, graph_id: int, features: GraphFeatures) -> None:
        """Insert (or overwrite) the row of ``graph_id``."""
        row = self.row_of.get(graph_id)
        if row is None:
            self._grow_rows()
            row = self._n
            self._n += 1
            self.row_of[graph_id] = row
        self._ids[row] = graph_id
        self._orders[row] = features.order
        self._sizes[row] = features.size
        self.vertex_block.set_row(row, features.vertex_labels)
        self.edge_block.set_row(row, features.edge_labels)

    def discard(self, graph_id: int) -> None:
        """Remove the row of ``graph_id`` (no-op when absent), O(row)."""
        row = self.row_of.pop(graph_id, None)
        if row is None:
            return
        last = self._n - 1
        if row != last:
            moved_id = int(self._ids[last])
            self._ids[row] = moved_id
            self._orders[row] = self._orders[last]
            self._sizes[row] = self._sizes[last]
            self.vertex_block.move_row(last, row)
            self.edge_block.move_row(last, row)
            self.row_of[moved_id] = row
        self._n = last

    # ------------------------------------------------------------------
    # Array views (aligned row windows over live rows)
    # ------------------------------------------------------------------
    @property
    def ids(self) -> np.ndarray:
        """Graph ids per live row, ``(n,) int64``."""
        return self._ids[: self._n]

    @property
    def orders(self) -> np.ndarray:
        return self._orders[: self._n]

    @property
    def sizes(self) -> np.ndarray:
        return self._sizes[: self._n]

    @property
    def vertex_counts(self) -> np.ndarray:
        """``(n, |vertex vocab|) int64`` vertex-label count window."""
        return self.vertex_block.view(self._n)

    @property
    def edge_counts(self) -> np.ndarray:
        """``(n, |edge vocab|) int64`` edge-label count window."""
        return self.edge_block.view(self._n)

    # ------------------------------------------------------------------
    # Query packing
    # ------------------------------------------------------------------
    def pack_query(self, features: GraphFeatures) -> "QuerySignature":
        """Project a query's features onto this matrix's vocabulary."""
        return QuerySignature(
            order=features.order,
            size=features.size,
            vertex_vector=self.vertex_block.project(features.vertex_labels),
            edge_vector=self.edge_block.project(features.edge_labels),
        )

    def __repr__(self) -> str:
        return (
            f"<SignatureMatrix: {self._n} rows, "
            f"{len(self.vertex_block.vocab)} vertex / "
            f"{len(self.edge_block.vocab)} edge labels>"
        )


class QuerySignature:
    """One graph's signature projected onto a matrix vocabulary.

    ``order``/``size`` are the graph's *full* totals (out-of-vocabulary
    labels included); the count vectors only carry in-vocabulary labels,
    which is exactly what the overlap terms of the bounds need.
    """

    __slots__ = ("order", "size", "vertex_vector", "edge_vector")

    def __init__(
        self,
        order: int,
        size: int,
        vertex_vector: np.ndarray,
        edge_vector: np.ndarray,
    ) -> None:
        self.order = order
        self.size = size
        self.vertex_vector = vertex_vector
        self.edge_vector = edge_vector
