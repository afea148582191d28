"""Packed label-signature matrix: every graph's bound inputs as arrays.

:class:`SignatureMatrix` stores one row per graph in contiguous NumPy
arrays: its order and size (``int64``), plus three ``int32`` count blocks
over shared *interned vocabularies* (one column per distinct key ever
seen):

* vertex labels and edge labels (the multisets of ``GraphFeatures``),
  which the ``DistEd`` bound reads;
* labelled edge types ``(min, max, edge)``: the vertex-vocabulary ids of
  an edge's two endpoint labels, ordered by id, and its edge-label id.
  Their overlap bounds ``|mcs|`` (see
  :func:`repro.graph.features.mcs_upper_bound` for the proof), which the
  ``DistMcs`` / ``DistGu`` bounds read.

This is the data layout the batched bound kernels
(:mod:`repro.index.kernels`) operate on: one kernel call bounds a query
against *every* row at array speed instead of a per-graph loop.

The matrix is maintained **incrementally** at row granularity:

* :meth:`add_many` writes a batch of rows: each block gets one
  fancy-index assignment of the batch's ``(row, column, count)`` cells
  (labels unseen so far extend the vocabulary, and the blocks grow by
  doubling, zero-filled); :meth:`add` is its one-row case;
* :meth:`discard` removes a row in O(row) by swapping the last row into
  the hole — no rebuild, no re-walk of unrelated graphs;
* re-adding a present id overwrites its row in place.

The label blocks are written from the graphs' stored features. The type
block is counted from the graphs themselves, one adjacency walk per
graph into a transient dict, so nothing per graph outlives the write.
Those walks wait until a kernel first reads
:attr:`SignatureMatrix.type_counts`, and then run and land as one batch:
a query that bounds no |mcs| (an edit-only top-k, say) never pays for
them.

Each block numbers its columns with its own
:class:`~repro.graph.vocabulary.LabelVocabulary` — the interner the
solvers match labels with — so labels are equal here exactly when they
are equal to the scalar bounds, the cost models and the solvers
(``1``, ``1.0`` and ``True`` share a column; an edge type's key is made
of those ids, never of a label's ``repr`` or ``hash``). A matrix row and
the scalar bounds then count the same multisets, and the kernels
reproduce the scalar bounds bit for bit.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable
from itertools import repeat

import numpy as np

from repro.graph.features import GraphFeatures
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.vocabulary import LabelVocabulary

#: Initial row/column capacity of a fresh matrix.
_INITIAL_CAPACITY = 8

#: A vocabulary lookup: ``LabelVocabulary.id`` interns, ``.get`` projects.
_Lookup = Callable[[Hashable], "int | None"]


def _edge_types(
    graph: LabeledGraph, vertex_id: _Lookup, edge_id: _Lookup, type_id: _Lookup
) -> dict[int, int]:
    """One graph's labelled edge-type counts, keyed by type column.

    An edge is counted from the endpoint whose label column is lower, or
    from both when the columns are equal (then halved). Types a lookup
    answers ``None`` for (through any of its three keys) are dropped: no
    row has a positive count there, so they cannot add to an overlap.
    """
    labels, adjacency = graph.label_maps()
    columns: dict[Hashable, int] = {}
    for label in labels.values():
        if label not in columns:
            column = vertex_id(label)
            columns[label] = -1 if column is None else column
    oriented: dict[tuple, int] = {}
    for u, row in adjacency.items():
        low = columns[labels[u]]
        if low < 0:
            continue
        for v, label in row.items():
            high = columns[labels[v]]
            if low <= high:
                key = (low, high, label)
                oriented[key] = oriented.get(key, 0) + 1
    types: dict[int, int] = {}
    for (low, high, label), count in oriented.items():
        edge = edge_id(label)
        if edge is None:
            continue
        column = type_id((low, high, edge))
        if column is not None:
            types[column] = count // 2 if low == high else count
    return types


def _label_counts(
    labels: tuple[tuple[Hashable, int], ...], label_id: _Lookup
) -> dict[int, int]:
    """A frozen ``(label, count)`` signature keyed by column; labels the
    lookup answers ``None`` for are dropped."""
    counts = {}
    for label, count in labels:
        column = label_id(label)
        if column is not None:
            counts[column] = count
    return counts


class _Cells:
    """A batch's ``(row, column, count)`` cells for one block, as three
    flat lists: a row's counts are staged as soon as they are known, so
    no per-row container outlives its graph's turn."""

    __slots__ = ("rows", "columns", "counts")

    def __init__(self) -> None:
        self.rows: list[int] = []
        self.columns: list[int] = []
        self.counts: list[int] = []

    def stage(self, row: int, counts: dict[int, int]) -> None:
        self.rows.extend(repeat(row, len(counts)))
        self.columns.extend(counts)
        self.counts.extend(counts.values())


class _CountBlock:
    """A capacity-managed ``(rows, vocab)`` count matrix.

    Counts are stored as ``int32`` (one graph's label counts fit it); the
    kernels compare them with ``int64`` query vectors, which widens every
    overlap to ``int64`` before any arithmetic.
    """

    def __init__(self) -> None:
        self.vocab = LabelVocabulary()
        self._data = np.zeros((_INITIAL_CAPACITY, _INITIAL_CAPACITY), dtype=np.int32)

    def _fit(self, rows: int, columns: int) -> None:
        """Grow (doubling, zero-filled) to hold ``rows`` x ``columns``."""
        height, width = self._data.shape
        while height < rows:
            height *= 2
        while width < columns:
            width *= 2
        if (height, width) == self._data.shape:
            return
        grown = np.zeros((height, width), dtype=np.int32)
        grown[: self._data.shape[0], : self._data.shape[1]] = self._data
        self._data = grown

    def write(self, cells: "_Cells", height: int) -> None:
        """Write staged cells into their (zero) rows of a ``height``-row
        matrix, with one fancy-index assignment."""
        self._fit(height, len(self.vocab))
        self._data[cells.rows, cells.columns] = cells.counts

    # Rows past the buffer were never written and read as zero: the type
    # block is written later than the rows it belongs to.
    def clear_row(self, row: int) -> None:
        if row < self._data.shape[0]:
            self._data[row] = 0

    def move_row(self, source: int, target: int) -> None:
        # Full capacity width: beyond-vocab columns of a written row are
        # zero, and copying them keeps the target clean if the vocabulary
        # later grows into that region.
        if source < self._data.shape[0]:
            self._data[target] = self._data[source]
        else:
            self.clear_row(target)

    def view(self, n_rows: int) -> np.ndarray:
        """The live ``(n_rows, |vocab|)`` window (shared memory, read-only use)."""
        return self._data[:n_rows, : len(self.vocab)]

    def vector(self, counts: dict[int, int]) -> np.ndarray:
        """``column -> count`` as a ``(|vocab|,)`` vector."""
        vector = np.zeros(len(self.vocab), dtype=np.int64)
        if counts:
            vector[list(counts)] = list(counts.values())
        return vector


class SignatureMatrix:
    """Graph bound signatures packed into contiguous NumPy arrays.

    Rows are addressed by graph id through :attr:`row_of`; the row order
    is registration order disturbed only by the swap-removal of
    :meth:`discard`, and is never semantically load-bearing — the
    kernels return values aligned with :meth:`ids`, and callers sort.
    """

    def __init__(self) -> None:
        self.vertex_block = _CountBlock()
        self.edge_block = _CountBlock()
        self.type_block = _CountBlock()
        self._ids = np.zeros(_INITIAL_CAPACITY, dtype=np.int64)
        self._orders = np.zeros(_INITIAL_CAPACITY, dtype=np.int64)
        self._sizes = np.zeros(_INITIAL_CAPACITY, dtype=np.int64)
        self.row_of: dict[int, int] = {}
        self._n = 0
        #: Graphs whose type row is not written yet, by id.
        self._untyped: dict[int, LabeledGraph] = {}

    def __len__(self) -> int:
        return self._n

    def __contains__(self, graph_id: object) -> bool:
        return graph_id in self.row_of

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _fit_rows(self, rows: int) -> None:
        capacity = self._ids.shape[0]
        if rows <= capacity:
            return
        while capacity < rows:
            capacity *= 2
        for name in ("_ids", "_orders", "_sizes"):
            old = getattr(self, name)
            grown = np.zeros(capacity, dtype=np.int64)
            grown[: old.shape[0]] = old
            setattr(self, name, grown)

    def add(
        self,
        graph_id: int,
        graph: LabeledGraph,
        features: GraphFeatures | None = None,
    ) -> None:
        """Insert (or overwrite) the row of ``graph_id``; ``features`` are
        the graph's stored features (computed when not given)."""
        if features is None:
            features = GraphFeatures.of(graph)
        self.add_many(((graph_id, graph, features),))

    def add_many(
        self, rows: Iterable[tuple[int, LabeledGraph, GraphFeatures]]
    ) -> None:
        """Insert (or overwrite) one row per ``(graph_id, graph, features)``.

        Rows past the live ones are kept zero (:meth:`discard` clears the
        row it frees), so only an overwritten row is cleared first. The
        label blocks are written now, one assignment each; the graphs wait
        for the type block's batch (see the module docstring). A repeated
        id keeps its last graph.
        """
        vertex_id = self.vertex_block.vocab.id
        edge_id = self.edge_block.vocab.id
        cells = (_Cells(), _Cells())
        for graph_id, graph, features in rows:
            row = self.row_of.get(graph_id)
            if row is None:
                row = self.row_of[graph_id] = self._n
                self._n += 1
                self._fit_rows(self._n)
            else:
                # Overwritten in place: land what is staged (it may hold
                # this row's earlier cells), then clear the row.
                self._write_labels(cells)
                cells = (_Cells(), _Cells())
                for block in self._blocks():
                    block.clear_row(row)
            self._ids[row] = graph_id
            self._orders[row] = features.order
            self._sizes[row] = features.size
            self._untyped[graph_id] = graph
            cells[0].stage(row, _label_counts(features.vertex_labels, vertex_id))
            cells[1].stage(row, _label_counts(features.edge_labels, edge_id))
        self._write_labels(cells)

    def _write_labels(self, cells: tuple[_Cells, _Cells]) -> None:
        self.vertex_block.write(cells[0], self._n)
        self.edge_block.write(cells[1], self._n)

    def _write_types(self) -> None:
        """Walk every graph still missing its type row, in one batch."""
        untyped, self._untyped = self._untyped, {}
        vertex_id = self.vertex_block.vocab.id
        edge_id = self.edge_block.vocab.id
        type_id = self.type_block.vocab.id
        cells = _Cells()
        for graph_id, graph in untyped.items():
            cells.stage(
                self.row_of[graph_id], _edge_types(graph, vertex_id, edge_id, type_id)
            )
        self.type_block.write(cells, self._n)

    def discard(self, graph_id: int) -> None:
        """Remove the row of ``graph_id`` (no-op when absent), O(row)."""
        row = self.row_of.pop(graph_id, None)
        if row is None:
            return
        self._untyped.pop(graph_id, None)
        last = self._n - 1
        if row != last:
            moved_id = int(self._ids[last])
            self._ids[row] = moved_id
            self._orders[row] = self._orders[last]
            self._sizes[row] = self._sizes[last]
            for block in self._blocks():
                block.move_row(last, row)
            self.row_of[moved_id] = row
        for block in self._blocks():
            block.clear_row(last)
        self._n = last

    def _blocks(self) -> tuple[_CountBlock, _CountBlock, _CountBlock]:
        return (self.vertex_block, self.edge_block, self.type_block)

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
        """``(n, |vertex vocab|) int32`` vertex-label count window."""
        return self.vertex_block.view(self._n)

    @property
    def edge_counts(self) -> np.ndarray:
        """``(n, |edge vocab|) int32`` edge-label count window."""
        return self.edge_block.view(self._n)

    @property
    def type_counts(self) -> np.ndarray:
        """``(n, |edge-type vocab|) int32`` labelled edge-type count window
        (writes the rows still waiting for it first)."""
        if self._untyped:
            self._write_types()
        return self.type_block.view(self._n)

    # ------------------------------------------------------------------
    # Query packing
    # ------------------------------------------------------------------
    def pack_query(
        self, graph: LabeledGraph, features: GraphFeatures | None = None
    ) -> "QuerySignature":
        """Project a query graph and its features (computed when not
        given) onto this matrix's vocabularies. Lookups never intern: a
        key no row has is dropped, since it cannot add to an overlap."""
        if features is None:
            features = GraphFeatures.of(graph)
        vertex_get = self.vertex_block.vocab.get
        edge_get = self.edge_block.vocab.get
        return QuerySignature(
            order=features.order,
            size=features.size,
            vertex_vector=self.vertex_block.vector(
                _label_counts(features.vertex_labels, vertex_get)
            ),
            edge_vector=self.edge_block.vector(
                _label_counts(features.edge_labels, edge_get)
            ),
            type_vector=lambda: self._pack_types(graph),
        )

    def _pack_types(self, graph: LabeledGraph) -> np.ndarray:
        if self._untyped:
            self._write_types()
        return self.type_block.vector(
            _edge_types(
                graph,
                self.vertex_block.vocab.get,
                self.edge_block.vocab.get,
                self.type_block.vocab.get,
            )
        )

    def __repr__(self) -> str:
        return (
            f"<SignatureMatrix: {self._n} rows, "
            f"{len(self.vertex_block.vocab)} vertex / "
            f"{len(self.edge_block.vocab)} edge labels, "
            f"{len(self.type_block.vocab)} edge types>"
        )


class QuerySignature:
    """One graph's signature projected onto a matrix vocabulary.

    ``order``/``size`` are the graph's *full* totals (out-of-vocabulary
    labels included); the count vectors only carry in-vocabulary keys,
    which is exactly what the overlap terms of the bounds need.

    ``type_vector`` may be given as a zero-argument callable, packed on
    first read: :meth:`SignatureMatrix.pack_query` does so, because the
    type vocabulary it projects onto is complete only once the matrix
    has written its waiting type rows, which a query that bounds no
    |mcs| never asks for.
    """

    __slots__ = ("order", "size", "vertex_vector", "edge_vector", "_type_vector")

    def __init__(
        self,
        order: int,
        size: int,
        vertex_vector: np.ndarray,
        edge_vector: np.ndarray,
        type_vector: "np.ndarray | Callable[[], np.ndarray]",
    ) -> None:
        self.order = order
        self.size = size
        self.vertex_vector = vertex_vector
        self.edge_vector = edge_vector
        self._type_vector = type_vector

    @property
    def type_vector(self) -> np.ndarray:
        if callable(self._type_vector):
            self._type_vector = self._type_vector()
        return self._type_vector
