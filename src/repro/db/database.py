"""In-memory graph database with stable ids and optional deduplication.

The store the paper's queries run against: insertion-ordered graphs with
integer ids, per-graph metadata, and iso-invariant duplicate detection via
canonical hashing (hash collisions are resolved by an exact isomorphism
check, so deduplication is always sound).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from collections.abc import Hashable, Iterable, Iterator, Mapping
from typing import TYPE_CHECKING

from repro.errors import DatasetError, VertexNotFoundError
from repro.graph.canonical import canonical_hash
from repro.graph.features import GraphFeatures
from repro.graph.isomorphism import is_isomorphic
from repro.graph.labeled_graph import LabeledGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.wal import DurableLog

#: Changes a database's change log keeps (see
#: :meth:`GraphDatabase.changes_since`): a reader more changes behind than
#: this cannot be brought forward and reads in full.
CHANGE_LOG_LIMIT = 256


@dataclass(slots=True)
class StoredGraph:
    """One database entry: the graph plus bookkeeping.

    ``graph`` is a copy-on-write :meth:`~repro.graph.LabeledGraph.copy`
    of the inserted graph (or the object itself under ``copy=False``).
    ``features`` are computed at insert, :attr:`iso_hash` on first read.
    """

    graph_id: int
    graph: LabeledGraph
    features: GraphFeatures
    metadata: dict[str, object] = field(default_factory=dict)
    _iso_hash: str | None = field(default=None, repr=False, compare=False)

    @property
    def iso_hash(self) -> str:
        """The graph's canonical hash, computed on first read and kept.
        Two threads that compute it at once write the same string, so
        the unlocked race is harmless."""
        if self._iso_hash is None:
            self._iso_hash = canonical_hash(self.graph)
        return self._iso_hash


class GraphDatabase:
    """An insertion-ordered collection of labeled graphs.

    Graphs are copied on insert, so later mutation of the caller's object
    cannot corrupt the index or the cached features. The copy is
    copy-on-write (:meth:`~repro.graph.LabeledGraph.copy`): the entry
    shares the caller's vertex-label and adjacency dictionaries until
    either graph is mutated, and the mutated one then re-creates its own.
    """

    def __init__(self, name: str = "graphdb") -> None:
        self.name = name
        self._entries: dict[int, StoredGraph] = {}
        self._next_id = 0
        self._version = 0
        self._vertex_load = 0
        self._wal: "DurableLog | None" = None
        #: ``(version, graph id, added?)`` per mutation, newest last.
        self._changes: "deque[tuple[int, int, bool]]" = deque(
            maxlen=CHANGE_LOG_LIMIT
        )

    @property
    def vertex_load(self) -> int:
        """Total vertex count across stored graphs (O(1)).

        The load signal size-balanced shard placement reads per insert;
        maintained incrementally so placement never rescans entries.
        """
        return self._vertex_load

    @property
    def version(self) -> int:
        """Mutation counter, bumped on every insert/remove.

        Derived structures (the :class:`~repro.index.FeatureStore` of
        every bounded plan, the session's answer store) record the
        version they were built against and bring themselves up to date
        when it changes, so callers never refresh anything by hand.
        """
        return self._version

    def _record(self, graph_id: int, added: bool) -> None:
        """Bump the version and log the change that bumped it."""
        self._version += 1
        self._changes.append((self._version, graph_id, added))

    def changes_since(
        self, version: int
    ) -> tuple[list[int], list[int]] | None:
        """What changed after ``version``: ``(added, removed)`` graph ids.

        ``added`` holds the graphs inserted since ``version`` that are
        still live; ``removed`` the graphs live at ``version`` that were
        removed since; both in change order. A graph removed and inserted
        again under its old id is in both; one inserted and removed again
        is in neither. ``None`` when the log no longer reaches back to
        ``version`` (it keeps the last :data:`CHANGE_LOG_LIMIT` changes)
        or a concurrent mutation moved it mid-read. A relabel is a remove
        plus an insert under a fresh id, so the log needs no other op.
        """
        if version == self._version:
            return [], []
        changes = self._changes
        if not changes or not changes[0][0] - 1 <= version < self._version:
            return None
        first: dict[int, bool] = {}
        last: dict[int, bool] = {}
        try:
            for record_version, graph_id, added in reversed(changes):
                if record_version <= version:
                    break
                last.setdefault(graph_id, added)
                first[graph_id] = added
        except RuntimeError:  # the deque changed size during iteration
            return None
        return (
            [graph_id for graph_id, live in reversed(last.items()) if live],
            [
                graph_id
                for graph_id, was_added in reversed(first.items())
                if not was_added
            ],
        )

    @property
    def next_id(self) -> int:
        """The id the next un-forced :meth:`insert` will assign."""
        return self._next_id

    def reserve_ids(self, next_id: int) -> None:
        """Bump the id allocator to at least ``next_id``.

        Snapshot restore calls this so ids freed by pre-snapshot removals
        are never reused — reuse would break handle bookkeeping and make
        hash placement land replayed graphs on the wrong shard.
        """
        self._next_id = max(self._next_id, next_id)

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    @property
    def wal(self) -> "DurableLog | None":
        """The attached write-ahead log, if any."""
        return self._wal

    def attach_wal(self, log: "DurableLog") -> None:
        """Make every subsequent mutation append-before-apply to ``log``.

        The log must already reflect this database's current state (a
        fresh :meth:`~repro.db.wal.DurableLog.initialize` snapshot of it,
        or the :meth:`~repro.db.wal.DurableLog.recover` replay that built
        it) — attaching does not retroactively journal existing entries.
        """
        self._wal = log

    def detach_wal(self) -> "DurableLog | None":
        """Stop journaling; returns the previously attached log."""
        log, self._wal = self._wal, None
        return log

    def wal_segment(self, graph_id: int) -> int:
        """WAL segment for records about an existing ``graph_id``."""
        return 0

    def wal_segment_for_insert(self, graph: LabeledGraph, graph_id: int) -> int:
        """WAL segment for a record inserting ``graph`` as ``graph_id``."""
        return 0

    def _log_mutation(self, op_payload: dict, segment: int) -> int | None:
        """Append one record for a mutation about to be applied.

        Returns its LSN, or ``None`` when no log is attached or the op
        layer is logging a compound record itself
        (:meth:`~repro.db.wal.DurableLog.suppress`). Raising here aborts
        the mutation before any state changes — write-ahead means a
        mutation the log rejected never happened.
        """
        if self._wal is None or self._wal.suppressed:
            return None
        return self._wal.append(op_payload, self._version + 1, segment)

    def _insert_payload(
        self,
        graph: LabeledGraph,
        metadata: Mapping[str, object] | None,
        graph_id: int,
    ) -> dict:
        from repro.graph.serialization import graph_to_dict

        payload: dict = {
            "op": "add",
            "graph": graph_to_dict(graph),
            "graph_id": graph_id,
        }
        if metadata:
            payload["metadata"] = dict(metadata)
        return payload

    @classmethod
    def from_graphs(
        cls,
        graphs: Iterable[LabeledGraph],
        name: str = "graphdb",
        deduplicate: bool = False,
        copy: bool = True,
    ) -> "GraphDatabase":
        """Bulk-load a database (optionally dropping isomorphic duplicates).

        Each graph is stored as :meth:`insert` stores it: a copy-on-write
        copy sharing the caller's dictionaries until either is mutated.
        ``copy=False`` stores the caller's graph objects directly (no
        copy) — used by view-style sessions that must preserve graph
        identity; the caller promises not to mutate the graphs.
        """
        return cls(name=name)._load(graphs, deduplicate, copy)

    def _load(self, graphs, deduplicate: bool, copy: bool) -> "GraphDatabase":
        """Insert ``graphs``; returns ``self``. ``deduplicate`` drops
        iso-duplicates through a local hash -> ids map, not a scan each."""
        kept: dict[str, list[int]] = {}
        for graph in graphs:
            if deduplicate:
                twins = kept.setdefault(canonical_hash(graph), [])
                if any(is_isomorphic(self.get(twin), graph) for twin in twins):
                    continue
                twins.append(self.next_id)
            self.insert(graph, copy=copy)
        return self

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(
        self,
        graph: LabeledGraph,
        metadata: Mapping[str, object] | None = None,
        copy: bool = True,
        graph_id: int | None = None,
    ) -> int:
        """Store a copy of ``graph`` (the object itself when ``copy=False``);
        returns its id.

        The copy shares ``graph``'s dictionaries until either of the two
        is mutated; the mutated graph then copies them first, so a later
        write to the caller's graph never reaches the entry, its
        features or its canonical hash (computed on first read, not
        here: :attr:`StoredGraph.iso_hash`).

        ``graph_id`` forces a specific id instead of the next sequential
        one — the sharded store uses this so per-shard databases hold the
        *global* ids, and re-partitioning preserves identity. Forced ids
        must be fresh; ids are never reused either way.
        """
        if graph_id is not None and graph_id in self._entries:
            raise DatasetError(f"graph id {graph_id} is already in the database")
        new_id = self._next_id if graph_id is None else graph_id
        if self._wal is not None and not self._wal.suppressed:
            self._log_mutation(
                self._insert_payload(graph, metadata, new_id),
                self.wal_segment_for_insert(graph, new_id),
            )
        self._add_entry(
            StoredGraph(
                graph_id=new_id,
                graph=graph.copy() if copy else graph,
                features=GraphFeatures.of(graph),
                metadata=dict(metadata) if metadata else {},
            )
        )
        return new_id

    def _add_entry(self, entry: StoredGraph) -> None:
        """Store a complete entry under its (fresh) id, unjournaled.

        Re-partitioning moves entries through here, so a graph's features
        and hash are computed at most once.
        """
        self._entries[entry.graph_id] = entry
        self._next_id = max(self._next_id, entry.graph_id) + 1
        self._vertex_load += entry.graph.order
        self._record(entry.graph_id, True)

    def remove(self, graph_id: int) -> None:
        """Delete the graph with ``graph_id``."""
        if graph_id not in self._entries:
            raise DatasetError(f"graph id {graph_id} is not in the database")
        self._log_mutation(
            {"op": "remove", "graph_id": graph_id}, self.wal_segment(graph_id)
        )
        entry = self._entries.pop(graph_id)
        self._vertex_load -= entry.graph.order
        self._record(graph_id, False)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, graph_id: int) -> LabeledGraph:
        """The graph stored under ``graph_id``."""
        try:
            return self._entries[graph_id].graph
        except KeyError:
            raise DatasetError(f"graph id {graph_id} is not in the database") from None

    def entry(self, graph_id: int) -> StoredGraph:
        """Full entry (graph + features + metadata) for ``graph_id``."""
        try:
            return self._entries[graph_id]
        except KeyError:
            raise DatasetError(f"graph id {graph_id} is not in the database") from None

    def ids(self) -> list[int]:
        """All graph ids, in insertion order."""
        return list(self._entries)

    def graphs(self) -> list[LabeledGraph]:
        """All graphs, in insertion order."""
        return [entry.graph for entry in self._entries.values()]

    def entries(self) -> Iterator[StoredGraph]:
        """Iterate over stored entries, in insertion order."""
        return iter(self._entries.values())

    def find_isomorphic(self, graph: LabeledGraph) -> int | None:
        """Id of the earliest-inserted stored graph isomorphic to
        ``graph``, or ``None``. Only entries whose features match are
        hashed, and a hash match is confirmed by an exact test."""
        shape, iso_hash = _shape(GraphFeatures.of(graph)), None
        for entry in self.entries():
            if _shape(entry.features) == shape:
                iso_hash = iso_hash or canonical_hash(graph)
                if entry.iso_hash == iso_hash and is_isomorphic(entry.graph, graph):
                    return entry.graph_id
        return None

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, graph_id: object) -> bool:
        return graph_id in self._entries

    def __iter__(self) -> Iterator[tuple[int, LabeledGraph]]:
        for graph_id, entry in self._entries.items():
            yield graph_id, entry.graph

    def __repr__(self) -> str:
        return f"<GraphDatabase {self.name!r}: {len(self)} graphs>"


def _shape(features: GraphFeatures) -> tuple:
    """Order, size and label counts (as mappings: labels match by equality)."""
    return (features.order, features.size, dict(features.vertex_labels),
            dict(features.edge_labels))
