"""Sharded graph storage: one database interface over N shard databases.

:class:`ShardedGraphDatabase` presents the exact
:class:`~repro.db.database.GraphDatabase` interface — stable global ids,
insertion-ordered iteration, versioning, iso-lookup, persistence via the
same ``entries()`` protocol — but partitions the graphs across ``shards``
inner :class:`~repro.db.database.GraphDatabase` instances through a
pluggable :class:`~repro.shard.placement.Placement` policy.

The split is what makes scatter-gather execution possible without any
change to the paper's pruning arguments:

* ids are allocated globally (never reused) and forced into the owning
  shard, so a shard database *is* a plain ``GraphDatabase`` whose ids
  happen to be a subset of the global id space — the index
  (:class:`~repro.index.store.FeatureStore`) binds to a shard unchanged
  and follows that shard's own ``version`` counter;
* the global database remains fully usable as a monolith: every backend
  (``memory``, ``indexed``, ``parallel``) runs over a sharded store
  through the inherited interface, which is how the differential testkit
  fuzzes mutations that land on different shards under *all* execution
  strategies;
* the ``sharded`` and ``auto`` backends (:mod:`repro.api.backends`)
  additionally exploit the partitioning: per-shard cascades sharing one
  bound stage, run one after another with the serial evaluator, and
  merge consumers over per-shard answers.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable, Iterator, Mapping

from repro.errors import DatasetError
from repro.db.database import GraphDatabase, StoredGraph
from repro.graph.labeled_graph import LabeledGraph
from repro.shard.placement import Placement, get_placement


class ShardedGraphDatabase(GraphDatabase):
    """A :class:`GraphDatabase` partitioned across N shard databases.

    Parameters
    ----------
    shards:
        Number of partitions (``>= 1``).
    placement:
        A registered policy name (``"hash"``, ``"size-balanced"``) or a
        :class:`~repro.shard.placement.Placement` instance.
    name:
        Database name; shard databases are named ``<name>.shard<i>``.
    """

    def __init__(
        self,
        shards: int = 2,
        placement: "str | Placement" = "hash",
        name: str = "graphdb",
    ) -> None:
        if shards < 1:
            raise DatasetError(f"a sharded database needs >= 1 shards, got {shards}")
        super().__init__(name=name)
        self.placement = get_placement(placement)
        self._shards: tuple[GraphDatabase, ...] = tuple(
            GraphDatabase(name=f"{name}.shard{index}") for index in range(shards)
        )
        #: Global id -> owning shard index, in global insertion order.
        self._shard_of: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Shard topology
    # ------------------------------------------------------------------
    @property
    def shards(self) -> tuple[GraphDatabase, ...]:
        """The per-shard databases, by shard index."""
        return self._shards

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    def shard_of(self, graph_id: int) -> int:
        """Index of the shard owning ``graph_id``."""
        try:
            return self._shard_of[graph_id]
        except KeyError:
            raise DatasetError(f"graph id {graph_id} is not in the database") from None

    def shard_sizes(self) -> list[int]:
        """Graph count per shard, by shard index."""
        return [len(shard) for shard in self._shards]

    @property
    def vertex_load(self) -> int:
        return sum(shard.vertex_load for shard in self._shards)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graphs(
        cls,
        graphs: Iterable[LabeledGraph],
        name: str = "graphdb",
        deduplicate: bool = False,
        copy: bool = True,
        shards: int = 2,
        placement: "str | Placement" = "hash",
    ) -> "ShardedGraphDatabase":
        """Bulk-load a sharded database (optionally dropping iso-duplicates)."""
        database = cls(shards=shards, placement=placement, name=name)
        return database._load(graphs, deduplicate, copy)

    @classmethod
    def from_database(
        cls,
        database: GraphDatabase,
        shards: int = 2,
        placement: "str | Placement" = "hash",
    ) -> "ShardedGraphDatabase":
        """Re-partition an existing database, preserving ids and metadata.

        The shards share the stored graph objects, features and hash
        memos with ``database`` (which already holds its own copies of the
        inserted graphs); only each entry's metadata dict is copied, and
        the source is left untouched. Loading a saved database into shards
        is ``from_database(load_database(path, preserve_ids=True), ...)``
        — with preserved ids, hash placement lands every graph on the
        same shard again (the default load compacts ids after removals,
        which is lossless for answers but not for placement).
        """
        sharded = cls(shards=shards, placement=placement, name=database.name)
        for entry in database.entries():
            sharded.restore_entry(
                sharded._place(entry.graph_id, entry.graph),
                dataclasses.replace(entry, metadata=dict(entry.metadata)),
            )
        return sharded

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
        new_id = self._next_id if graph_id is None else graph_id
        if new_id in self._shard_of:
            raise DatasetError(f"graph id {new_id} is already in the database")
        index = self._place(new_id, graph)
        if self._wal is not None and not self._wal.suppressed:
            self._log_mutation(
                self._insert_payload(graph, metadata, new_id), segment=index
            )
        self._shards[index].insert(graph, metadata, copy=copy, graph_id=new_id)
        return self._adopt(new_id, index)

    def _place(self, graph_id: int, graph: LabeledGraph) -> int:
        """The shard the placement policy picks for a new graph."""
        index = self.placement.place(graph_id, graph, self._shards)
        if not 0 <= index < len(self._shards):
            raise DatasetError(
                f"placement {self.placement.name!r} chose shard {index} "
                f"of {len(self._shards)}"
            )
        return index

    def _adopt(self, graph_id: int, index: int) -> int:
        """Book a graph just stored on shard ``index`` globally."""
        self._shard_of[graph_id] = index
        self._next_id = max(self._next_id, graph_id) + 1
        self._record(graph_id, True)
        return graph_id

    def remove(self, graph_id: int) -> None:
        index = self._shard_of.get(graph_id)
        if index is None:
            raise DatasetError(f"graph id {graph_id} is not in the database")
        self._log_mutation({"op": "remove", "graph_id": graph_id}, segment=index)
        del self._shard_of[graph_id]
        self._shards[index].remove(graph_id)
        self._record(graph_id, False)

    def restore_entry(self, shard_index: int, entry: StoredGraph) -> int:
        """Put a complete entry back on a *specific* shard, bypassing
        placement; returns its id.

        WAL snapshot restore uses this to put every graph back on the
        shard that owned it at snapshot time — re-running placement would
        be wrong for load-dependent policies, whose decision depended on
        shard loads that no longer match the original insertion order.
        The entry keeps its features and canonical hash memo, which
        depend on the graph alone: nothing is recomputed.
        """
        if not 0 <= shard_index < len(self._shards):
            raise DatasetError(
                f"shard index {shard_index} out of range "
                f"for {len(self._shards)} shards"
            )
        if entry.graph_id in self._shard_of:
            raise DatasetError(
                f"graph id {entry.graph_id} is already in the database"
            )
        self._shards[shard_index]._add_entry(entry)
        return self._adopt(entry.graph_id, shard_index)

    # ------------------------------------------------------------------
    # Durability (segment routing: one WAL segment per shard)
    # ------------------------------------------------------------------
    def wal_segment(self, graph_id: int) -> int:
        return self.shard_of(graph_id)

    def wal_segment_for_insert(self, graph: LabeledGraph, graph_id: int) -> int:
        # Placement is deterministic given the id and the current shard
        # state, so the insert that follows this routing decision lands
        # on the same shard the record was filed under.
        return self.placement.place(graph_id, graph, self._shards)

    # ------------------------------------------------------------------
    # Lookup (routed through the owning shard, global insertion order)
    # ------------------------------------------------------------------
    def get(self, graph_id: int) -> LabeledGraph:
        return self._shards[self.shard_of(graph_id)].get(graph_id)

    def entry(self, graph_id: int) -> StoredGraph:
        return self._shards[self.shard_of(graph_id)].entry(graph_id)

    def ids(self) -> list[int]:
        return list(self._shard_of)

    def graphs(self) -> list[LabeledGraph]:
        return [self.get(graph_id) for graph_id in self._shard_of]

    def entries(self) -> Iterator[StoredGraph]:
        return (self.entry(graph_id) for graph_id in self._shard_of)

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._shard_of)

    def __contains__(self, graph_id: object) -> bool:
        return graph_id in self._shard_of

    def __iter__(self) -> Iterator[tuple[int, LabeledGraph]]:
        for graph_id in self._shard_of:
            yield graph_id, self.get(graph_id)

    def __repr__(self) -> str:
        sizes = "+".join(str(size) for size in self.shard_sizes())
        return (
            f"<ShardedGraphDatabase {self.name!r}: {len(self)} graphs "
            f"across {self.shard_count} shards ({sizes})>"
        )
