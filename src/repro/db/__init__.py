"""Graph-database layer: storage, caches, persistence, write-ahead log.

Wraps the core GSS computation with the machinery a database system needs:
an id-addressed store with iso-deduplication and a mutation version, the
pair cache and answer store that let repeated queries skip exact solves,
query statistics making the savings measurable, and durable storage
(snapshots plus a write-ahead log). The bound index the engine prunes
with lives in :mod:`repro.index`; queries run through :mod:`repro.api`.
"""

from repro.db.database import GraphDatabase, StoredGraph
from repro.db.stats import PhaseTimer, QueryStats
from repro.db.cache import PairCache
from repro.db.persistence import (
    atomic_write_text,
    database_from_dict,
    database_to_dict,
    load_database,
    save_database,
)
from repro.db.wal import DurableLog, RecoveredState, SyncPolicy, recover

__all__ = [
    "GraphDatabase",
    "StoredGraph",
    "QueryStats",
    "PhaseTimer",
    "PairCache",
    "database_to_dict",
    "database_from_dict",
    "save_database",
    "load_database",
    "atomic_write_text",
    "DurableLog",
    "RecoveredState",
    "SyncPolicy",
    "recover",
]
