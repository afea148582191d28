"""Pairwise-computation and whole-answer caches for repeated queries.

Interactive sessions issue many queries against the same database, often
re-using query graphs (refinement after inspection, parameter tweaks) —
and essentially all query time goes into exact per-pair GED/MCS solving.
:class:`PairCache` is the canonical cross-query cache the engine's
cached-pair cascade stage reads and writes through its lookup protocol
(:meth:`~PairCache.subject_key` / :meth:`~PairCache.get` /
:meth:`~PairCache.put`). Entries are keyed by the *canonical hashes* of
the two graphs plus one measure name, so a solved pair is re-used across
queries, sessions, measure subsets, and even isomorphic re-submissions of
the same graph. Because keys identify graph structure rather than storage
slots, entries stay sound under database mutation: a removed graph's
entries are merely unused (and eventually LRU-evicted), never wrong.

Canonical hashing is iso-invariant (:mod:`repro.graph.canonical`), and a
stored graph is hashed on its first key, not at insert; the
measures shipped with the paper depend only on graph structure and labels,
so serving a cached value for an isomorphic pair is exact, not
approximate. Construct :class:`PairCache` with ``symmetric=False`` when
caching a non-symmetric custom measure.

Beside the exact values, the cache keeps **floors**: per pair and
measure, the highest cap a bounded solve of the pair reached (a proof
that the value is at least that much, see
:func:`repro.engine.evaluate.pair_values`). A pair cut at a cap has no
exact value to cache; its floor lets the next run over the same cache
cut it again without a search. Floors live in their own LRU store and
count as neither entries, hits nor misses.

:class:`AnswerStore` sits one level up: whole answers of a session's
repeated specs, each with the database version it was computed at (see
:meth:`repro.api.session.Session.execute`).

Every store here is shared by the server's query threads, so each
lookup-and-reorder runs under its store's lock.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from collections.abc import Hashable

from repro.graph.canonical import canonical_hash
from repro.graph.features import GraphFeatures
from repro.graph.labeled_graph import LabeledGraph

#: Entry bound of a session's :class:`AnswerStore`.
ANSWER_STORE_LIMIT = 64


class _LruStore:
    """Bounded mapping with least-recently-used eviction, thread-safe."""

    def __init__(self, max_entries: int) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> object | None:
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            return value

    def put(self, key: Hashable, value: object) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def drop_where(self, predicate) -> None:
        with self._lock:
            stale = [key for key in self._entries if predicate(key)]
            for key in stale:
                del self._entries[key]

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def keys(self) -> list:
        with self._lock:
            return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


class PairCache:
    """Canonical-hash-keyed cache of exact measure values, per measure.

    The cache the staged engine shares across queries and sessions: one
    float per ``(graph hash, graph hash, measure name)``. A refined query
    re-uses every pair already solved, and a query under measures
    ``(edit, mcs)`` re-uses ``edit`` values solved by an earlier
    ``(edit, mcs, union)`` query — vector lookups assemble per-measure
    entries and succeed only when every dimension is present.

    Parameters
    ----------
    max_entries:
        LRU bound on stored per-measure values.
    symmetric:
        Normalize the hash pair so ``d(a, b)`` and ``d(b, a)`` share an
        entry. Sound for the paper's measures (all symmetric); pass
        ``False`` when caching a non-symmetric custom measure.
    pin_limit:
        LRU cap on the query-hash memo (see :meth:`query_hash`). Each
        memo entry *pins* a query graph with a strong reference, so the
        cap bounds how much graph memory a long-lived cache — e.g. one
        shared across the sessions of a sharded deployment — can keep
        alive. Surfaced as ``pinned``/``pin_limit`` in
        :attr:`~repro.api.result.ResultSet.cache_info`.
    """

    #: Default LRU bound on memoised canonical query hashes.
    _HASH_MEMO_LIMIT = 256

    def __init__(
        self,
        max_entries: int = 200_000,
        symmetric: bool = True,
        pin_limit: int | None = None,
    ) -> None:
        self._store = _LruStore(max_entries)
        self._floors = _LruStore(max_entries)
        self.symmetric = symmetric
        self.pin_limit = self._HASH_MEMO_LIMIT if pin_limit is None else pin_limit
        if self.pin_limit < 1:
            raise ValueError("pin_limit must be positive")
        self.hits = 0
        self.misses = 0
        #: Bumped whenever entries are dropped on purpose (:meth:`clear`,
        #: :meth:`invalidate_subject`); answers built from the values of
        #: an older generation are keyed by it and never served again.
        self.generation = 0
        #: ``(id(graph), mutation_count)`` -> ``[graph, canonical hash,
        #: features or None]``.
        self._hash_memo = _LruStore(self.pin_limit)

    @property
    def max_entries(self) -> int:
        return self._store.max_entries

    @property
    def pinned(self) -> int:
        """How many query graphs the hash memo currently pins."""
        return len(self._hash_memo)

    # -- lookup protocol (read by the cached-pairs stage) ---------------
    def query_hash(self, query: LabeledGraph) -> str:
        """Canonical hash of the query graph, memoised soundly.

        Canonicalization is the per-query fixed cost of every cached
        run, so repeated queries with the same graph (refinement loops,
        replayed specs, live views) should not pay it again. Plain
        ``id()`` memoisation would be unsound — ids are re-used after
        garbage collection and survive in-place mutation — so entries
        are keyed by ``(id(graph), graph.mutation_count)`` *and* hold a
        strong reference to the graph: the reference pins the id against
        re-use while the entry lives (verified with ``is``), and any
        in-place mutation bumps :attr:`~repro.graph.labeled_graph.
        LabeledGraph.mutation_count`, changing the key. The memo is a
        small LRU so pinned graphs cannot accumulate unboundedly.
        """
        return self._query_entry(query)[1]

    def query_features(self, query: LabeledGraph) -> GraphFeatures:
        """The query graph's :class:`GraphFeatures`, kept on the same
        memo entry as its :meth:`query_hash`."""
        entry = self._query_entry(query)
        if entry[2] is None:
            entry[2] = GraphFeatures.of(query)
        return entry[2]

    def _query_entry(self, query: LabeledGraph) -> list:
        key = (id(query), query.mutation_count)
        entry = self._hash_memo.get(key)
        if entry is None or entry[0] is not query:
            entry = [query, canonical_hash(query), None]
            self._hash_memo.put(key, entry)
        return entry

    def subject_key(self, entry) -> Hashable:
        """Cache key component of a stored database graph: its iso hash,
        computed on first use."""
        return entry.iso_hash

    def _pair(self, subject_key: Hashable, query_hash: str) -> tuple:
        if self.symmetric and isinstance(subject_key, str):
            return tuple(sorted((subject_key, query_hash)))
        return (subject_key, query_hash)

    def get(
        self,
        subject_key: Hashable,
        query_hash: str,
        measures: tuple[str, ...],
    ) -> tuple[float, ...] | None:
        """Cached vector assembled per measure, or ``None`` if any is absent."""
        pair = self._pair(subject_key, query_hash)
        values = []
        for name in measures:
            value = self._store.get((pair, name))
            if value is None:
                self.misses += 1
                return None
            values.append(value)
        self.hits += 1
        return tuple(values)

    def put(
        self,
        subject_key: Hashable,
        query_hash: str,
        measures: tuple[str, ...],
        vector: tuple[float, ...],
    ) -> None:
        """Store one entry per measure dimension (LRU-evicting beyond cap)."""
        pair = self._pair(subject_key, query_hash)
        for name, value in zip(measures, vector):
            self._store.put((pair, name), float(value))

    def _floor_key(self, subject_key: Hashable, query_hash: str, name: str) -> tuple:
        return (self._pair(subject_key, query_hash), name)

    def floor(self, subject_key: Hashable, query_hash: str, name: str) -> float:
        """The pair's proven lower bound on measure ``name`` (``-inf``
        when none is known)."""
        value = self._floors.get(self._floor_key(subject_key, query_hash, name))
        return -math.inf if value is None else value

    def raise_floor(
        self, subject_key: Hashable, query_hash: str, name: str, value: float
    ) -> None:
        """Record that the pair's measure ``name`` is at least ``value``."""
        if value > self.floor(subject_key, query_hash, name):
            key = self._floor_key(subject_key, query_hash, name)
            self._floors.put(key, float(value))

    # -- maintenance ----------------------------------------------------
    def invalidate_subject(self, subject_key: Hashable) -> None:
        """Drop every entry (and floor) involving ``subject_key``.

        Rarely needed — content-addressed keys stay sound under database
        mutation — but useful when a measure implementation itself changed.
        """
        self._store.drop_where(lambda key: subject_key in key[0])
        self._floors.drop_where(lambda key: subject_key in key[0])
        self.generation += 1

    def clear(self) -> None:
        """Drop everything (floors, statistics and hash memo included)."""
        self._store.clear()
        self._floors.clear()
        self.generation += 1
        self._hash_memo.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._store)

    @property
    def hit_rate(self) -> float:
        """Fraction of vector lookups served entirely from cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__}: {len(self)} entries, "
            f"hit rate {self.hit_rate:.0%}>"
        )


class AnswerStore:
    """Whole query answers: the newest one per key, with its database version.

    A read at the entry's own version is a *hit*. An entry at an older
    version is the starting point of a *replay* over the database's change
    log (see :meth:`repro.api.session.Session.execute`), or of a *miss*
    when it cannot be brought forward. A put never replaces a key's entry
    with an older one. Entries are bounded by :data:`ANSWER_STORE_LIMIT`,
    least recently used first out.
    """

    def __init__(self) -> None:
        self._entries = _LruStore(ANSWER_STORE_LIMIT)
        self.hits = 0
        self.replays = 0
        self.misses = 0
        # Guards the counters and the check-then-put of a key's version.
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> "tuple[int, object] | None":
        """The newest entry stored for ``key``: ``(version, answer)``."""
        return self._entries.get(key)

    def count(self, outcome: str) -> None:
        """Count one read as one of ``"hits"``, ``"replays"``, ``"misses"``."""
        with self._lock:
            setattr(self, outcome, getattr(self, outcome) + 1)

    def put(self, version: int, key: Hashable, value: object) -> None:
        """Store ``value`` as ``key``'s answer at ``version``, unless the
        key already holds a newer one."""
        with self._lock:
            current = self._entries.get(key)
            if current is None or current[0] <= version:
                self._entries.put(key, (version, value))

    def snapshot(self) -> dict[str, int]:
        """``hits``, ``replays``, ``misses`` and live ``entries``
        (``/v1/stats``)."""
        return {
            "hits": self.hits,
            "replays": self.replays,
            "misses": self.misses,
            "entries": len(self),
        }

    def __len__(self) -> int:
        return len(self._entries)
