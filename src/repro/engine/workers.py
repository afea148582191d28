"""Persistent shared-memory worker pool: long-lived processes, shipped bounds.

The per-query ``ProcessPoolExecutor`` this module replaces paid two taxes
that swamped the actual work (see ``BENCH_sharded.json`` before this
module existed): every query re-shipped its database payload across the
process boundary, and deferred evaluation blinded the bound stages — a
pooled run evaluated ~7× more pairs than the serial scan it was supposed
to beat. Three mechanisms fix the economics:

**Persistent workers** (:class:`WorkerPool`). Workers are plain
``multiprocessing`` processes started once per pool size and reused by
every query of every session; a task is a dict on a queue, not a fresh
executor + pickled closure. A worker that dies mid-query (OOM killer,
signal) is detected by the result loop, the pool rebuilds itself and
resubmits only the unfinished tasks — unlike ``ProcessPoolExecutor``,
which turns one lost worker into a permanently broken pool.

**Shared-memory attachments with row-level deltas**
(:class:`DatabaseAttachment`). A database crosses the process boundary
as a *base blob* (pickled ``{graph_id: graph}`` parked in a
``multiprocessing.shared_memory`` segment, a temp file when shared
memory is unavailable) plus a chain of *delta blobs* — ``(added graphs,
removed ids)`` diffs keyed by ``database.version``. Graph ids are never
reused and stored graphs never mutate in place (a relabel is
remove + re-insert under a fresh id), so the id-set diff is exactly the
set of stale entries; a mutation between queries ships kilobytes, not
the database. Workers cache materialized payloads per attachment token
and replay only the deltas they have not seen. The shard
``SignatureMatrix`` additionally crosses as raw array bytes that workers
map back into zero-copy NumPy views (:mod:`repro.index.shm`), so bound
vectors need not be shipped per candidate at all.

**A shared best-so-far frontier** (:class:`FrontierBuffer` /
:class:`BoundSharing`). Deferred evaluation loses mid-scan pruning: the
bound stages observe nothing until the drain. The frontier is a small
shared-memory board of *exact* vectors — one single-writer region per
worker; a writer publishes a row and then bumps its region's count, so
readers never see a torn row (plain store ordering, no locks). Workers
check each candidate's optimistic bound against the board before solving
it and publish every vector they solve; the parent filters not-yet-shipped
candidates between waves. Published vectors are exact vectors of real
database graphs and bounds are componentwise ≤ the exact vectors, so a
candidate whose bound already has ``prune_limit`` published dominators
(or ``k`` published better scalars, for top-k) provably cannot enter the
answer — the same soundness argument as the in-process bound stages.
A candidate that passes is solved against the board's cap
(:class:`FrontierCutoff`: the same rule applied to its exact vector);
one that reaches it is reported as cut and never published. Rows carry
the graph id and readers deduplicate by it, so a resubmitted task
double-publishing after a worker respawn can never inflate the
dominator count (which would be unsound for skyband/top-k).

Degradation is graceful and layered: no shared memory → blobs fall back
to temp files and the frontier is simply absent (parent-side wave
filtering still recovers most pruning); blobs unwritable → tasks ship
graphs inline; ``multiprocessing`` unusable → the evaluator solves
in-process, still frontier-filtered. Every owned segment is tracked and
released by :func:`shutdown_pool` (also registered ``atexit``), and
:func:`live_segments` exposes the live set so tests can assert nothing
leaks.
"""

from __future__ import annotations

import atexit
import math
import os
import pickle
import queue as queue_module
import struct
import tempfile
import time
import uuid
import weakref
from collections import OrderedDict
from typing import TYPE_CHECKING

from repro.errors import ReproError
from repro.skyline.utils import dominates
from repro.engine.evaluate import SOLVER_CUTOFF, Evaluator, pair_values
from repro.engine.plan import cap_above, kth_smallest, pareto_cap

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.core import RunContext
    from repro.engine.plan import Candidate


class WorkerPoolError(ReproError):
    """The worker pool could not run a task (start failure, worker error,
    or more consecutive worker deaths than the rebuild budget allows)."""


# ----------------------------------------------------------------------
# Shared-memory plumbing
# ----------------------------------------------------------------------
#: Segment names are prefixed so leak checks (and humans inspecting
#: /dev/shm) can attribute them; the suffix is random to avoid collisions.
SEGMENT_PREFIX = "repro_"

#: Set to True (tests) to force the no-shared-memory degradation path.
_SHM_DISABLED = False
_SHM_PROBE: bool | None = None

#: Every segment/file owner created by this process, for ``atexit``
#: cleanup and the :func:`live_segments` leak check.
_LIVE_OWNERS: "set[object]" = set()


def _segment_name() -> str:
    return SEGMENT_PREFIX + uuid.uuid4().hex[:16]


def shared_memory_available() -> bool:
    """Whether ``multiprocessing.shared_memory`` works here (probed once)."""
    global _SHM_PROBE
    if _SHM_DISABLED:
        return False
    if _SHM_PROBE is None:
        try:
            from multiprocessing import shared_memory

            segment = shared_memory.SharedMemory(
                create=True, size=8, name=_segment_name()
            )
            segment.close()
            segment.unlink()
            _SHM_PROBE = True
        except Exception:
            _SHM_PROBE = False
    return _SHM_PROBE


def attach_segment(name: str):
    """Attach an existing segment without resource-tracker ownership.

    The attaching side must not register the segment with its
    ``resource_tracker`` — the creating process owns the lifetime, and a
    tracked attach makes the first worker to exit unlink segments other
    workers (and the parent) still use (CPython gh-82300). ``track=False``
    exists from 3.13; older interpreters need registration suppressed
    during the attach (suppressed, not unregistered after: under fork the
    workers share the parent's tracker process, so an unregister from a
    worker would evict the *parent's* legitimate registration and make
    the parent's eventual unlink warn).
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        from multiprocessing import resource_tracker

        original = resource_tracker.register

        def _register(path, rtype):
            if rtype != "shared_memory":
                original(path, rtype)

        resource_tracker.register = _register
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


def live_segments() -> list[str]:
    """Names of the shared-memory segments this process currently owns
    (blobs, frontiers, matrix exports) — the leak-check surface."""
    names: list[str] = []
    for owner in _LIVE_OWNERS:
        names.extend(owner.segment_names())
    return sorted(names)


class _Blob:
    """One immutable byte payload parked for workers to read.

    Preferred transport is a shared-memory segment (attach is a page-table
    mapping, not a copy); a temp file when shared memory is unavailable or
    full. ``ref()`` is the picklable handle tasks carry; ``release()`` is
    idempotent.
    """

    __slots__ = ("kind", "name", "size", "_segment")

    def __init__(self, kind: str, name: str, size: int) -> None:
        self.kind = kind  # "shm" | "file"
        self.name = name
        self.size = size
        self._segment = None

    @classmethod
    def create(cls, data: bytes) -> "_Blob":
        if shared_memory_available():
            try:
                from multiprocessing import shared_memory

                segment = shared_memory.SharedMemory(
                    create=True, size=max(1, len(data)), name=_segment_name()
                )
                segment.buf[: len(data)] = data
                blob = cls("shm", segment.name, len(data))
                blob._segment = segment
                _LIVE_OWNERS.add(blob)
                return blob
            except Exception:
                pass
        handle, path = tempfile.mkstemp(prefix="repro-pool-", suffix=".blob")
        with os.fdopen(handle, "wb") as stream:
            stream.write(data)
        blob = cls("file", path, len(data))
        _LIVE_OWNERS.add(blob)
        return blob

    def ref(self) -> tuple[str, str, int]:
        return (self.kind, self.name, self.size)

    def segment_names(self) -> list[str]:
        return [self.name] if self.kind == "shm" and self._segment else []

    def release(self) -> None:
        _LIVE_OWNERS.discard(self)
        if self.kind == "shm":
            segment, self._segment = self._segment, None
            if segment is not None:
                try:
                    segment.close()
                    segment.unlink()
                except Exception:
                    pass
        else:
            try:
                os.remove(self.name)
            except OSError:
                pass


def read_blob(ref: tuple[str, str, int]) -> bytes:
    """Worker side: the bytes behind a :meth:`_Blob.ref` handle."""
    kind, name, size = ref
    if kind == "shm":
        segment = attach_segment(name)
        try:
            return bytes(segment.buf[:size])
        finally:
            segment.close()
    with open(name, "rb") as handle:
        return handle.read()


# ----------------------------------------------------------------------
# Database attachments (base + delta chain)
# ----------------------------------------------------------------------
#: Deltas accumulated before the chain is rebased into a fresh base blob
#: (cold workers replay the whole chain, so it must stay short).
_REBASE_CHAIN_LIMIT = 8


class DatabaseAttachment:
    """One database parked across the process boundary, kept current by
    version-keyed deltas instead of full payload rollover.

    The id-set diff is sound as an invalidation unit because graph ids
    are never reused and stored graphs never mutate in place — every
    mutation is an insert or a remove of a whole entry (a relabel is
    remove + re-insert under a fresh id), and ``database.version`` bumps
    on each. A worker holding any version present in the shipped chain
    replays only the later deltas; anything older (or a rebased-away
    version) rebuilds from the base blob.
    """

    def __init__(self, database) -> None:
        self.token = uuid.uuid4().hex
        self.broken = False
        self._database_ref = weakref.ref(database)
        self._version: int | None = None
        self._ids: frozenset[int] = frozenset()
        self._base: tuple[int, _Blob] | None = None
        self._deltas: list[tuple[int, _Blob]] = []

    def database_ref(self):
        return self._database_ref()

    def refresh(self, database) -> str:
        """Sync blobs with the database; ``"warm"``/``"delta"``/``"cold"``."""
        if (
            self._base is not None
            and self._database_ref() is database
            and self._version == database.version
        ):
            return "warm"
        live = frozenset(database.ids())
        cold = (
            self._base is None
            or self._database_ref() is not database
            or len(self._deltas) >= _REBASE_CHAIN_LIMIT
        )
        if cold:
            data = pickle.dumps(
                {graph_id: database.get(graph_id) for graph_id in sorted(live)},
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            blob = _Blob.create(data)
            self._drop_blobs()
            self._base = (database.version, blob)
        else:
            added = {
                graph_id: database.get(graph_id)
                for graph_id in sorted(live - self._ids)
            }
            removed = sorted(self._ids - live)
            data = pickle.dumps(
                (added, removed), protocol=pickle.HIGHEST_PROTOCOL
            )
            self._deltas.append((database.version, _Blob.create(data)))
        self._database_ref = weakref.ref(database)
        self._version = database.version
        self._ids = live
        return "cold" if cold else "delta"

    @property
    def version(self) -> int | None:
        return self._version

    @property
    def delta_count(self) -> int:
        return len(self._deltas)

    def chain(self) -> list[tuple[str, int, tuple[str, str, int]]]:
        """The picklable blob chain tasks carry: base first, deltas in
        version order."""
        base_version, base_blob = self._base
        links = [("base", base_version, base_blob.ref())]
        links.extend(
            ("delta", version, blob.ref()) for version, blob in self._deltas
        )
        return links

    def spec(self) -> dict:
        """The per-task attachment descriptor."""
        return {
            "token": self.token,
            "version": self._version,
            "chain": self.chain(),
        }

    def _drop_blobs(self) -> None:
        if self._base is not None:
            self._base[1].release()
            self._base = None
        for _, blob in self._deltas:
            blob.release()
        self._deltas = []

    def release(self) -> None:
        self._drop_blobs()
        self._version = None
        self._ids = frozenset()


# ----------------------------------------------------------------------
# The shared best-so-far frontier
# ----------------------------------------------------------------------
_FRONTIER_HEADER = struct.Struct("<3q")  # regions, capacity, dims
_COUNT = struct.Struct("<q")

#: Exact-vector rows one region can hold; pruning needs only the first
#: few strong vectors, so a small fixed board suffices (overflow just
#: stops publishing — never unsound).
_FRONTIER_CAPACITY = 1024


class FrontierBuffer:
    """A lock-free-ish shared board of exact ``(graph_id, vector)`` rows.

    Layout: a 3-int64 header (regions, capacity, dims), then per region
    one int64 row count followed by ``capacity`` rows of ``1 + dims``
    float64 (graph id, vector). Each region has a **single writer** (the
    parent owns region 0, worker slot ``i`` owns region ``i + 1``), which
    makes the protocol safe without locks: a writer fills the row and
    *then* increments its count, so a reader that observes count ``n``
    sees ``n`` fully-written rows. Readers keep per-region cursors
    (counts only grow, rows never change) and deduplicate by graph id —
    required because a task resubmitted after a worker death may publish
    a vector twice, and double counting would be unsound for
    skyband/top-k limits.
    """

    def __init__(self, segment, regions, capacity, dims, owner) -> None:
        self._segment = segment
        self.regions = regions
        self.capacity = capacity
        self.dims = dims
        self.owner = owner
        self._row = struct.Struct(f"<{1 + dims}d")
        self._cursors = [0] * regions
        self._seen: dict[int, tuple[float, ...]] = {}
        # Writers resume after rows already on the board (a respawned
        # worker re-attaches to a region with published rows; overwriting
        # them could tear a row under a concurrent reader).
        self._written = [
            _COUNT.unpack_from(segment.buf, self._region_offset(r))[0]
            for r in range(regions)
        ]

    @classmethod
    def create(cls, regions: int, dims: int, capacity: int = _FRONTIER_CAPACITY):
        from multiprocessing import shared_memory

        row_bytes = (1 + dims) * 8
        size = _FRONTIER_HEADER.size + regions * (8 + capacity * row_bytes)
        segment = shared_memory.SharedMemory(
            create=True, size=size, name=_segment_name()
        )
        segment.buf[:size] = b"\x00" * size
        _FRONTIER_HEADER.pack_into(segment.buf, 0, regions, capacity, dims)
        buffer = cls(segment, regions, capacity, dims, owner=True)
        _LIVE_OWNERS.add(buffer)
        return buffer

    @classmethod
    def attach(cls, name: str) -> "FrontierBuffer":
        segment = attach_segment(name)
        regions, capacity, dims = _FRONTIER_HEADER.unpack_from(segment.buf, 0)
        return cls(segment, regions, capacity, dims, owner=False)

    @property
    def name(self) -> str:
        return self._segment.name

    def _region_offset(self, region: int) -> int:
        stride = 8 + self.capacity * (1 + self.dims) * 8
        return _FRONTIER_HEADER.size + region * stride

    def publish(self, region: int, graph_id: int, values) -> bool:
        """Append one exact row to ``region`` (single writer per region)."""
        count = self._written[region]
        if count >= self.capacity:
            return False
        offset = self._region_offset(region)
        row_offset = offset + 8 + count * self._row.size
        self._row.pack_into(
            self._segment.buf, row_offset, float(graph_id), *values
        )
        _COUNT.pack_into(self._segment.buf, offset, count + 1)
        self._written[region] = count + 1
        return True

    def poll(self) -> dict[int, tuple[float, ...]]:
        """Absorb newly published rows; the full id-deduplicated map."""
        for region in range(self.regions):
            offset = self._region_offset(region)
            count = min(
                _COUNT.unpack_from(self._segment.buf, offset)[0], self.capacity
            )
            cursor = self._cursors[region]
            while cursor < count:
                row = self._row.unpack_from(
                    self._segment.buf, offset + 8 + cursor * self._row.size
                )
                self._seen.setdefault(int(row[0]), row[1:])
                cursor += 1
            self._cursors[region] = cursor
        return self._seen

    def segment_names(self) -> list[str]:
        return [self._segment.name] if self.owner and self._segment else []

    def release(self) -> None:
        _LIVE_OWNERS.discard(self)
        segment, self._segment = self._segment, None
        if segment is None:
            return
        try:
            segment.close()
            if self.owner:
                segment.unlink()
        except Exception:
            pass


class FrontierJudge:
    """Decides "already out of the answer" from published exact vectors.

    Mirrors the in-process bound stages exactly:

    * ``pareto`` (skyline/skyband): ≥ ``limit`` published vectors
      dominate the candidate's optimistic bound
      (:func:`repro.skyline.utils.dominates`, NaN-as-tie included) —
      :class:`~repro.engine.plan.ParetoPruneStage`'s test.
    * ``rank`` (top-k): ≥ ``limit`` published scalars are strictly below
      the candidate's bound — equivalent to
      :class:`~repro.engine.plan.RankBoundStage`'s "bound exceeds the
      k-th best" cutoff (at least ``k`` better values exist iff the
      k-th smallest is below the bound).

    Threshold queries never build a judge: their cutoff is static, so
    there is nothing to share.
    """

    __slots__ = ("mode", "limit", "tolerance")

    def __init__(self, mode: str, limit: int, tolerance: float = 0.0) -> None:
        self.mode = mode  # "pareto" | "rank"
        self.limit = limit
        self.tolerance = tolerance

    def prunes(self, bounds, vectors) -> bool:
        """Whether ``bounds`` is already provably outside the answer."""
        if bounds is None:
            return False
        count = 0
        if self.mode == "rank":
            cutoff = bounds[0]
            for vector in vectors:
                if vector[0] < cutoff:
                    count += 1
                    if count >= self.limit:
                        return True
            return False
        for vector in vectors:
            if dominates(vector, bounds, self.tolerance):
                count += 1
                if count >= self.limit:
                    return True
        return False

    def config(self) -> dict:
        return {
            "mode": self.mode,
            "limit": self.limit,
            "tolerance": self.tolerance,
        }


class FrontierCutoff:
    """A judge over a live ``{graph_id: vector}`` map, in the shape
    :func:`~repro.engine.evaluate.pair_values` takes as its ``stage``:
    pooled solves run against the shared frontier's cap, as serial
    solves run against the bound stage's."""

    __slots__ = ("judge", "vectors")

    def __init__(self, judge: FrontierJudge, vectors: dict) -> None:
        self.judge = judge
        self.vectors = vectors

    def cap(self, values, dim: int) -> float | None:
        """The in-process stage's :meth:`~repro.engine.plan.BoundStage.cap`
        over the published vectors: the smallest value of ``dim`` at
        which the judge would prune the candidate's exact vector. Monotone
        like it: lowering ``values`` outside ``dim`` never lowers it."""
        judge = self.judge
        if judge.tolerance > 0:
            return None
        if judge.mode == "rank":
            best = [v[0] for v in self.vectors.values() if not math.isnan(v[0])]
            return cap_above(kth_smallest(best, judge.limit))
        return pareto_cap(list(self.vectors.values()), values, dim, judge.limit)


class BoundSharing:
    """Per-query exact-vector sharing across workers and shards.

    Holds the parent-side vector map (fed by drained results and by
    frontier polls) and, when shared memory is available, the
    :class:`FrontierBuffer` workers publish into.
    :func:`~repro.engine.scatter.bound_sharing` creates one per query
    and hands it to every pooled evaluator of the plan, so vectors
    solved in one wave (or while shard ``i`` drains) prune later waves,
    candidates of shards ``i+1..N`` *and* of sibling workers mid-wave —
    recovering the pruning the serial path gets from its bound stage.
    """

    def __init__(self, judge: FrontierJudge, dims: int, frontier) -> None:
        self.judge = judge
        self.dims = dims
        self.frontier = frontier
        self._vectors: dict[int, tuple[float, ...]] = {}

    @classmethod
    def for_spec(cls, spec, dims: int, workers: int) -> "BoundSharing | None":
        """A sharing channel for ``spec``, or ``None`` when pruning on
        shared exact vectors would be unsound or useless (threshold's
        static bound; tolerant dominance, which is not transitive)."""
        from repro.engine.planner import QueryPlanner

        kind = spec.kind
        if kind == "threshold" or not QueryPlanner.prunes(spec):
            return None
        if kind in ("skyline", "skyband"):
            judge = FrontierJudge("pareto", 1 if kind == "skyline" else spec.k)
        else:
            judge = FrontierJudge("rank", spec.k)
        frontier = None
        if shared_memory_available():
            try:
                frontier = FrontierBuffer.create(regions=workers + 1, dims=dims)
            except Exception:
                frontier = None
        return cls(judge, dims, frontier)

    @property
    def vectors(self) -> dict[int, tuple[float, ...]]:
        return self._vectors

    def poll(self) -> dict[int, tuple[float, ...]]:
        """Absorb worker-published vectors into the parent-side map."""
        if self.frontier is not None:
            for graph_id, vector in self.frontier.poll().items():
                self._vectors.setdefault(graph_id, vector)
        return self._vectors

    def observe(self, graph_id: int, values) -> None:
        self._vectors.setdefault(graph_id, tuple(values))

    def split(self, items):
        """``(kept, pruned_ids)`` of ``[(graph_id, bounds)]`` work items
        against every known exact vector (array form past 256 cells)."""
        if not self._vectors:
            return items, []
        vectors = list(self._vectors.values())
        if len(items) * len(vectors) > 256:
            return self._split_numpy(items, vectors)
        kept, pruned = [], []
        judge = self.judge
        for graph_id, bounds in items:
            if bounds is not None and judge.prunes(bounds, vectors):
                pruned.append(graph_id)
            else:
                kept.append((graph_id, bounds))
        return kept, pruned

    def _split_numpy(self, items, vectors):
        import numpy as np

        rows = [i for i, (_, bounds) in enumerate(items) if bounds is not None]
        if not rows:
            return items, []
        bounds = np.asarray([items[i][1] for i in rows], dtype=np.float64)
        exact = np.asarray(vectors, dtype=np.float64)
        judge = self.judge
        if judge.mode == "rank":
            counts = (exact[:, 0][None, :] < bounds[:, 0][:, None]).sum(axis=1)
        else:
            from repro.index.kernels import dominator_counts

            counts = dominator_counts(exact, bounds, judge.tolerance)
        prunable = set()
        for position, row in enumerate(rows):
            if counts[position] >= judge.limit:
                prunable.add(row)
        kept = [item for i, item in enumerate(items) if i not in prunable]
        pruned = [items[i][0] for i in sorted(prunable)]
        return kept, pruned

    def worker_config(self) -> dict | None:
        """The per-task frontier descriptor (``None`` without a board —
        workers then evaluate unfiltered and the parent prunes between
        waves)."""
        if self.frontier is None:
            return None
        config = self.judge.config()
        config["name"] = self.frontier.name
        return config

    def release(self) -> None:
        if self.frontier is not None:
            self.frontier.release()
            self.frontier = None


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
#: Materialized payloads per worker, keyed by attachment token (bounded:
#: long-lived workers serving many databases must not hoard dead ones).
_WORKER_PAYLOAD_LIMIT = 4
_WORKER_FRONTIER_LIMIT = 4


def _resolve_worker_measures(measure_specs):
    from repro.measures.base import default_measures, resolve_measures

    if measure_specs is None:
        return default_measures()
    return resolve_measures(measure_specs)


def ensure_payload(db_spec: dict, payloads: OrderedDict):
    """Materialize (or update) one attachment in a worker's cache.

    Returns ``(graphs, kind)`` where ``kind`` records how much shipping
    the worker actually paid: ``"warm"`` (cache hit), ``"delta"`` (replayed
    the chain suffix), ``"cold"`` (loaded the base blob).
    """
    token, version = db_spec["token"], db_spec["version"]
    chain = db_spec["chain"]
    entry = payloads.get(token)
    if entry is not None and entry[0] == version:
        payloads.move_to_end(token)
        return entry[1], "warm"
    versions = [link[1] for link in chain]
    graphs = None
    kind = "cold"
    todo = chain
    if entry is not None and entry[0] in versions:
        graphs = entry[1]
        todo = chain[versions.index(entry[0]) + 1 :]
        kind = "delta"
    for op, _, ref in todo:
        data = read_blob(ref)
        if op == "base":
            graphs = pickle.loads(data)
        else:
            added, removed = pickle.loads(data)
            for graph_id in removed:
                graphs.pop(graph_id, None)
            graphs.update(added)
    payloads[token] = (version, graphs)
    payloads.move_to_end(token)
    while len(payloads) > _WORKER_PAYLOAD_LIMIT:
        payloads.popitem(last=False)
    return graphs, kind


def _attach_frontier(config: dict, frontiers: OrderedDict):
    buffer = frontiers.get(config["name"])
    if buffer is None:
        buffer = FrontierBuffer.attach(config["name"])
        frontiers[config["name"]] = buffer
        while len(frontiers) > _WORKER_FRONTIER_LIMIT:
            _, evicted = frontiers.popitem(last=False)
            evicted.release()
    else:
        frontiers.move_to_end(config["name"])
    return buffer


def _matrix_bounds(task: dict, matrices: OrderedDict):
    """Per-id optimistic vectors recomputed from the shared matrix."""
    from repro.index.shm import matrix_bounds

    return matrix_bounds(
        task["matrix"],
        task["rows"],
        task["qsig"],
        _resolve_worker_measures(task["measures"]),
        matrices,
    )


def handle_eval(
    task: dict,
    payloads: OrderedDict,
    matrices: OrderedDict,
    frontiers: OrderedDict,
    region: int,
) -> dict:
    """Evaluate one chunk task (pure: unit-testable in-process).

    Resolves the graphs (attachment cache or inline pairs), optionally
    recomputes bounds from the shared matrix, then walks the chunk's ids:
    frontier-check, solve against the frontier's cap, publish. ``skipped``
    ids were frontier-pruned (never solved), ``cut`` ids reached the cap
    (out of the answer, not published); ``partial`` flags a mid-chunk
    deadline abandon.
    """
    stats = {"frontier_pruned": 0, "published": 0, "partial": False}
    if task.get("pairs") is not None:
        graphs = dict(task["pairs"])
        stats["attach"] = "inline"
    else:
        graphs, stats["attach"] = ensure_payload(task["db"], payloads)
    measures = _resolve_worker_measures(task["measures"])
    bounds_of = task.get("bounds") or {}
    if task.get("matrix") is not None:
        try:
            bounds_of = _matrix_bounds(task, matrices)
        except Exception:
            bounds_of = {}  # no bounds → no worker-side pruning, still sound
    frontier = None
    judge = None
    config = task.get("frontier")
    if config is not None:
        try:
            frontier = _attach_frontier(config, frontiers)
            judge = FrontierJudge(
                config["mode"], config["limit"], config["tolerance"]
            )
        except Exception:
            frontier = None
    query = task["query"]
    expires_at = task.get("deadline")
    # ``poll`` refreshes one dict in place, so the cutoff stays live.
    cutoff = None if frontier is None else FrontierCutoff(judge, frontier.poll())
    results: list[tuple[int, tuple[float, ...]]] = []
    skipped: list[int] = []
    cut: list[int] = []
    for graph_id in task["ids"]:
        if expires_at is not None and time.monotonic() >= expires_at:
            stats["partial"] = True
            break
        if frontier is not None:
            vectors = frontier.poll()
            bounds = bounds_of.get(graph_id)
            if bounds is not None and judge.prunes(bounds, vectors.values()):
                skipped.append(graph_id)
                stats["frontier_pruned"] += 1
                continue
        values = pair_values(graphs[graph_id], query, measures, cutoff)
        if not isinstance(values, tuple):
            cut.append(graph_id)  # out of the answer; nothing to publish
            continue
        results.append((graph_id, values))
        if frontier is not None and frontier.publish(region, graph_id, values):
            stats["published"] += 1
    return {"results": results, "skipped": skipped, "cut": cut, "stats": stats}


def _worker_main(slot: int, task_queue, result_queue) -> None:
    """Long-lived worker loop: pull task dicts, push result dicts."""
    payloads: OrderedDict = OrderedDict()
    matrices: OrderedDict = OrderedDict()
    frontiers: OrderedDict = OrderedDict()
    region = slot + 1  # region 0 is reserved for the parent
    while True:
        task = task_queue.get()
        if task is None:
            break
        try:
            out = handle_eval(task, payloads, matrices, frontiers, region)
            out.update(id=task["id"], run=task.get("run"), ok=True)
        except Exception as exc:  # ship the failure, keep the worker alive
            out = {
                "id": task.get("id"),
                "run": task.get("run"),
                "ok": False,
                "error": f"{type(exc).__name__}: {exc}",
            }
        try:
            result_queue.put(out)
        except Exception:
            break
    for buffer in frontiers.values():
        buffer.release()
    for attached in matrices.values():
        attached.release()


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------
#: Consecutive full-pool rebuilds tolerated within one ``run`` call.
_MAX_REBUILDS = 3
#: Result-queue poll interval; also the worker-death detection latency.
_POLL_SECONDS = 0.05


class WorkerPool:
    """A persistent set of worker processes plus this process's
    attachments (databases, matrix exports) parked for them.

    Tasks go down one queue, results come back up another; a ``run``
    scopes its results by a random run id, so results of abandoned tasks
    (deadline expiry, rebuilds) are dropped as stale instead of polluting
    the next query. Worker death is detected while waiting for results
    and answered with a full rebuild — fresh queues, fresh processes —
    and resubmission of the still-unfinished tasks only.
    """

    def __init__(self, max_workers: int) -> None:
        import multiprocessing
        import threading

        self.max_workers = max(1, max_workers)
        method = os.environ.get("REPRO_POOL_START_METHOD") or None
        self._mp = multiprocessing.get_context(method)
        # One pool serves every session and server client in the process;
        # runs are serialized because each run treats foreign run ids on
        # the shared result queue as stale and drops them.
        self._run_lock = threading.Lock()
        self._processes: list = []
        self._task_queue = None
        self._result_queue = None
        self._attachments: dict[int, DatabaseAttachment] = {}
        self._exports: dict[int, object] = {}
        self._closed = False
        #: Full-pool rebuilds over the pool's lifetime (telemetry).
        self.respawns = 0

    @property
    def started(self) -> bool:
        return bool(self._processes)

    def ensure_started(self) -> None:
        """Start (or top up) the worker set; raises on spawn failure."""
        if self._closed:
            raise WorkerPoolError("worker pool is closed")
        try:
            if self._task_queue is None:
                self._task_queue = self._mp.Queue()
                self._result_queue = self._mp.Queue()
            while len(self._processes) < self.max_workers:
                self._spawn(len(self._processes))
            for slot, process in enumerate(self._processes):
                if not process.is_alive():
                    self.respawns += 1
                    self._spawn(slot)
        except WorkerPoolError:
            raise
        except Exception as exc:
            raise WorkerPoolError(f"worker pool failed to start: {exc}") from exc

    def _spawn(self, slot: int) -> None:
        process = self._mp.Process(
            target=_worker_main,
            args=(slot, self._task_queue, self._result_queue),
            name=f"repro-pool-{slot}",
            daemon=True,
        )
        process.start()
        if slot < len(self._processes):
            self._processes[slot] = process
        else:
            self._processes.append(process)

    def _rebuild(self, pending_tasks) -> None:
        """Replace every worker and queue; requeue the unfinished tasks."""
        self.respawns += 1
        for process in self._processes:
            try:
                process.terminate()
            except Exception:
                pass
        for process in self._processes:
            try:
                process.join(timeout=5)
            except Exception:
                pass
        self._discard_queues()
        self._task_queue = self._mp.Queue()
        self._result_queue = self._mp.Queue()
        self._processes = []
        for slot in range(self.max_workers):
            self._spawn(slot)
        for task in pending_tasks:
            self._task_queue.put(task)

    def _discard_queues(self) -> None:
        for attr in ("_task_queue", "_result_queue"):
            q = getattr(self, attr)
            if q is not None:
                try:
                    q.close()
                    q.cancel_join_thread()
                except Exception:
                    pass
            setattr(self, attr, None)

    def run(self, tasks: list[dict], deadline=None) -> list[dict]:
        """Execute ``tasks``; results aligned with the input order.

        Raises :class:`~repro.errors.DeadlineExceeded` via ``deadline``
        (abandoned tasks' late results are dropped as stale by run id)
        and :class:`WorkerPoolError` on a worker-reported failure or a
        rebuild-budget overrun.
        """
        if not tasks:
            return []
        with self._run_lock:
            self.ensure_started()
            run_id = uuid.uuid4().hex
            outstanding: dict[object, dict] = {}
            for task in tasks:
                task["run"] = run_id
                outstanding[task["id"]] = task
                self._task_queue.put(task)
            results: dict[object, dict] = {}
            rebuilds = 0
            while outstanding:
                if deadline is not None:
                    deadline.check()
                try:
                    out = self._result_queue.get(timeout=_POLL_SECONDS)
                except queue_module.Empty:
                    if any(not p.is_alive() for p in self._processes):
                        if rebuilds >= _MAX_REBUILDS:
                            raise WorkerPoolError(
                                "worker pool kept losing workers "
                                f"({rebuilds} rebuilds); giving up"
                            )
                        rebuilds += 1
                        self._rebuild(list(outstanding.values()))
                    continue
                if out.get("run") != run_id or out.get("id") not in outstanding:
                    continue  # stale result of an abandoned/resubmitted task
                if not out.get("ok"):
                    raise WorkerPoolError(
                        "worker task failed: "
                        f"{out.get('error', 'unknown error')}"
                    )
                del outstanding[out["id"]]
                results[out["id"]] = out
            return [results[task["id"]] for task in tasks]

    # -- parked state -----------------------------------------------------
    def attach(self, database):
        """``(attachment, kind)`` for ``database`` (``(None, "broken")``
        when its payload cannot be parked — tasks then ship graphs
        inline)."""
        key = id(database)
        attachment = self._attachments.get(key)
        if attachment is not None and attachment.database_ref() is not database:
            # id() reuse after the original database was collected.
            attachment.release()
            attachment = None
        if attachment is None:
            attachment = DatabaseAttachment(database)
            self._attachments[key] = attachment
        if attachment.broken:
            return None, "broken"
        try:
            kind = attachment.refresh(database)
        except OSError:
            attachment.broken = True  # latched: retrying a full dump per
            return None, "broken"  # drain would repeat the expense
        return attachment, kind

    def release_attachment(self, key: int) -> None:
        attachment = self._attachments.pop(key, None)
        if attachment is not None:
            attachment.release()

    def export_matrix(self, store):
        """``(meta, matrix)`` of a shard's SignatureMatrix parked in
        shared memory, or ``None`` (no NumPy / no shared memory / export
        failure — callers fall back to inline bounds)."""
        if not shared_memory_available():
            return None
        key = id(store)
        export = self._exports.get(key)
        if export is not None and export.store_ref() is not store:
            export.release()
            export = None
            del self._exports[key]
        try:
            if export is None:
                from repro.index.shm import SharedMatrixExport

                export = SharedMatrixExport(store)
                self._exports[key] = export
            return export.refresh()
        except Exception:
            return None

    def release_export(self, key: int) -> None:
        export = self._exports.pop(key, None)
        if export is not None:
            export.release()

    def close(self) -> None:
        """Stop the workers and release every parked segment."""
        self._closed = True
        if self._task_queue is not None:
            for _ in self._processes:
                try:
                    self._task_queue.put(None)
                except Exception:
                    break
        for process in self._processes:
            try:
                process.join(timeout=2)
            except Exception:
                pass
        for process in self._processes:
            if process.is_alive():
                try:
                    process.terminate()
                    process.join(timeout=2)
                except Exception:
                    pass
        self._processes = []
        self._discard_queues()
        for key in list(self._attachments):
            self.release_attachment(key)
        for key in list(self._exports):
            self.release_export(key)


# ----------------------------------------------------------------------
# Process-wide pool registry
# ----------------------------------------------------------------------
_POOLS: dict[int, WorkerPool] = {}


def get_pool(max_workers: int) -> WorkerPool:
    """The process-wide persistent pool for ``max_workers``.

    Pools are cached per size so sessions with different worker counts
    coexist; one pool serves every session and server client with that
    size. Workers fork lazily on first use and stay warm until
    :func:`shutdown_pool`.
    """
    max_workers = max(1, max_workers)
    pool = _POOLS.get(max_workers)
    if pool is None:
        pool = _POOLS[max_workers] = WorkerPool(max_workers)
    return pool


def shared_pool(max_workers: int) -> WorkerPool:
    """Backward-compatible alias of :func:`get_pool`."""
    return get_pool(max_workers)


def shutdown_pool() -> None:
    """Tear down every pool and release every shared-memory segment this
    process still owns (idempotent; also registered ``atexit``)."""
    while _POOLS:
        _, pool = _POOLS.popitem()
        pool.close()
    for owner in list(_LIVE_OWNERS):
        try:
            owner.release()
        except Exception:
            pass


atexit.register(shutdown_pool)


# ----------------------------------------------------------------------
# The evaluator
# ----------------------------------------------------------------------
#: First-wave size per worker; later waves grow geometrically, so the
#: wave count is logarithmic when pruning stops biting.
_WAVE_BASE = 2
_WAVE_GROWTH = 4


class PooledEvaluator(Evaluator):
    """Deferred evaluation on the persistent worker pool, drained in
    bound-ordered waves with cross-worker pruning.

    ``evaluate`` only records ``(graph_id, bounds)``; ``drain`` attaches
    the database (warm/delta/cold, see :class:`DatabaseAttachment`),
    optionally parks the shard's SignatureMatrix (``matrix_source``), and
    ships candidate-id chunks. With a :class:`BoundSharing` channel
    (``sharing``, set per query by
    :func:`~repro.engine.scatter.bound_sharing` for pruning plans) the
    drain runs in **waves**: a small first wave of the most promising
    candidates, then — between waves — the parent filters everything not
    yet shipped against all exact vectors known so far (drained +
    frontier-published), while workers frontier-check each candidate
    mid-chunk. Without sharing (the exhaustive ``parallel`` backend) the
    drain is a single full-throughput wave.

    Degradation: broken attachment → tasks ship graphs inline; pool
    start failure → in-process evaluation (still sharing-filtered). Both
    keep answers identical, property-tested against serial.

    Parameters match the pre-persistent evaluator: ``max_workers``
    (default ``os.cpu_count()``), ``chunk_size`` (``None`` auto-sizes to
    ~4 chunks per worker within a wave).
    """

    interleaved = False

    def __init__(
        self, max_workers: int | None = None, chunk_size: int | None = None
    ) -> None:
        self.max_workers = max(1, max_workers or os.cpu_count() or 1)
        self.chunk_size = chunk_size
        #: Per-query :class:`BoundSharing` (pruning plans) or ``None``.
        self.sharing: BoundSharing | None = None
        #: Zero-arg callable returning the shard's FeatureStore (or None).
        self.matrix_source = None
        self._pending: list[tuple[int, tuple[float, ...] | None]] = []
        self._drained_pruned: list[int] = []
        self._pool: WorkerPool | None = None
        self._attachment_key: int | None = None
        self._export_key: int | None = None

    def begin(self, ctx) -> None:
        self._pending = []
        self._drained_pruned = []

    def evaluate(self, ctx, candidate):
        self._pending.append((candidate.graph_id, candidate.bounds))
        return None

    def drained_pruned_ids(self):
        return self._drained_pruned

    def chunk(self, pairs: list) -> list[list]:
        """Split work items into pool tasks (auto-sized unless fixed)."""
        if not pairs:
            return []
        size = self.chunk_size
        if size is None:
            size = max(1, -(-len(pairs) // (self.max_workers * 4)))
        return [pairs[i : i + size] for i in range(0, len(pairs), size)]

    # -- lifecycle --------------------------------------------------------
    def release(self) -> None:
        """Release this evaluator's parked state (attachment + matrix
        export); the pool itself stays warm for other sessions."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        if self._attachment_key is not None:
            pool.release_attachment(self._attachment_key)
            self._attachment_key = None
        if self._export_key is not None:
            pool.release_export(self._export_key)
            self._export_key = None

    def discard_payload(self) -> None:
        """Backward-compatible alias of :meth:`release`."""
        self.release()

    # -- drain ------------------------------------------------------------
    def drain(self, ctx):
        pending, self._pending = self._pending, []
        self._drained_pruned = []
        if not pending:
            return []
        sharing = self.sharing
        stats = {
            "workers": self.max_workers,
            "attach": {},
            "chunks": 0,
            "waves": 0,
            "frontier_pruned": 0,
            "published": 0,
            "respawns": 0,
        }
        pool = None
        try:
            pool = get_pool(self.max_workers)
            pool.ensure_started()
        except Exception:
            pool = None
        if pool is None:
            results = self._drain_inline(ctx, pending, sharing, stats)
        else:
            results = self._drain_pooled(ctx, pool, pending, sharing, stats)
        ctx.stats.pool = stats
        results.sort()
        return results

    def _drain_inline(self, ctx, pending, sharing, stats):
        """No usable pool: solve in-process, still sharing-filtered."""
        stats["workers"] = 0
        stats["attach"] = {"serial": 1}
        cutoff = None
        if sharing is not None:
            cutoff = FrontierCutoff(sharing.judge, sharing.vectors)
        results = []
        for graph_id, bounds in pending:
            if ctx.deadline is not None:
                ctx.deadline.check()
            if sharing is not None:
                sharing.poll()
                if bounds is not None and sharing.judge.prunes(
                    bounds, sharing.vectors.values()
                ):
                    self._drained_pruned.append(graph_id)
                    stats["frontier_pruned"] += 1
                    continue
            values = pair_values(
                ctx.database.get(graph_id), ctx.spec.graph, ctx.measures, cutoff
            )
            if not isinstance(values, tuple):
                results.append((graph_id, SOLVER_CUTOFF))
                continue
            results.append((graph_id, values))
            if sharing is not None:
                sharing.observe(graph_id, values)
        return results

    def _drain_pooled(self, ctx, pool, pending, sharing, stats):
        respawns_before = pool.respawns
        self._pool = pool
        attachment, attach_kind = pool.attach(ctx.database)
        if attachment is not None:
            self._attachment_key = id(ctx.database)
            db_spec = attachment.spec()
        else:
            db_spec = None
        stats["attach"] = {attach_kind: 1}

        matrix_ship = self._matrix_ship(ctx, pool, pending, sharing)
        frontier_config = sharing.worker_config() if sharing is not None else None
        expires_at = ctx.deadline.expires_at if ctx.deadline is not None else None

        def build_task(chunk_items):
            ids = [graph_id for graph_id, _ in chunk_items]
            task = {
                "id": uuid.uuid4().hex,
                "op": "eval",
                "query": ctx.spec.graph,
                "measures": ctx.measure_specs,
                "ids": ids,
                "db": db_spec,
                "deadline": expires_at,
            }
            if db_spec is None:
                task["pairs"] = [
                    (graph_id, ctx.database.get(graph_id)) for graph_id in ids
                ]
                task["ids"] = ids
            if frontier_config is not None:
                task["frontier"] = frontier_config
                if matrix_ship is not None:
                    meta, row_of, qsig = matrix_ship
                    task["matrix"] = meta
                    task["rows"] = [row_of[graph_id] for graph_id in ids]
                    task["qsig"] = qsig
                else:
                    task["bounds"] = {
                        graph_id: bounds
                        for graph_id, bounds in chunk_items
                        if bounds is not None
                    }
            return task

        results = []
        remaining = list(pending)
        wave_size = (
            len(remaining)
            if sharing is None
            else max(1, self.max_workers * _WAVE_BASE)
        )
        while remaining:
            # Between draining one wave's results and submitting the
            # next: pool.run checks only while waiting on futures, so an
            # expired deadline used to slip one full extra wave through.
            if ctx.deadline is not None:
                ctx.deadline.check()
            if sharing is not None:
                sharing.poll()
                remaining, pruned = sharing.split(remaining)
                if pruned:
                    self._drained_pruned.extend(pruned)
                    stats["frontier_pruned"] += len(pruned)
                if not remaining:
                    break
            wave, remaining = remaining[:wave_size], remaining[wave_size:]
            tasks = [build_task(chunk) for chunk in self.chunk(wave)]
            stats["chunks"] += len(tasks)
            stats["waves"] += 1
            for out in pool.run(tasks, deadline=ctx.deadline):
                results.extend(out["results"])
                results.extend((graph_id, SOLVER_CUTOFF) for graph_id in out["cut"])
                if out["skipped"]:
                    self._drained_pruned.extend(out["skipped"])
                task_stats = out["stats"]
                stats["frontier_pruned"] += task_stats["frontier_pruned"]
                stats["published"] += task_stats["published"]
                worker_attach = task_stats.get("attach")
                if worker_attach and worker_attach != "warm":
                    key = f"worker-{worker_attach}"
                    stats["attach"][key] = stats["attach"].get(key, 0) + 1
                if sharing is not None:
                    for graph_id, values in out["results"]:
                        sharing.observe(graph_id, values)
            wave_size *= _WAVE_GROWTH
        stats["respawns"] = pool.respawns - respawns_before
        return results

    def _matrix_ship(self, ctx, pool, pending, sharing):
        """``(meta, row_of, qsig)`` when candidate bounds can be
        recomputed worker-side from the shared matrix; ``None`` → bounds
        ship inline (only needed at all when a frontier exists)."""
        if sharing is None or sharing.frontier is None:
            return None
        if self.matrix_source is None:
            return None
        try:
            store = self.matrix_source()
        except Exception:
            return None
        exported = pool.export_matrix(store)
        if exported is None:
            return None
        meta, matrix = exported
        row_of = matrix.row_of
        if any(graph_id not in row_of for graph_id, _ in pending):
            return None
        self._export_key = id(store)
        packed = matrix.pack_query(ctx.spec.graph, ctx.query_features)
        qsig = (
            packed.order,
            packed.size,
            packed.vertex_vector.tolist(),
            packed.edge_vector.tolist(),
            packed.type_vector.tolist(),
        )
        return meta, dict(row_of), qsig


#: The evaluator's persistent-pool identity, under its historical name.
PersistentPoolEvaluator = PooledEvaluator
