"""Durable write-ahead log with crash recovery and point-in-time restore.

The served store's durability layer: every committed mutation is
appended — *before* it is applied — to an append-only JSON-lines log, so
a process killed at any instant can be rebuilt to its exact pre-crash
state by replaying the log over the last snapshot. The log speaks the
existing :mod:`repro.api.ops` mutation codec: one record per committed
op, extended with the replay bookkeeping the codec ignores::

    {"lsn":7,"op":{"op":"add","handle":"g3","graph":{...},"graph_id":5},
     "version":12,"crc":2868545276}

* ``lsn`` — log sequence number, globally monotone across segments;
* ``version`` — the database's mutation counter when the op committed;
* ``crc`` — CRC32 of the record's canonical JSON (sans ``crc``), the
  torn-write detector;
* ``op`` — a :func:`repro.api.ops.mutation_from_dict`-compatible payload
  plus the committed ``graph_id`` (and ``new_graph_id`` for relabels),
  so replay reproduces the exact id assignment and shard placement.

Layout of a log directory (one :class:`DurableLog`)::

    data_dir/
      MANIFEST.json      # format version + segment count
      snapshot.json      # atomic snapshot: database + handles + base_lsn
      wal-000.jsonl      # records with lsn > base_lsn, one per shard
      wal-001.jsonl

The log is *partitioned per shard*: a :class:`~repro.shard.store.
ShardedGraphDatabase` with N shards routes each record to the segment of
the shard the op touches, spreading append pressure across files.
Recovery merges all segments by LSN, so segment routing is an I/O
concern, never a correctness one.

Sync policies (:class:`SyncPolicy`) trade latency for the durability
each append guarantees when it returns:

* ``always`` — flush + fsync per record: an acknowledged mutation
  survives process kill *and* OS crash;
* ``interval`` / ``interval:<seconds>`` — flush to the OS per record,
  fsync at most every interval: survives process kill, may lose the
  last interval on OS crash;
* ``none`` — user-space buffered: fastest, may lose (or tear) the
  buffered tail even on process kill.

Opening a log repairs it: a partial or checksum-failed *final* record
per segment is truncated (the torn tail a crash legitimately leaves),
records at or below the snapshot's ``base_lsn`` are dropped (an
interrupted compaction leaves them), and records past the first gap in
the merged LSN sequence are dropped (a lost buffered tail in one
segment orphans later records in others). A bad record with valid
records *after* it in the same segment is mid-log corruption and raises
:class:`~repro.errors.WalCorruptionError` — lost history is never
papered over.

Replay is idempotent by construction — recovering twice rebuilds the
same state because recovery never writes to the log — and
:meth:`DurableLog.recover` takes ``upto_lsn`` for point-in-time restore
to any committed prefix.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

from repro.errors import QueryError, SerializationError, WalCorruptionError
from repro.db.database import GraphDatabase
from repro.db.persistence import (
    atomic_write_text,
    database_from_dict,
    database_to_dict,
)
from repro.graph.serialization import graph_from_dict

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.shard.store import ShardedGraphDatabase

MANIFEST_NAME = "MANIFEST.json"
SNAPSHOT_NAME = "snapshot.json"
FORMAT_VERSION = 1


# ----------------------------------------------------------------------
# Sync policies
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SyncPolicy:
    """When appended records are pushed toward stable storage."""

    mode: str  # "always" | "interval" | "none"
    interval: float = 0.1

    @classmethod
    def parse(cls, spec: "str | SyncPolicy") -> "SyncPolicy":
        """``"always"``, ``"none"``, ``"interval"`` or ``"interval:0.25"``."""
        if isinstance(spec, SyncPolicy):
            return spec
        name, _, arg = str(spec).partition(":")
        if name == "interval":
            try:
                interval = float(arg) if arg else 0.1
            except ValueError as exc:
                raise QueryError(
                    f"malformed sync interval {arg!r} in {spec!r}"
                ) from exc
            if interval <= 0:
                raise QueryError("sync interval must be positive")
            return cls("interval", interval)
        if name in ("always", "none") and not arg:
            return cls(name)
        raise QueryError(
            f"unknown sync policy {spec!r}; "
            "expected always, interval[:seconds], or none"
        )


# ----------------------------------------------------------------------
# Record codec
# ----------------------------------------------------------------------
def _canonical(payload: dict[str, Any]) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


def encode_record(lsn: int, version: int, op_payload: dict[str, Any]) -> bytes:
    """One JSON-lines WAL record, CRC32-sealed (``crc`` spliced in as the
    last key, so the body is encoded once), newline-terminated."""
    try:
        canonical = _canonical({"lsn": lsn, "version": version, "op": op_payload})
    except (TypeError, ValueError) as exc:
        raise SerializationError(
            f"mutation is not WAL-serializable: {exc}"
        ) from exc
    return b'%s,"crc":%d}\n' % (canonical[:-1], zlib.crc32(canonical))


def decode_record(line: bytes) -> dict[str, Any]:
    """Decode + checksum one record line; raises on any mismatch.

    The checksum is recomputed over the canonical re-serialization of
    the decoded body, so a single flipped byte anywhere in the line —
    including inside the graph payload — fails the record.
    """
    try:
        payload = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise WalCorruptionError(f"undecodable WAL record: {exc}") from exc
    if not isinstance(payload, dict) or "crc" not in payload:
        raise WalCorruptionError("WAL record is not a sealed object")
    crc = payload.pop("crc")
    if zlib.crc32(_canonical(payload)) & 0xFFFFFFFF != crc:
        raise WalCorruptionError(
            f"WAL record checksum mismatch at lsn {payload.get('lsn')!r}"
        )
    if (
        not isinstance(payload.get("lsn"), int)
        or not isinstance(payload.get("version"), int)
        or not isinstance(payload.get("op"), dict)
    ):
        raise WalCorruptionError("WAL record is missing lsn/version/op fields")
    return payload


# ----------------------------------------------------------------------
# Recovery result
# ----------------------------------------------------------------------
@dataclass
class RecoveredState:
    """A store rebuilt from snapshot + replayed log records."""

    database: GraphDatabase
    handle_to_id: dict[str, int]
    id_to_handle: dict[int, str]
    #: LSN of the last replayed record (== snapshot base when none).
    last_lsn: int
    #: Snapshot base LSN the replay started from.
    base_lsn: int
    #: Records replayed on top of the snapshot.
    replayed: int


@dataclass
class RepairReport:
    """What opening the log had to clean up (all zero on a clean close)."""

    torn_records: int = 0
    stale_records: int = 0
    orphaned_records: int = 0

    @property
    def clean(self) -> bool:
        return not (
            self.torn_records or self.stale_records or self.orphaned_records
        )


@dataclass
class _ScannedRecord:
    record: dict[str, Any]
    segment: int
    end_offset: int  # byte offset just past this record's newline


# ----------------------------------------------------------------------
# The log
# ----------------------------------------------------------------------
class DurableLog:
    """One durable mutation log over a data directory.

    Use :meth:`open` (which repairs torn tails), then either
    :meth:`recover` an existing store or :meth:`initialize` a fresh one,
    then attach to a database via
    :meth:`~repro.db.database.GraphDatabase.attach_wal` so every
    mutation appends before it applies.
    """

    def __init__(
        self,
        data_dir: "str | Path",
        sync: "str | SyncPolicy" = "always",
        segments: int = 1,
        compact_every: int = 0,
    ) -> None:
        self.data_dir = Path(data_dir)
        self.policy = SyncPolicy.parse(sync)
        if segments < 1:
            raise QueryError(f"a WAL needs >= 1 segments, got {segments}")
        self.segments = segments
        #: Auto-compact after this many appends (0 disables).
        self.compact_every = compact_every
        self.repair = RepairReport()
        self._files: dict[int, Any] = {}
        self._dirty: set[int] = set()
        self._last_fsync = time.monotonic()
        self._suppress = 0
        self._closed = False
        self._next_lsn = 1
        self._base_lsn = 0
        self._ops_since_compact = 0
        #: (lsn, segment index, encoded length) of the newest append,
        #: kept so :meth:`annul` can roll it back if its apply fails.
        self._last_append: tuple[int, int, int] | None = None

    # -- lifecycle -------------------------------------------------------
    @classmethod
    def open(
        cls,
        data_dir: "str | Path",
        sync: "str | SyncPolicy" = "always",
        segments: int | None = None,
        compact_every: int = 0,
    ) -> "DurableLog":
        """Open (and repair) the log at ``data_dir``, creating it if new.

        ``segments`` is fixed at creation and read back from the
        manifest afterwards; passing a conflicting count for an existing
        log is an error (segment routing is per-shard, and a log cannot
        silently change shape).
        """
        path = Path(data_dir)
        path.mkdir(parents=True, exist_ok=True)
        manifest_path = path / MANIFEST_NAME
        if manifest_path.exists():
            try:
                manifest = json.loads(manifest_path.read_text("utf-8"))
                stored = int(manifest["segments"])
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise WalCorruptionError(
                    f"malformed WAL manifest {manifest_path}: {exc}"
                ) from exc
            if segments is not None and segments != stored:
                raise QueryError(
                    f"WAL at {path} has {stored} segments; "
                    f"cannot reopen with {segments}"
                )
            log = cls(path, sync, stored, compact_every)
            log._repair_on_open()
        else:
            log = cls(path, sync, segments or 1, compact_every)
        return log

    @property
    def has_state(self) -> bool:
        """Whether the directory holds an initialized log."""
        return (self.data_dir / MANIFEST_NAME).exists()

    @property
    def last_lsn(self) -> int:
        """LSN of the last appended record (0 before any append)."""
        return self._next_lsn - 1

    @property
    def base_lsn(self) -> int:
        """LSN already folded into the snapshot."""
        return self._base_lsn

    @property
    def ops_since_compact(self) -> int:
        return self._ops_since_compact

    def segment_path(self, segment: int) -> Path:
        return self.data_dir / f"wal-{segment:03d}.jsonl"

    def close(self) -> None:
        """Flush, fsync and release every segment file."""
        if self._closed:
            return
        self.sync()
        for handle in self._files.values():
            handle.close()
        self._files.clear()
        self._closed = True

    def __enter__(self) -> "DurableLog":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- append path -----------------------------------------------------
    @property
    def suppressed(self) -> bool:
        """True while inside :meth:`suppress` (compound-op sub-steps)."""
        return self._suppress > 0

    @contextlib.contextmanager
    def suppress(self) -> Iterator[None]:
        """Silence database-level hooks while a higher layer logs the
        compound op itself (one ``relabel`` record instead of its
        remove + insert halves; replay instead of re-log)."""
        self._suppress += 1
        try:
            yield
        finally:
            self._suppress -= 1

    def append(
        self, op_payload: dict[str, Any], version: int, segment: int = 0
    ) -> int:
        """Append one committed-op record; returns its LSN.

        Must be called *before* the op is applied (write-ahead), with
        applicability already validated so the record cannot describe a
        mutation that then fails. Durability on return is whatever the
        sync policy promises.
        """
        if self._closed:
            raise QueryError("cannot append to a closed WAL")
        lsn = self._next_lsn
        line = encode_record(lsn, version, op_payload)
        index = segment % self.segments
        handle = self._segment_file(index)
        handle.write(line)
        self._next_lsn += 1
        self._ops_since_compact += 1
        self._last_append = (lsn, index, len(line))
        self._after_write(index, handle)
        return lsn

    def annul(self, lsn: int) -> None:
        """Roll the newest record back out of the log.

        The write-ahead contract appends before applying; if the apply
        then fails the record describes a mutation that never happened,
        and leaving it behind would replay a phantom write (and, with
        later appends stacked on top, corrupt recovery outright). Only
        the most recent append can be annulled — its bytes are truncated
        from the segment and its LSN is released, as if the append never
        occurred.
        """
        if self._closed:
            raise QueryError("cannot annul a record of a closed WAL")
        if self._last_append is None or self._last_append[0] != lsn:
            raise QueryError(
                f"cannot annul lsn {lsn}: only the most recent append "
                "can be rolled back"
            )
        _, index, length = self._last_append
        handle = self._files[index]
        handle.flush()
        size = os.fstat(handle.fileno()).st_size
        os.ftruncate(handle.fileno(), max(0, size - length))
        os.fsync(handle.fileno())
        self._dirty.discard(index)
        self._next_lsn = lsn
        self._ops_since_compact = max(0, self._ops_since_compact - 1)
        self._last_append = None

    def sync(self) -> None:
        """Flush + fsync every dirty segment (regardless of policy)."""
        for index in sorted(self._dirty | set(self._files)):
            handle = self._files.get(index)
            if handle is not None:
                handle.flush()
                os.fsync(handle.fileno())
        self._dirty.clear()
        self._last_fsync = time.monotonic()

    def should_compact(self) -> bool:
        return 0 < self.compact_every <= self._ops_since_compact

    def _segment_file(self, index: int):
        handle = self._files.get(index)
        if handle is None:
            handle = open(self.segment_path(index), "ab")
            self._files[index] = handle
        return handle

    def _after_write(self, index: int, handle: Any) -> None:
        if self.policy.mode == "always":
            handle.flush()
            os.fsync(handle.fileno())
        elif self.policy.mode == "interval":
            handle.flush()
            self._dirty.add(index)
            if time.monotonic() - self._last_fsync >= self.policy.interval:
                self.sync()
        # "none": leave bytes in the user-space buffer.

    # -- snapshots -------------------------------------------------------
    def initialize(
        self, database: GraphDatabase, handle_to_id: dict[str, int]
    ) -> None:
        """First-time setup: write the manifest and the initial snapshot.

        The snapshot makes a crash *before the first mutation* already
        recoverable — a fresh served corpus is durable from the moment
        the log attaches, not from its first compaction.
        """
        if self.has_state:
            raise QueryError(
                f"WAL at {self.data_dir} is already initialized; "
                "recover() it instead"
            )
        atomic_write_text(
            self.data_dir / MANIFEST_NAME,
            json.dumps(
                {"format": FORMAT_VERSION, "segments": self.segments},
                indent=1,
            ),
        )
        self.compact_from(database, handle_to_id)

    def compact_from(
        self, database: GraphDatabase, handle_to_id: dict[str, int]
    ) -> None:
        """Fold the log into a fresh snapshot + empty segments.

        The snapshot lands atomically (temp file + ``os.replace``)
        *before* segments reset, and replay skips records at or below
        ``base_lsn`` — so a crash anywhere inside compaction leaves a
        directory that still recovers to the exact same state.
        """
        payload = _snapshot_payload(database, handle_to_id, self.last_lsn)
        try:
            # Compact, so the C encoder writes it.
            text = json.dumps(payload, separators=(",", ":"))
        except (TypeError, ValueError) as exc:
            raise SerializationError(
                f"database is not snapshot-serializable: {exc}"
            ) from exc
        atomic_write_text(self.data_dir / SNAPSHOT_NAME, text)
        self._base_lsn = self.last_lsn
        self._reset_segments()
        self._ops_since_compact = 0

    def _reset_segments(self) -> None:
        for index, handle in list(self._files.items()):
            handle.close()
            del self._files[index]
        self._dirty.clear()
        self._last_append = None
        for index in range(self.segments):
            path = self.segment_path(index)
            if path.exists():
                atomic_write_text(path, "")

    # -- reading + repair ------------------------------------------------
    def _scan_segment(
        self, index: int
    ) -> tuple[list[_ScannedRecord], int, int]:
        """Decode one segment; returns (records, valid_bytes, torn_count).

        Only the *final* record may be damaged (partial line, bad
        checksum, trailing garbage) — that is the torn tail a crash
        leaves and it is truncated. Damage followed by further valid
        records is mid-log corruption and raises.
        """
        path = self.segment_path(index)
        if not path.exists():
            return [], 0, 0
        data = path.read_bytes()
        records: list[_ScannedRecord] = []
        offset = 0
        last_lsn = None
        while offset < len(data):
            newline = data.find(b"\n", offset)
            if newline == -1:
                return records, offset, 1  # partial final line
            line = data[offset:newline]
            try:
                record = decode_record(line)
            except WalCorruptionError as exc:
                if _any_valid_record(data[newline + 1:]):
                    raise WalCorruptionError(
                        f"mid-log corruption in {path.name} at byte "
                        f"{offset}: {exc}"
                    ) from exc
                return records, offset, 1
            if last_lsn is not None and record["lsn"] <= last_lsn:
                raise WalCorruptionError(
                    f"non-monotone LSN {record['lsn']} after {last_lsn} "
                    f"in {path.name}"
                )
            last_lsn = record["lsn"]
            records.append(_ScannedRecord(record, index, newline + 1))
            offset = newline + 1
        return records, offset, 0

    def _repair_on_open(self) -> None:
        """Scan all segments, truncate torn tails, drop stale and
        orphaned records, and position ``next_lsn``."""
        self._base_lsn = self._snapshot_base_lsn()
        per_segment: list[list[_ScannedRecord]] = []
        for index in range(self.segments):
            records, valid_bytes, torn = self._scan_segment(index)
            path = self.segment_path(index)
            if torn:
                self.repair.torn_records += torn
                _truncate_file(path, valid_bytes)
            stale = [r for r in records if r.record["lsn"] <= self._base_lsn]
            if stale:
                # Interrupted compaction: rewrite keeping only the live
                # suffix (records are LSN-ordered within a segment). The
                # kept records' end offsets move in the rewritten file,
                # so recompute them — the orphan cut below truncates by
                # offset and must see post-rewrite positions.
                self.repair.stale_records += len(stale)
                live = [r for r in records if r.record["lsn"] > self._base_lsn]
                chunks: list[bytes] = []
                offset = 0
                records = []
                for r in live:
                    line = encode_record(
                        r.record["lsn"], r.record["version"], r.record["op"]
                    )
                    chunks.append(line)
                    offset += len(line)
                    records.append(_ScannedRecord(r.record, index, offset))
                atomic_write_text(path, b"".join(chunks).decode("utf-8"))
            per_segment.append(records)

        merged = sorted(
            (r for records in per_segment for r in records),
            key=lambda r: r.record["lsn"],
        )
        expected = self._base_lsn + 1
        prefix_len = 0
        for scanned in merged:
            if scanned.record["lsn"] != expected:
                break
            expected += 1
            prefix_len += 1
        orphans = merged[prefix_len:]
        if orphans:
            # A lost buffered tail in one segment orphans later records
            # in the others; truncate each segment at its first orphan.
            self.repair.orphaned_records += len(orphans)
            cut: dict[int, int] = {}
            for scanned in orphans:
                start = scanned.end_offset - len(
                    encode_record(
                        scanned.record["lsn"],
                        scanned.record["version"],
                        scanned.record["op"],
                    )
                )
                cut[scanned.segment] = min(
                    cut.get(scanned.segment, start), start
                )
            for index, valid_bytes in cut.items():
                _truncate_file(self.segment_path(index), valid_bytes)
        self._next_lsn = self._base_lsn + prefix_len + 1

    def _snapshot_base_lsn(self) -> int:
        path = self.data_dir / SNAPSHOT_NAME
        if not path.exists():
            return 0
        try:
            return int(json.loads(path.read_text("utf-8"))["base_lsn"])
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise WalCorruptionError(
                f"malformed WAL snapshot {path}: {exc}"
            ) from exc

    def records(self) -> list[dict[str, Any]]:
        """All live records, merged across segments in LSN order."""
        merged: list[_ScannedRecord] = []
        for index in range(self.segments):
            records, _, torn = self._scan_segment(index)
            if torn:
                raise WalCorruptionError(
                    f"segment {index} has a torn tail; reopen the log to "
                    "repair it before reading"
                )
            merged.extend(records)
        merged.sort(key=lambda r: r.record["lsn"])
        return [r.record for r in merged if r.record["lsn"] > self._base_lsn]

    # -- recovery --------------------------------------------------------
    def recover(self, upto_lsn: int | None = None) -> RecoveredState:
        """Rebuild the store: snapshot + replay of (a prefix of) the log.

        ``upto_lsn`` is the point-in-time knob: replay stops after that
        LSN (it must be at or past the snapshot base — earlier history
        is compacted away — and at most the last live record).
        Recovery only reads, so it is idempotent: recovering twice
        yields equal states, and the live log keeps accepting appends
        afterwards.
        """
        snapshot_path = self.data_dir / SNAPSHOT_NAME
        if not snapshot_path.exists():
            raise QueryError(
                f"WAL at {self.data_dir} has no snapshot; initialize() a "
                "fresh log before recovering"
            )
        try:
            snapshot = json.loads(snapshot_path.read_text("utf-8"))
        except json.JSONDecodeError as exc:
            raise WalCorruptionError(
                f"malformed WAL snapshot {snapshot_path}: {exc}"
            ) from exc
        base_lsn = int(snapshot.get("base_lsn", 0))
        if upto_lsn is not None:
            if upto_lsn < base_lsn:
                raise QueryError(
                    f"cannot restore to lsn {upto_lsn}: history up to "
                    f"lsn {base_lsn} is compacted into the snapshot"
                )
            if upto_lsn > self.last_lsn:
                raise QueryError(
                    f"cannot restore to lsn {upto_lsn}: the log ends at "
                    f"lsn {self.last_lsn}"
                )
        database, handle_to_id, id_to_handle = _restore_snapshot(snapshot)
        last = base_lsn
        replayed = 0
        for record in self.records():
            if upto_lsn is not None and record["lsn"] > upto_lsn:
                break
            _replay_record(database, record["op"], handle_to_id, id_to_handle)
            last = record["lsn"]
            replayed += 1
        return RecoveredState(
            database=database,
            handle_to_id=handle_to_id,
            id_to_handle=id_to_handle,
            last_lsn=last,
            base_lsn=base_lsn,
            replayed=replayed,
        )


def _any_valid_record(data: bytes) -> bool:
    for line in data.split(b"\n"):
        if not line:
            continue
        try:
            decode_record(line)
            return True
        except WalCorruptionError:
            continue
    return False


def _truncate_file(path: Path, valid_bytes: int) -> None:
    with open(path, "rb+") as handle:
        handle.truncate(valid_bytes)
        handle.flush()
        os.fsync(handle.fileno())


# ----------------------------------------------------------------------
# Snapshot payloads
# ----------------------------------------------------------------------
def _snapshot_payload(
    database: GraphDatabase, handle_to_id: dict[str, int], base_lsn: int
) -> dict[str, Any]:
    from repro.shard.store import ShardedGraphDatabase

    payload: dict[str, Any] = {
        "format": FORMAT_VERSION,
        "base_lsn": base_lsn,
        "name": database.name,
        "next_id": database.next_id,
        "handles": dict(handle_to_id),
    }
    if isinstance(database, ShardedGraphDatabase):
        payload["kind"] = "sharded"
        payload["placement"] = database.placement.name
        payload["shard_databases"] = [
            database_to_dict(shard) for shard in database.shards
        ]
    else:
        payload["kind"] = "mono"
        payload["database"] = database_to_dict(database)
    return payload


def _restore_snapshot(
    snapshot: dict[str, Any],
) -> tuple[GraphDatabase, dict[str, int], dict[int, str]]:
    try:
        kind = snapshot["kind"]
        if kind == "sharded":
            database: GraphDatabase = _restore_sharded(snapshot)
        elif kind == "mono":
            database = database_from_dict(
                snapshot["database"], preserve_ids=True
            )
        else:
            raise WalCorruptionError(f"unknown snapshot kind {kind!r}")
        database.reserve_ids(int(snapshot.get("next_id", 0)))
        handle_to_id = {
            str(handle): int(graph_id)
            for handle, graph_id in snapshot.get("handles", {}).items()
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise WalCorruptionError(f"malformed WAL snapshot: {exc}") from exc
    # Handles pointing at graphs the snapshot no longer holds would be
    # a snapshot bug; drop them rather than resurrect dead ids.
    handle_to_id = {
        handle: graph_id
        for handle, graph_id in handle_to_id.items()
        if graph_id in database
    }
    id_to_handle = {graph_id: handle for handle, graph_id in handle_to_id.items()}
    return database, handle_to_id, id_to_handle


def _restore_sharded(snapshot: dict[str, Any]) -> "ShardedGraphDatabase":
    from repro.shard.store import ShardedGraphDatabase

    shard_payloads = snapshot["shard_databases"]
    database = ShardedGraphDatabase(
        shards=max(1, len(shard_payloads)),
        placement=snapshot.get("placement", "hash"),
        name=snapshot.get("name", "graphdb"),
    )
    # Per-shard payloads lose the global interleaving, but ids are
    # allocated monotonically and never reused, so ascending id order
    # *is* global insertion order.
    entries = []
    for index, payload in enumerate(shard_payloads):
        shard = database_from_dict(payload, preserve_ids=True)
        for entry in shard.entries():
            entries.append((entry.graph_id, index, entry))
    for _, index, entry in sorted(entries, key=lambda item: item[0]):
        database.restore_entry(index, entry)
    return database


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
def _replay_record(
    database: GraphDatabase,
    op_payload: dict[str, Any],
    handle_to_id: dict[str, int],
    id_to_handle: dict[int, str],
) -> None:
    """Re-apply one logged op exactly as it originally committed.

    Committed ids are forced from the record, so placement-, index- and
    handle-visible state all land where they originally did; handle-less
    records (raw ``insert``/``remove`` calls below the op layer) derive
    server-style name handles.
    """
    try:
        op = op_payload["op"]
        if op == "add":
            graph = graph_from_dict(op_payload["graph"])
            graph_id = database.insert(
                graph,
                metadata=op_payload.get("metadata") or None,
                graph_id=op_payload.get("graph_id"),
            )
            handle = op_payload.get("handle")
            if handle is None:
                handle = graph.name or f"#{graph_id}"
            if handle not in handle_to_id:
                handle_to_id[handle] = graph_id
                id_to_handle[graph_id] = handle
        elif op == "remove":
            graph_id = op_payload.get("graph_id")
            if graph_id is None:
                graph_id = handle_to_id[op_payload["handle"]]
            database.remove(graph_id)
            handle = id_to_handle.pop(graph_id, None)
            if handle is not None:
                handle_to_id.pop(handle, None)
        elif op == "relabel":
            from repro.api.ops import relabeled_copy

            old_id = op_payload.get("graph_id")
            if old_id is None:
                old_id = handle_to_id[op_payload["handle"]]
            relabeled = relabeled_copy(
                database.get(old_id),
                int(op_payload["vertex_index"]),
                op_payload["label"],
                op_payload["new_handle"],
            )
            database.remove(old_id)
            new_id = database.insert(
                relabeled, graph_id=op_payload.get("new_graph_id")
            )
            old_handle = id_to_handle.pop(old_id, None)
            if old_handle is not None:
                handle_to_id.pop(old_handle, None)
            handle_to_id[op_payload["new_handle"]] = new_id
            id_to_handle[new_id] = op_payload["new_handle"]
        else:
            raise WalCorruptionError(f"unknown WAL op {op!r}")
    except WalCorruptionError:
        raise
    except Exception as exc:
        raise WalCorruptionError(
            f"WAL replay of {op_payload.get('op')!r} record failed: "
            f"{type(exc).__name__}: {exc}"
        ) from exc


def recover(data_dir: "str | Path", upto_lsn: int | None = None) -> RecoveredState:
    """One-shot recovery: open (repairing) + rebuild, read-only intent.

    The convenience entry the CLI and tests use when they do not keep
    the log attached afterwards.
    """
    log = DurableLog.open(data_dir)
    try:
        return log.recover(upto_lsn=upto_lsn)
    finally:
        log.close()
