"""Unit tests of :mod:`repro.db.wal`: codec, repair, recovery, compaction."""

from __future__ import annotations

import json
import zlib

import pytest

from repro.api.ops import AddOp, RelabelOp, RemoveOp, apply_mutation
from repro.db import DurableLog, GraphDatabase, SyncPolicy
from repro.db.wal import decode_record, encode_record, recover
from repro.errors import QueryError, SerializationError, WalCorruptionError
from repro.graph.labeled_graph import LabeledGraph
from repro.shard.store import ShardedGraphDatabase


def make_graph(name: str, n: int = 3) -> LabeledGraph:
    graph = LabeledGraph(name=name)
    for i in range(n):
        graph.add_vertex(i, label="C" if i % 2 else "N")
    for i in range(n - 1):
        graph.add_edge(i, i + 1)
    return graph


def attached_log(tmp_path, sync="always", shards=1, **kwargs):
    """A fresh (db, log, handles) triple with the WAL attached."""
    if shards > 1:
        database = ShardedGraphDatabase(shards=shards, name="t")
    else:
        database = GraphDatabase(name="t")
    log = DurableLog.open(
        tmp_path / "wal", sync=sync, segments=shards, **kwargs
    )
    handle_to_id: dict[str, int] = {}
    id_to_handle: dict[int, str] = {}
    log.initialize(database, handle_to_id)
    database.attach_wal(log)
    return database, log, handle_to_id, id_to_handle


# ----------------------------------------------------------------------
# Record codec
# ----------------------------------------------------------------------
class TestRecordCodec:
    def test_round_trip(self):
        line = encode_record(3, 7, {"op": "remove", "graph_id": 1})
        record = decode_record(line.rstrip(b"\n"))
        assert record["lsn"] == 3
        assert record["version"] == 7
        assert record["op"] == {"op": "remove", "graph_id": 1}

    def test_any_flipped_byte_fails_checksum(self):
        line = encode_record(1, 1, {"op": "remove", "graph_id": 42})
        body = bytearray(line.rstrip(b"\n"))
        for index in range(len(body)):
            corrupted = bytearray(body)
            corrupted[index] ^= 0x20
            try:
                record = decode_record(bytes(corrupted))
            except WalCorruptionError:
                continue
            # A flip that still decodes must have produced JSON that
            # re-canonicalizes identically (e.g. inside ignorable
            # whitespace, which canonical dumps never emits) — with
            # separators-compact dumps there is no such byte.
            assert record == decode_record(bytes(body)), index

    def test_unserializable_payload_raises_before_write(self):
        with pytest.raises(SerializationError):
            encode_record(1, 1, {"op": "add", "graph": object()})

    def test_truncated_line_is_corrupt(self):
        line = encode_record(1, 1, {"op": "remove", "graph_id": 5})
        with pytest.raises(WalCorruptionError):
            decode_record(line[: len(line) // 2])

    def test_missing_crc_is_corrupt(self):
        raw = json.dumps({"lsn": 1, "op": {"op": "remove"}}).encode()
        with pytest.raises(WalCorruptionError):
            decode_record(raw)

    def test_missing_version_is_corrupt_not_keyerror(self):
        # Repair re-encodes records via record["version"], so a sealed
        # record without one must fail decode as corruption, not leak a
        # KeyError out of the repair pass.
        body = {"lsn": 1, "op": {"op": "remove", "graph_id": 0}}
        canonical = json.dumps(
            body, sort_keys=True, separators=(",", ":")
        ).encode()
        sealed = dict(body)
        sealed["crc"] = zlib.crc32(canonical) & 0xFFFFFFFF
        line = json.dumps(
            sealed, sort_keys=True, separators=(",", ":")
        ).encode()
        with pytest.raises(WalCorruptionError, match="version"):
            decode_record(line)

    def test_crc_is_spliced_after_the_canonical_body(self):
        body = {"lsn": 2, "version": 5, "op": {"op": "remove", "graph_id": 3}}
        canonical = _sorted_compact(body)
        line = encode_record(2, 5, {"op": "remove", "graph_id": 3})
        assert line == canonical[:-1] + b',"crc":%d}\n' % zlib.crc32(canonical)

    def test_crc_first_line_still_decodes(self):
        # Records were once sealed by re-encoding the body with ``crc``
        # among its sorted keys, so it came first.
        line = encode_record(4, 9, {"op": "remove", "graph_id": 7})
        older = _crc_first(line)
        assert older.startswith(b'{"crc":') and older != line
        assert decode_record(older.rstrip(b"\n")) == decode_record(line.rstrip(b"\n"))


def _sorted_compact(payload) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def _crc_first(line: bytes) -> bytes:
    """``line`` re-sealed the older way: sorted keys, ``crc`` first."""
    record = decode_record(line.rstrip(b"\n"))
    record["crc"] = zlib.crc32(_sorted_compact(record))
    return _sorted_compact(record) + b"\n"


class TestSyncPolicy:
    def test_parse_modes(self):
        assert SyncPolicy.parse("always").mode == "always"
        assert SyncPolicy.parse("none").mode == "none"
        policy = SyncPolicy.parse("interval:0.25")
        assert policy.mode == "interval" and policy.interval == 0.25
        assert SyncPolicy.parse("interval").interval == pytest.approx(0.1)
        assert SyncPolicy.parse(policy) is policy

    @pytest.mark.parametrize(
        "bad", ["sometimes", "interval:-1", "interval:x", "always:5"]
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(QueryError):
            SyncPolicy.parse(bad)


# ----------------------------------------------------------------------
# Append + recover round-trips
# ----------------------------------------------------------------------
class TestRecovery:
    def test_mono_round_trip(self, tmp_path):
        database, log, h2i, i2h = attached_log(tmp_path)
        apply_mutation(database, AddOp("g0", make_graph("g0")), h2i, i2h)
        apply_mutation(database, AddOp("g1", make_graph("g1", 4)), h2i, i2h)
        apply_mutation(database, RelabelOp("g0", "g2", 1, "O"), h2i, i2h)
        apply_mutation(database, RemoveOp("g1"), h2i, i2h)
        log.close()

        state = recover(tmp_path / "wal")
        assert state.last_lsn == 4
        assert state.handle_to_id == h2i
        assert sorted(state.database.ids()) == sorted(database.ids())
        for graph_id in database.ids():
            assert (
                state.database.entry(graph_id).iso_hash
                == database.entry(graph_id).iso_hash
            )

    def test_acks_carry_monotone_lsns(self, tmp_path):
        database, log, h2i, i2h = attached_log(tmp_path)
        lsns = [
            apply_mutation(
                database, AddOp(f"g{i}", make_graph(f"g{i}")), h2i, i2h
            )["lsn"]
            for i in range(5)
        ]
        assert lsns == [1, 2, 3, 4, 5]
        log.close()

    def test_relabel_logs_one_record(self, tmp_path):
        database, log, h2i, i2h = attached_log(tmp_path)
        apply_mutation(database, AddOp("g0", make_graph("g0")), h2i, i2h)
        apply_mutation(database, RelabelOp("g0", "g1", 0, "S"), h2i, i2h)
        records = log.records()
        assert [r["op"]["op"] for r in records] == ["add", "relabel"]
        relabel = records[-1]["op"]
        assert relabel["graph_id"] == 0 and relabel["new_graph_id"] == 1
        log.close()

    def test_sharded_round_trip_preserves_placement(self, tmp_path):
        database, log, h2i, i2h = attached_log(tmp_path, shards=3)
        for i in range(12):
            apply_mutation(
                database,
                AddOp(f"g{i}", make_graph(f"g{i}", 2 + i % 4)),
                h2i,
                i2h,
            )
        apply_mutation(database, RemoveOp("g4"), h2i, i2h)
        apply_mutation(database, RelabelOp("g7", "g7b", 1, "P"), h2i, i2h)
        log.close()

        state = recover(tmp_path / "wal")
        recovered = state.database
        assert isinstance(recovered, ShardedGraphDatabase)
        assert state.handle_to_id == h2i
        assert sorted(recovered.ids()) == sorted(database.ids())
        for graph_id in database.ids():
            assert recovered.shard_of(graph_id) == database.shard_of(graph_id)

    def test_sharded_records_route_to_owning_segment(self, tmp_path):
        database, log, h2i, i2h = attached_log(tmp_path, shards=2)
        for i in range(6):
            apply_mutation(
                database, AddOp(f"g{i}", make_graph(f"g{i}")), h2i, i2h
            )
        log.close()
        per_segment = [
            len(
                [
                    line
                    for line in log.segment_path(i).read_bytes().splitlines()
                    if line
                ]
            )
            for i in range(2)
        ]
        # Hash placement: even ids on shard 0, odd on shard 1.
        assert per_segment == [3, 3]

    def test_recover_twice_equals_recover_once(self, tmp_path):
        database, log, h2i, i2h = attached_log(tmp_path)
        for i in range(6):
            apply_mutation(
                database, AddOp(f"g{i}", make_graph(f"g{i}")), h2i, i2h
            )
        apply_mutation(database, RemoveOp("g2"), h2i, i2h)
        log.close()
        first = recover(tmp_path / "wal")
        second = recover(tmp_path / "wal")
        assert first.last_lsn == second.last_lsn
        assert first.handle_to_id == second.handle_to_id
        assert sorted(first.database.ids()) == sorted(second.database.ids())

    def test_point_in_time_restore(self, tmp_path):
        database, log, h2i, i2h = attached_log(tmp_path)
        apply_mutation(database, AddOp("g0", make_graph("g0")), h2i, i2h)
        apply_mutation(database, AddOp("g1", make_graph("g1")), h2i, i2h)
        apply_mutation(database, RemoveOp("g0"), h2i, i2h)
        log.close()
        state = recover(tmp_path / "wal", upto_lsn=2)
        assert state.last_lsn == 2
        assert state.handle_to_id == {"g0": 0, "g1": 1}

    def test_restore_past_head_or_before_base_rejected(self, tmp_path):
        database, log, h2i, i2h = attached_log(tmp_path)
        apply_mutation(database, AddOp("g0", make_graph("g0")), h2i, i2h)
        with pytest.raises(QueryError):
            log.recover(upto_lsn=5)
        log.compact_from(database, h2i)
        with pytest.raises(QueryError):
            log.recover(upto_lsn=0)
        log.close()

    def test_ids_not_reused_after_recovery(self, tmp_path):
        database, log, h2i, i2h = attached_log(tmp_path)
        apply_mutation(database, AddOp("g0", make_graph("g0")), h2i, i2h)
        apply_mutation(database, AddOp("g1", make_graph("g1")), h2i, i2h)
        apply_mutation(database, RemoveOp("g1"), h2i, i2h)  # frees top id
        log.compact_from(database, h2i)  # snapshot must keep next_id=2
        log.close()
        state = recover(tmp_path / "wal")
        assert state.database.next_id == 2

    def test_raw_db_mutations_without_op_layer_recover(self, tmp_path):
        database, log, _, _ = attached_log(tmp_path)
        gid = database.insert(make_graph("raw0"), metadata={"k": "v"})
        database.insert(make_graph("raw1"))
        database.remove(gid)
        log.close()
        state = recover(tmp_path / "wal")
        assert sorted(state.database.ids()) == [1]
        assert state.handle_to_id == {"raw1": 1}

    @pytest.mark.parametrize("shards", [1, 2])
    def test_each_stored_graph_is_canonicalized_once(
        self, tmp_path, monkeypatch, shards
    ):
        import repro.graph.canonical as canonical_module

        calls = []
        real = canonical_module.canonical_form

        def counting(graph):
            calls.append(graph.name)
            return real(graph)

        monkeypatch.setattr(canonical_module, "canonical_form", counting)
        database, log, h2i, i2h = attached_log(tmp_path, shards=shards)
        apply_mutation(database, AddOp("g0", make_graph("g0")), h2i, i2h)
        apply_mutation(database, RelabelOp("g0", "g1", 1, "O"), h2i, i2h)
        assert calls == []  # neither insert canonicalizes
        for _ in range(2):
            database.entry(h2i["g1"]).iso_hash
        assert calls == ["g1"]  # the first read does, once
        apply_mutation(database, AddOp("g2", make_graph("g2", 4)), h2i, i2h)
        log.compact_from(database, h2i)  # the snapshot holds g1 and g2
        apply_mutation(database, AddOp("g3", make_graph("g3", 5)), h2i, i2h)
        log.close()
        calls.clear()
        state = recover(tmp_path / "wal")
        assert state.replayed == 1
        assert calls == []  # neither restore nor replay canonicalizes
        for _ in range(2):
            for entry in state.database.entries():
                entry.iso_hash
        assert sorted(calls) == ["g1", "g2", "g3"]

    def test_crc_first_records_recover(self, tmp_path):
        database, log, h2i, i2h = attached_log(tmp_path)
        apply_mutation(database, AddOp("g0", make_graph("g0")), h2i, i2h)
        apply_mutation(database, AddOp("g1", make_graph("g1", 4)), h2i, i2h)
        apply_mutation(database, RelabelOp("g0", "g2", 1, "O"), h2i, i2h)
        apply_mutation(database, RemoveOp("g1"), h2i, i2h)
        log.close()
        segment = log.segment_path(0)
        segment.write_bytes(
            b"".join(
                _crc_first(line + b"\n")
                for line in segment.read_bytes().splitlines()
            )
        )
        reopened = DurableLog.open(tmp_path / "wal")
        assert reopened.repair.clean
        state = reopened.recover()
        reopened.close()
        assert state.last_lsn == 4
        assert state.handle_to_id == h2i
        assert sorted(state.database.ids()) == sorted(database.ids())

    def test_recover_without_snapshot_rejected(self, tmp_path):
        log = DurableLog.open(tmp_path / "wal")
        with pytest.raises(QueryError):
            log.recover()
        log.close()


# ----------------------------------------------------------------------
# Repair on open
# ----------------------------------------------------------------------
class TestRepair:
    def _populated(self, tmp_path, n=4, sync="always"):
        database, log, h2i, i2h = attached_log(tmp_path, sync=sync)
        for i in range(n):
            apply_mutation(
                database, AddOp(f"g{i}", make_graph(f"g{i}")), h2i, i2h
            )
        log.close()
        return log.segment_path(0)

    def test_partial_final_line_truncated(self, tmp_path):
        segment = self._populated(tmp_path)
        original = segment.read_bytes()
        segment.write_bytes(original + b'{"lsn": 99, "ver')
        log = DurableLog.open(tmp_path / "wal")
        assert log.repair.torn_records == 1
        assert log.recover().last_lsn == 4
        assert segment.read_bytes() == original  # physically repaired
        log.close()

    def test_checksum_failed_final_record_truncated(self, tmp_path):
        segment = self._populated(tmp_path)
        lines = segment.read_bytes().splitlines(keepends=True)
        bad = lines[-1].replace(b'"op": "add"', b'"op": "sub"', 1)
        bad = bad if bad != lines[-1] else lines[-1][:-10] + b"tampered}\n"
        segment.write_bytes(b"".join(lines[:-1]) + bad)
        log = DurableLog.open(tmp_path / "wal")
        assert log.repair.torn_records == 1
        assert log.recover().last_lsn == 3
        log.close()

    def test_mid_log_corruption_refused(self, tmp_path):
        segment = self._populated(tmp_path)
        lines = segment.read_bytes().splitlines(keepends=True)
        lines[1] = b'{"corrupt": true}\n'
        segment.write_bytes(b"".join(lines))
        with pytest.raises(WalCorruptionError, match="mid-log"):
            DurableLog.open(tmp_path / "wal")

    def test_appends_continue_after_tail_repair(self, tmp_path):
        segment = self._populated(tmp_path)
        segment.write_bytes(segment.read_bytes() + b"garbage-tail")
        log = DurableLog.open(tmp_path / "wal")
        state = log.recover()
        database = state.database
        database.attach_wal(log)
        ack = apply_mutation(
            database,
            AddOp("g9", make_graph("g9")),
            state.handle_to_id,
            state.id_to_handle,
        )
        assert ack["lsn"] == 5  # LSN sequence resumes after the repair
        log.close()
        assert recover(tmp_path / "wal").last_lsn == 5

    def test_cross_segment_gap_truncates_orphans(self, tmp_path):
        database, log, h2i, i2h = attached_log(tmp_path, shards=2)
        for i in range(6):
            apply_mutation(
                database, AddOp(f"g{i}", make_graph(f"g{i}")), h2i, i2h
            )
        log.close()
        # Hash placement alternates shards, so dropping segment 0's tail
        # record (lsn 5) orphans segment 1's lsn 6.
        seg0 = log.segment_path(0)
        lines = seg0.read_bytes().splitlines(keepends=True)
        seg0.write_bytes(b"".join(lines[:-1]))
        reopened = DurableLog.open(tmp_path / "wal")
        assert reopened.repair.orphaned_records == 1
        state = reopened.recover()
        assert state.last_lsn == 4
        assert sorted(state.handle_to_id) == ["g0", "g1", "g2", "g3"]
        reopened.close()

    def test_stale_records_from_interrupted_compaction_dropped(
        self, tmp_path
    ):
        database, log, h2i, i2h = attached_log(tmp_path)
        for i in range(3):
            apply_mutation(
                database, AddOp(f"g{i}", make_graph(f"g{i}")), h2i, i2h
            )
        # Simulate a crash after the snapshot replaced but before the
        # segment reset: write the snapshot, leave the records in place.
        payload = json.loads(
            (tmp_path / "wal" / "snapshot.json").read_text("utf-8")
        )
        from repro.db.wal import _snapshot_payload
        from repro.db.persistence import atomic_write_text

        atomic_write_text(
            tmp_path / "wal" / "snapshot.json",
            json.dumps(_snapshot_payload(database, h2i, log.last_lsn)),
        )
        log.close()
        assert payload["base_lsn"] == 0  # the pre-crash snapshot was empty
        reopened = DurableLog.open(tmp_path / "wal")
        assert reopened.repair.stale_records == 3
        state = reopened.recover()
        assert state.replayed == 0  # everything now lives in the snapshot
        assert sorted(state.handle_to_id) == ["g0", "g1", "g2"]
        reopened.close()


    def test_stale_rewrite_then_orphan_cut_uses_rewritten_offsets(
        self, tmp_path
    ):
        # One repair pass can both drop stale records (rewriting the
        # segment) and cut orphans; the cut must use post-rewrite byte
        # offsets or it leaves garbage behind.
        database, log, h2i, i2h = attached_log(tmp_path, shards=2)
        for i in range(6):
            apply_mutation(
                database, AddOp(f"g{i}", make_graph(f"g{i}")), h2i, i2h
            )
        # Pretend a compaction at lsn 2 crashed before the segment
        # reset: snapshot the state after the first two adds, leave
        # every record in place.
        oracle = ShardedGraphDatabase(shards=2, name="t")
        oh2i: dict[str, int] = {}
        oi2h: dict[int, str] = {}
        for i in range(2):
            apply_mutation(
                oracle, AddOp(f"g{i}", make_graph(f"g{i}")), oh2i, oi2h
            )
        from repro.db.persistence import atomic_write_text
        from repro.db.wal import _snapshot_payload

        atomic_write_text(
            tmp_path / "wal" / "snapshot.json",
            json.dumps(_snapshot_payload(oracle, oh2i, 2)),
        )
        log.close()
        # ...and the buffered tail of segment 0 (lsn 5) was lost, which
        # orphans lsn 6 in segment 1.
        seg0 = log.segment_path(0)
        lines = seg0.read_bytes().splitlines(keepends=True)
        seg0.write_bytes(b"".join(lines[:-1]))

        reopened = DurableLog.open(tmp_path / "wal")
        assert reopened.repair.stale_records == 2  # lsns 1 and 2
        assert reopened.repair.orphaned_records == 1  # lsn 6
        state = reopened.recover()
        assert state.last_lsn == 4
        assert sorted(state.handle_to_id) == ["g0", "g1", "g2", "g3"]
        reopened.close()
        # The segments were physically repaired: a second open is clean
        # and recovers identically.
        again = DurableLog.open(tmp_path / "wal")
        assert again.repair.clean
        assert again.recover().last_lsn == 4
        again.close()


# ----------------------------------------------------------------------
# Write-ahead rollback (annul)
# ----------------------------------------------------------------------
class TestAnnul:
    def test_empty_graph_relabel_rejected_before_append(self, tmp_path):
        database, log, h2i, i2h = attached_log(tmp_path)
        apply_mutation(
            database, AddOp("g0", LabeledGraph(name="g0")), h2i, i2h
        )
        with pytest.raises(QueryError, match="no vertices"):
            apply_mutation(database, RelabelOp("g0", "g1", 0, "O"), h2i, i2h)
        # No phantom record hit the log, the maps are intact, and the
        # log keeps serving.
        assert [r["op"]["op"] for r in log.records()] == ["add"]
        assert h2i == {"g0": 0} and i2h == {0: "g0"}
        ack = apply_mutation(database, AddOp("g2", make_graph("g2")), h2i, i2h)
        assert ack["lsn"] == 2
        log.close()
        state = recover(tmp_path / "wal")
        assert state.last_lsn == 2
        assert sorted(state.handle_to_id) == ["g0", "g2"]

    def test_apply_failure_after_append_annuls_the_record(self, tmp_path):
        database, log, h2i, i2h = attached_log(tmp_path)
        apply_mutation(database, AddOp("g0", make_graph("g0")), h2i, i2h)

        def boom(graph, *args, **kwargs):
            raise RuntimeError("injected insert failure")

        database.insert = boom
        try:
            with pytest.raises(RuntimeError):
                apply_mutation(
                    database, AddOp("g1", make_graph("g1")), h2i, i2h
                )
        finally:
            del database.insert
        # The write-ahead record was rolled back: no phantom write on
        # replay, the LSN is released, and the retry commits cleanly.
        assert [r["op"]["op"] for r in log.records()] == ["add"]
        assert h2i == {"g0": 0}
        ack = apply_mutation(database, AddOp("g1", make_graph("g1")), h2i, i2h)
        assert ack["lsn"] == 2
        log.close()
        state = recover(tmp_path / "wal")
        assert state.last_lsn == 2
        assert sorted(state.handle_to_id) == ["g0", "g1"]

    def test_annul_truncates_bytes_and_releases_lsn(self, tmp_path):
        database, log, h2i, i2h = attached_log(tmp_path)
        apply_mutation(database, AddOp("g0", make_graph("g0")), h2i, i2h)
        before = log.segment_path(0).read_bytes()
        lsn = log.append(
            {"op": "remove", "handle": "g0", "graph_id": 0},
            database.version + 1,
        )
        assert lsn == 2
        log.annul(lsn)
        assert log.last_lsn == 1
        log.sync()
        assert log.segment_path(0).read_bytes() == before
        log.close()

    def test_annul_accepts_only_the_newest_append(self, tmp_path):
        database, log, h2i, i2h = attached_log(tmp_path)
        apply_mutation(database, AddOp("g0", make_graph("g0")), h2i, i2h)
        with pytest.raises(QueryError, match="most recent"):
            log.annul(7)
        log.annul(1)
        with pytest.raises(QueryError, match="most recent"):
            log.annul(1)  # already rolled back
        log.close()


# ----------------------------------------------------------------------
# Compaction
# ----------------------------------------------------------------------
class TestCompaction:
    def test_compact_preserves_state_and_resets_segments(self, tmp_path):
        database, log, h2i, i2h = attached_log(tmp_path)
        for i in range(5):
            apply_mutation(
                database, AddOp(f"g{i}", make_graph(f"g{i}")), h2i, i2h
            )
        apply_mutation(database, RemoveOp("g1"), h2i, i2h)
        log.compact_from(database, h2i)
        assert log.records() == []
        assert log.base_lsn == 6
        state = log.recover()
        assert state.replayed == 0
        assert state.handle_to_id == h2i
        log.close()

    def test_auto_compaction_via_threshold(self, tmp_path):
        database, log, h2i, i2h = attached_log(tmp_path, compact_every=3)
        for i in range(7):
            apply_mutation(
                database, AddOp(f"g{i}", make_graph(f"g{i}")), h2i, i2h
            )
        # Compacted after ops 3 and 6; one live record (op 7) remains.
        assert log.base_lsn == 6
        assert len(log.records()) == 1
        log.close()
        state = recover(tmp_path / "wal")
        assert len(state.database) == 7
        assert state.last_lsn == 7

    def test_snapshot_is_one_compact_line(self, tmp_path):
        database, log, h2i, i2h = attached_log(tmp_path, shards=2)
        for i in range(3):
            apply_mutation(
                database, AddOp(f"g{i}", make_graph(f"g{i}")), h2i, i2h
            )
        log.compact_from(database, h2i)
        log.close()
        text = (tmp_path / "wal" / "snapshot.json").read_text("utf-8")
        assert text == json.dumps(json.loads(text), separators=(",", ":"))

    def test_indented_snapshot_recovers(self, tmp_path):
        # Snapshots were once written with ``indent=1``.
        database, log, h2i, i2h = attached_log(tmp_path, shards=2)
        for i in range(4):
            apply_mutation(
                database, AddOp(f"g{i}", make_graph(f"g{i}")), h2i, i2h
            )
        log.compact_from(database, h2i)
        apply_mutation(database, RemoveOp("g2"), h2i, i2h)
        log.close()
        snapshot = tmp_path / "wal" / "snapshot.json"
        snapshot.write_text(
            json.dumps(json.loads(snapshot.read_text("utf-8")), indent=1),
            "utf-8",
        )
        state = recover(tmp_path / "wal")
        assert state.base_lsn == 4 and state.replayed == 1
        assert state.handle_to_id == h2i
        for graph_id in database.ids():
            assert state.database.shard_of(graph_id) == database.shard_of(graph_id)
            assert (
                state.database.entry(graph_id).iso_hash
                == database.entry(graph_id).iso_hash
            )

    def test_appends_after_compaction_recover(self, tmp_path):
        database, log, h2i, i2h = attached_log(tmp_path)
        apply_mutation(database, AddOp("g0", make_graph("g0")), h2i, i2h)
        log.compact_from(database, h2i)
        apply_mutation(database, AddOp("g1", make_graph("g1")), h2i, i2h)
        log.close()
        state = recover(tmp_path / "wal")
        assert state.base_lsn == 1
        assert state.last_lsn == 2
        assert sorted(state.handle_to_id) == ["g0", "g1"]


# ----------------------------------------------------------------------
# Lifecycle misc
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_reopen_with_conflicting_segments_rejected(self, tmp_path):
        database, log, *_ = attached_log(tmp_path, shards=2)
        log.close()
        with pytest.raises(QueryError, match="segments"):
            DurableLog.open(tmp_path / "wal", segments=4)

    def test_double_initialize_rejected(self, tmp_path):
        database, log, h2i, _ = attached_log(tmp_path)
        with pytest.raises(QueryError):
            log.initialize(database, h2i)
        log.close()

    def test_append_after_close_rejected(self, tmp_path):
        database, log, h2i, i2h = attached_log(tmp_path)
        log.close()
        with pytest.raises(QueryError):
            apply_mutation(database, AddOp("g0", make_graph("g0")), h2i, i2h)

    def test_failed_append_leaves_database_untouched(self, tmp_path):
        database, log, h2i, i2h = attached_log(tmp_path)
        log.close()  # appends now fail
        with pytest.raises(QueryError):
            apply_mutation(database, AddOp("g0", make_graph("g0")), h2i, i2h)
        # Write-ahead: the rejected mutation never applied.
        assert len(database) == 0
        assert h2i == {}

    def test_detach_stops_logging(self, tmp_path):
        database, log, h2i, i2h = attached_log(tmp_path)
        apply_mutation(database, AddOp("g0", make_graph("g0")), h2i, i2h)
        assert database.detach_wal() is log
        apply_mutation(database, AddOp("g1", make_graph("g1")), h2i, i2h)
        assert log.last_lsn == 1
        log.close()

    def test_sync_none_survives_clean_close(self, tmp_path):
        database, log, h2i, i2h = attached_log(tmp_path, sync="none")
        for i in range(4):
            apply_mutation(
                database, AddOp(f"g{i}", make_graph(f"g{i}")), h2i, i2h
            )
        log.close()  # close() always flushes + fsyncs
        assert recover(tmp_path / "wal").last_lsn == 4
