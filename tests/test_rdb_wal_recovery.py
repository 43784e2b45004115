"""Property-based and unit tests for the durable storage engine.

The recovery contract is held to a three-oracle discipline:

1. **recovery oracle** — cut the WAL at *any* byte offset; reopening
   must reproduce exactly the state after the longest committed prefix
   (no lost committed transaction, no resurrected uncommitted one);
2. **replica oracle** — full recovery equals an in-memory engine fed
   the identical statement sequence (durability adds persistence, not
   semantics);
3. **idempotence oracle** — recovery is a fixed point: reopening a
   recovered store changes nothing.

Hypothesis drives random DML/transaction sequences and random cut
points; the unit tests below pin the deliberate corner cases (torn
frames, CRC corruption, snapshot corruption, group commit, automatic
checkpoints).
"""

from __future__ import annotations

import io
import os
import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DatabaseError, QueryError
from repro.rdb import Database, DurableEngine, MemoryEngine
from repro.rdb.snapshot import load_snapshot, write_snapshot
from repro.rdb.wal import (
    MAGIC,
    CommitRecord,
    OP_DELETE,
    OP_INSERT,
    OP_UPDATE,
    committed_prefix_boundaries,
    read_log,
    read_value,
    write_value,
)

_DDL = (
    "CREATE TABLE t (oid INTEGER NOT NULL AUTOINCREMENT,"
    " name VARCHAR(40) NOT NULL, qty INTEGER, PRIMARY KEY (oid))"
)


def _fingerprint(db: Database) -> dict:
    """Committed-visible state: rows and named indexes per table.
    Auto-increment counters are excluded — rollbacks inflate them
    without leaving a durable trace (see bench_e18_durability)."""
    return {
        name: (
            {row_id: dict(row) for row_id, row in store.rows.items()},
            sorted(n for n, _ in store.iter_indexes()
                   if not n.startswith("#")),
        )
        for name, store in sorted(db.tables.items())
    }


def _apply_ops(db: Database, ops) -> None:
    """Interpret one generated statement sequence, deterministically."""
    db.execute(_DDL)
    live: list[int] = []
    for i, op in enumerate(ops):
        kind = op[0]
        if kind == "insert":
            row = db.insert_row("t", {"name": f"n{i}", "qty": op[1]})
            live.append(row["oid"])
        elif kind == "update" and live:
            db.execute("UPDATE t SET qty = :q WHERE oid = :oid",
                       {"q": op[2], "oid": live[op[1] % len(live)]})
        elif kind == "delete" and live:
            db.execute("DELETE FROM t WHERE oid = :oid",
                       {"oid": live.pop(op[1] % len(live))})
        elif kind == "txn":
            commit, count = op[1], op[2]
            db.begin()
            oids = [
                db.insert_row("t", {"name": f"x{i}-{j}", "qty": j})["oid"]
                for j in range(count)
            ]
            if commit:
                db.commit()
                live.extend(oids)
            else:
                db.rollback()
        elif kind == "analyze":
            db.analyze("t")


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 99)),
        st.tuples(st.just("update"), st.integers(0, 7), st.integers(0, 99)),
        st.tuples(st.just("delete"), st.integers(0, 7)),
        st.tuples(st.just("txn"), st.booleans(), st.integers(1, 3)),
        st.tuples(st.just("analyze")),
    ),
    min_size=1, max_size=20,
)


class TestRecoveryOracle:
    @settings(max_examples=25, deadline=None)
    @given(ops=_OPS, cut_fraction=st.floats(0.0, 1.0))
    def test_truncated_log_recovers_longest_committed_prefix(
            self, ops, cut_fraction):
        base = tempfile.mkdtemp(prefix="wal-oracle-")
        try:
            data_dir = os.path.join(base, "data")
            states: list[dict] = []
            with Database.open(data_dir) as db:
                db.commit_stream.subscribe(
                    lambda event: states.append(_fingerprint(db))
                )
                _apply_ops(db, ops)
            wal_path = os.path.join(data_dir, "wal.log")
            with open(wal_path, "rb") as handle:
                wal_bytes = handle.read()
            boundaries = committed_prefix_boundaries(wal_path)
            assert len(boundaries) == len(states)

            # oracle 1: recovery at an arbitrary byte offset
            cut = round(cut_fraction * len(wal_bytes))
            scratch = os.path.join(base, "scratch")
            os.makedirs(scratch)
            with open(os.path.join(scratch, "wal.log"), "wb") as handle:
                handle.write(wal_bytes[:cut])
            committed = sum(1 for b in boundaries if b <= cut)
            expected = states[committed - 1] if committed else {}
            with Database.open(scratch) as recovered:
                assert _fingerprint(recovered) == expected
                stats = recovered.storage_stats()["recovery"]
                assert stats["wal_records_replayed"] == committed

            # oracle 3: recovery is a fixed point
            with Database.open(scratch) as again:
                assert _fingerprint(again) == expected
                assert again.storage_stats()["recovery"][
                    "wal_records_replayed"] == committed
        finally:
            shutil.rmtree(base, ignore_errors=True)

    @settings(max_examples=25, deadline=None)
    @given(ops=_OPS)
    def test_full_recovery_matches_memory_replica(self, ops):
        base = tempfile.mkdtemp(prefix="wal-replica-")
        try:
            with Database.open(os.path.join(base, "data")) as durable:
                _apply_ops(durable, ops)
                live_state = _fingerprint(durable)
            replica = Database()
            _apply_ops(replica, ops)
            with Database.open(os.path.join(base, "data")) as recovered:
                assert _fingerprint(recovered) == live_state
                assert _fingerprint(recovered) == _fingerprint(replica)
        finally:
            shutil.rmtree(base, ignore_errors=True)


_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(),
    st.dates(),
)


class TestWalCodec:
    @settings(max_examples=100, deadline=None)
    @given(value=_VALUES)
    def test_value_roundtrip(self, value):
        out = io.BytesIO()
        write_value(out, value)
        back = read_value(io.BytesIO(out.getvalue()))
        assert back == value and type(back) is type(value)

    def test_commit_record_roundtrip(self):
        record = CommitRecord(7, [
            (OP_INSERT, "t", 3, {"oid": 3, "name": "a", "qty": None}),
            (OP_UPDATE, "t", 3, {"oid": 3, "name": "b", "qty": 2}),
            (OP_DELETE, "t", 1),
        ])
        back = CommitRecord.decode(record.encode())
        assert back.lsn == 7
        assert back.ops == record.ops
        assert back.tables() == {"t"}

    @pytest.mark.parametrize("fk", [None, 4])
    def test_old_rows_roundtrip(self, fk):
        """Update and delete ops carry the row they replaced — NULL
        foreign keys included — and decode to the same tuples."""
        old = {"oid": 3, "title": "a", "genre_oid": fk}
        new = {"oid": 3, "title": "a", "genre_oid": 7}
        record = CommitRecord(8, [
            (OP_UPDATE, "book", 3, new, old),
            (OP_UPDATE, "book", 3, old, new),
            (OP_DELETE, "book", 3, old),
        ])
        back = CommitRecord.decode(record.encode())
        assert back.ops == record.ops
        assert back.ops[0][4]["genre_oid"] is fk

    def test_engine_logs_the_old_row_of_updates_and_deletes(self):
        """What the engine records is what invalidation reads: the old
        row of an update, of a delete, and of a set-null cascade."""
        db = Database()
        db.execute("CREATE TABLE g (oid INTEGER NOT NULL, PRIMARY KEY (oid))")
        db.execute("CREATE TABLE b (oid INTEGER NOT NULL, g_oid INTEGER,"
                   " PRIMARY KEY (oid), FOREIGN KEY (g_oid) REFERENCES g (oid)"
                   " ON DELETE SET NULL)")
        events = []
        db.commit_stream.subscribe(events.append)
        db.insert_row("g", {"oid": 1})
        db.insert_row("b", {"oid": 5, "g_oid": 1})
        db.execute("UPDATE b SET g_oid = NULL WHERE oid = 5")
        db.execute("UPDATE b SET g_oid = 1 WHERE oid = 5")
        db.execute("DELETE FROM g WHERE oid = 1")
        update, _, cascade = (event.ops for event in events[2:])
        assert update == ((OP_UPDATE, "b", 1, {"oid": 5, "g_oid": None},
                           {"oid": 5, "g_oid": 1}),)
        assert cascade == (
            (OP_UPDATE, "b", 1, {"oid": 5, "g_oid": None},
             {"oid": 5, "g_oid": 1}),
            (OP_DELETE, "g", 1, {"oid": 1}),
        )


class TestCorruption:
    def _populated(self, base: str) -> tuple[str, list[dict]]:
        data_dir = os.path.join(base, "data")
        states: list[dict] = []
        with Database.open(data_dir) as db:
            db.commit_stream.subscribe(
                lambda event: states.append(_fingerprint(db))
            )
            db.execute(_DDL)
            for i in range(6):
                db.insert_row("t", {"name": f"n{i}", "qty": i})
        return data_dir, states

    def test_foreign_header_refuses_to_open_and_keeps_its_bytes(self):
        """A log in another format — here the previous version's magic,
        whose update and delete records carry no old row — holds
        committed records this engine cannot read: opening it raises,
        naming both versions, and truncates nothing."""
        base = tempfile.mkdtemp(prefix="wal-foreign-")
        try:
            data_dir, _states = self._populated(base)
            wal_path = os.path.join(data_dir, "wal.log")
            with open(wal_path, "r+b") as handle:
                handle.write(b"RWAL0001")
            with open(wal_path, "rb") as handle:
                before = handle.read()
            with pytest.raises(DatabaseError) as raised:
                Database.open(data_dir)
            assert "RWAL0001" in str(raised.value)
            assert MAGIC.decode() in str(raised.value)
            with open(wal_path, "rb") as handle:
                assert handle.read() == before
            with open(wal_path, "wb") as handle:
                handle.write(b"not a wal at all")
            with pytest.raises(DatabaseError):
                Database.open(data_dir)
            assert os.path.getsize(wal_path) == len(b"not a wal at all")
        finally:
            shutil.rmtree(base, ignore_errors=True)

    def test_torn_header_is_a_torn_creation(self):
        """Fewer bytes than the header, all a prefix of it: the crash hit
        the log's creation, so there is nothing to keep."""
        base = tempfile.mkdtemp(prefix="wal-torn-header-")
        try:
            data_dir = os.path.join(base, "data")
            os.makedirs(data_dir)
            with open(os.path.join(data_dir, "wal.log"), "wb") as handle:
                handle.write(MAGIC[:3])
            with Database.open(data_dir) as db:
                assert db.tables == {}
                db.execute(_DDL)
                db.insert_row("t", {"name": "fresh", "qty": 1})
            with Database.open(data_dir) as again:
                assert len(again.tables["t"].rows) == 1
        finally:
            shutil.rmtree(base, ignore_errors=True)

    def test_undecodable_committed_record_refuses_to_open(self):
        """A frame whose CRC holds but whose record does not decode is
        not a crash's tail: opening raises and keeps every byte."""
        import zlib

        base = tempfile.mkdtemp(prefix="wal-undecodable-")
        try:
            data_dir, _states = self._populated(base)
            wal_path = os.path.join(data_dir, "wal.log")
            payload = CommitRecord(99, []).encode()[:8] + b"\xff\xff\xff\xff"
            with open(wal_path, "ab") as handle:
                handle.write(len(payload).to_bytes(4, "big")
                             + zlib.crc32(payload).to_bytes(4, "big")
                             + payload)
            with open(wal_path, "rb") as handle:
                before = handle.read()
            with pytest.raises(DatabaseError):
                Database.open(data_dir)
            with open(wal_path, "rb") as handle:
                assert handle.read() == before
        finally:
            shutil.rmtree(base, ignore_errors=True)

    def test_flipped_byte_cuts_log_at_corruption(self):
        base = tempfile.mkdtemp(prefix="wal-flip-")
        try:
            data_dir, states = self._populated(base)
            wal_path = os.path.join(data_dir, "wal.log")
            boundaries = committed_prefix_boundaries(wal_path)
            # corrupt the 4th record's payload: records 1-3 must survive
            with open(wal_path, "r+b") as handle:
                handle.seek(boundaries[3] - 1)
                original = handle.read(1)
                handle.seek(boundaries[3] - 1)
                handle.write(bytes([original[0] ^ 0xFF]))
            with Database.open(data_dir) as recovered:
                assert _fingerprint(recovered) == states[2]
                stats = recovered.storage_stats()["recovery"]
                assert stats["wal_records_replayed"] == 3
                # the torn tail is gone: the log accepts new commits
                recovered.insert_row("t", {"name": "after", "qty": 9})
            assert len(committed_prefix_boundaries(wal_path)) == 4
        finally:
            shutil.rmtree(base, ignore_errors=True)

    def test_corrupt_snapshot_is_detected(self):
        base = tempfile.mkdtemp(prefix="snap-corrupt-")
        try:
            data_dir, _states = self._populated(base)
            with Database.open(data_dir) as db:
                db.checkpoint()
            snapshot_path = os.path.join(data_dir, "snapshot.db")
            with open(snapshot_path, "r+b") as handle:
                handle.seek(30)
                byte = handle.read(1)
                handle.seek(30)
                handle.write(bytes([byte[0] ^ 0xFF]))
            with pytest.raises(DatabaseError):
                Database.open(data_dir)
        finally:
            shutil.rmtree(base, ignore_errors=True)


class TestSnapshotAndCheckpoint:
    def test_snapshot_roundtrip_preserves_counters_and_indexes(self):
        base = tempfile.mkdtemp(prefix="snap-rt-")
        try:
            db = Database()
            db.execute(_DDL)
            db.execute("CREATE INDEX ix_t_qty ON t (qty)")
            for i in range(5):
                db.insert_row("t", {"name": f"n{i}", "qty": i % 2})
            db.execute("DELETE FROM t WHERE oid = 5")
            db.analyze("t")
            path = os.path.join(base, "snap.db")
            size = write_snapshot(path, 42, db.tables)
            assert size == os.path.getsize(path)
            lsn, tables = load_snapshot(path)
            assert lsn == 42
            store = tables["t"]
            assert {r["oid"] for r in store.rows.values()} == {1, 2, 3, 4}
            # counters continue where the source left off: no oid reuse
            assert store.auto_counter == db.tables["t"].auto_counter
            assert store.next_row_id == db.tables["t"].next_row_id
            assert any(n == "ix_t_qty" for n, _ in store.iter_indexes())
            assert store.statistics is not None
        finally:
            shutil.rmtree(base, ignore_errors=True)

    def test_automatic_checkpoint_truncates_log(self):
        base = tempfile.mkdtemp(prefix="auto-ckpt-")
        try:
            data_dir = os.path.join(base, "data")
            with Database.open(data_dir, checkpoint_bytes=2_000) as db:
                db.execute(_DDL)
                for i in range(60):
                    db.insert_row("t", {"name": f"row-{i:03d}", "qty": i})
                stats = db.storage_stats()
                assert stats["snapshots_written"] >= 1
                state = _fingerprint(db)
            wal_size = os.path.getsize(os.path.join(data_dir, "wal.log"))
            assert wal_size < 2_000 + 1_000  # truncated at the threshold
            with Database.open(data_dir) as recovered:
                assert _fingerprint(recovered) == state
                assert recovered.storage_stats()["recovery"][
                    "snapshot_loaded"] is True
        finally:
            shutil.rmtree(base, ignore_errors=True)


class TestGroupCommit:
    def test_window_defers_fsyncs_and_close_flushes(self):
        base = tempfile.mkdtemp(prefix="group-")
        try:
            data_dir = os.path.join(base, "data")
            with Database.open(data_dir, group_commit_window=60.0) as db:
                db.execute(_DDL)
                for i in range(20):
                    db.insert_row("t", {"name": f"n{i}", "qty": i})
                stats = db.storage_stats()
                assert stats["wal_records"] == 21
                # the wide window batched (nearly) all barriers away
                assert stats["wal_fsyncs"] <= 2
                state = _fingerprint(db)
            # close() flushed the deferred tail: nothing was lost
            with Database.open(data_dir) as recovered:
                assert _fingerprint(recovered) == state
        finally:
            shutil.rmtree(base, ignore_errors=True)


class TestEngineContract:
    def test_mutation_outside_scope_is_rejected(self):
        engine = MemoryEngine()
        with pytest.raises(QueryError):
            engine.note_insert("t", 1, {"oid": 1})

    def test_durable_statements_are_atomic(self):
        base = tempfile.mkdtemp(prefix="atomic-")
        try:
            with Database.open(os.path.join(base, "data")) as db:
                db.execute(_DDL)
                db.execute(
                    "CREATE TABLE u (oid INTEGER NOT NULL,"
                    " PRIMARY KEY (oid))"
                )
                db.insert_row("u", {"oid": 1})
                db.insert_row("t", {"name": "keep", "qty": 1})
                # second row violates u's pk after the first applied:
                # the durable engine must roll the statement back
                with pytest.raises(DatabaseError):
                    db.execute("INSERT INTO u (oid) VALUES (:v)", {"v": 1})
                assert len(db.tables["u"].rows) == 1
                # and the log agrees with memory
                state = _fingerprint(db)
            with Database.open(os.path.join(base, "data")) as recovered:
                assert _fingerprint(recovered) == state
        finally:
            shutil.rmtree(base, ignore_errors=True)

    def test_rollback_keeps_ddl_in_log(self):
        base = tempfile.mkdtemp(prefix="ddl-rb-")
        try:
            with Database.open(os.path.join(base, "data")) as db:
                db.execute(_DDL)
                db.begin()
                db.insert_row("t", {"name": "gone", "qty": 0})
                db.execute(
                    "CREATE TABLE mid (oid INTEGER NOT NULL,"
                    " PRIMARY KEY (oid))"
                )
                db.rollback()
                # DML undone, DDL kept (DDL is not transactional)
                assert len(db.tables["t"].rows) == 0
                assert "mid" in db.tables
                state = _fingerprint(db)
            with Database.open(os.path.join(base, "data")) as recovered:
                assert _fingerprint(recovered) == state
        finally:
            shutil.rmtree(base, ignore_errors=True)

    def test_commit_events_publish_after_commit(self):
        db = Database()
        events = []
        db.commit_stream.subscribe(events.append)
        db.execute(_DDL)
        db.insert_row("t", {"name": "a", "qty": 1})
        db.begin()
        db.insert_row("t", {"name": "b", "qty": 2})
        db.insert_row("t", {"name": "c", "qty": 3})
        db.commit()
        assert [e.lsn for e in events] == [1, 2, 3]
        assert all(e.tables == frozenset({"t"}) for e in events)
        assert not events[0].durable
        assert len(events[2].ops) == 2  # one event per transaction
        db.commit_stream.unsubscribe(events.append)
        db.insert_row("t", {"name": "d", "qty": 4})
        assert len(events) == 3

    def test_read_log_tolerates_missing_file(self):
        assert list(read_log("/nonexistent/wal.log")) == []
        assert committed_prefix_boundaries("/nonexistent/wal.log") == []

    def test_wal_header_written_once(self):
        base = tempfile.mkdtemp(prefix="hdr-")
        try:
            with Database.open(os.path.join(base, "data")) as db:
                db.execute(_DDL)
            wal_path = os.path.join(base, "data", "wal.log")
            with open(wal_path, "rb") as handle:
                assert handle.read(len(MAGIC)) == MAGIC
            engine = DurableEngine(os.path.join(base, "data"))
            assert engine.recovery_stats["wal_records_replayed"] == 1
            engine.close()
        finally:
            shutil.rmtree(base, ignore_errors=True)
