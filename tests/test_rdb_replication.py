"""WAL-shipping replication: protocol, tail reader, and end-to-end.

The replica's contract is the byte-identity oracle: replaying any WAL
prefix must leave a replica byte-identical (via ``snapshot_bytes``) to
a fresh crash recovery of that same prefix.  The protocol tests below
pin the edge cases that keep that true under a *live* stream — torn
frames on the tailed file, partial messages on the socket, duplicate
delivery after reconnect, and gap detection when a checkpoint outran a
disconnected replica.
"""

from __future__ import annotations

import os
import shutil
import struct
import tempfile
import time
import zlib

import pytest

from repro.caching.bus import InvalidationBus
from repro.errors import ReplicationError
from repro.rdb import Database
from repro.rdb.replication import (
    MSG_ACK,
    MSG_HELLO,
    MSG_RECORD,
    MSG_SNAPSHOT,
    MessageBuffer,
    ReplicationClient,
    ReplicationServer,
    WalTail,
    decode_wal_frame,
    encode_message,
    open_replica,
)
from repro.rdb.snapshot import snapshot_bytes
from repro.rdb.wal import MAGIC, CommitRecord, read_log

_DDL = (
    "CREATE TABLE t (oid INTEGER NOT NULL AUTOINCREMENT,"
    " name VARCHAR(40) NOT NULL, qty INTEGER, PRIMARY KEY (oid))"
)


@pytest.fixture
def base_dir():
    path = tempfile.mkdtemp(prefix="replication-")
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _open_primary(base_dir: str, **kwargs) -> Database:
    return Database.open(os.path.join(base_dir, "primary"), **kwargs)


def _fingerprint(db: Database) -> bytes:
    """Byte-identity probe: the canonical snapshot serialization."""
    return snapshot_bytes(db.last_lsn, db.engine.tables)


def _await(predicate, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


# -- protocol plumbing ------------------------------------------------------


class TestMessageBuffer:
    def test_byte_at_a_time_feed_reassembles_messages(self):
        stream = (encode_message(MSG_HELLO, b"\x00" * 8 + b"r1")
                  + encode_message(MSG_ACK, struct.pack(">Q", 7)))
        buffer = MessageBuffer()
        seen = []
        for i in range(len(stream)):
            buffer.feed(stream[i:i + 1])
            seen.extend(buffer.messages())
        assert [t for t, _ in seen] == [MSG_HELLO, MSG_ACK]
        assert seen[1][1] == struct.pack(">Q", 7)

    def test_partial_message_stays_buffered(self):
        message = encode_message(MSG_RECORD, b"x" * 100)
        buffer = MessageBuffer()
        buffer.feed(message[:50])
        assert list(buffer.messages()) == []
        buffer.feed(message[50:])
        assert list(buffer.messages()) == [(MSG_RECORD, b"x" * 100)]

    def test_oversized_length_is_refused(self):
        buffer = MessageBuffer()
        buffer.feed(struct.pack(">BI", MSG_RECORD, 1 << 31))
        with pytest.raises(ReplicationError, match="exceeds limit"):
            list(buffer.messages())


class TestWalFrameDecode:
    def test_decodes_a_real_frame(self, base_dir):
        with _open_primary(base_dir) as db:
            db.execute(_DDL)
            db.insert_row("t", {"name": "a", "qty": 1})
            tail = WalTail(db.engine.wal_path)
            frames, truncated = tail.poll()
        assert not truncated
        records = [decode_wal_frame(f) for f in frames]
        assert [r.lsn for r in records] == [1, 2]

    def test_corrupt_crc_is_refused(self):
        payload = b"not-a-record"
        frame = struct.pack(">II", len(payload), zlib.crc32(payload) ^ 1)
        with pytest.raises(ReplicationError, match="CRC"):
            decode_wal_frame(frame + payload)

    def test_short_frame_is_refused(self):
        with pytest.raises(ReplicationError, match="short"):
            decode_wal_frame(b"\x00")


class TestWalTail:
    def test_mid_record_truncation_stops_then_resumes(self, base_dir):
        """A torn tail (half-appended frame) must not surface a frame;
        the next poll after the bytes complete must."""
        with _open_primary(base_dir) as db:
            db.execute(_DDL)
            db.insert_row("t", {"name": "a", "qty": 1})
            wal_path = db.engine.wal_path
        with open(wal_path, "rb") as handle:
            whole = handle.read()
        # replay the file into a copy, cutting the last frame in half
        torn_path = wal_path + ".torn"
        frames = list(read_log(wal_path))
        assert len(frames) == 2
        cut = len(whole) - 5  # inside the final frame
        with open(torn_path, "wb") as handle:
            handle.write(whole[:cut])
        tail = WalTail(torn_path)
        frames_out, truncated = tail.poll()
        assert not truncated
        assert len(frames_out) == 1  # only the complete first frame
        assert tail.torn_reads == 1
        # the "writer" finishes the append; the tail picks it up
        with open(torn_path, "ab") as handle:
            handle.write(whole[cut:])
        more, truncated = tail.poll()
        assert not truncated
        assert len(more) == 1
        assert decode_wal_frame(more[0]).lsn == 2

    def test_shrunk_file_reports_truncation(self, base_dir):
        with _open_primary(base_dir) as db:
            db.execute(_DDL)
            for i in range(3):
                db.insert_row("t", {"name": f"n{i}", "qty": i})
            wal_path = db.engine.wal_path
            tail = WalTail(wal_path)
            frames, truncated = tail.poll()
            assert len(frames) == 4 and not truncated
            db.checkpoint()  # truncates the WAL back to its header
            db.insert_row("t", {"name": "post", "qty": 9})
            frames, truncated = tail.poll()
        assert truncated
        assert tail.truncations == 1
        # the post-checkpoint record is still delivered
        assert [decode_wal_frame(f).lsn for f in frames] == [5]

    def test_missing_file_is_quietly_empty(self, base_dir):
        tail = WalTail(os.path.join(base_dir, "nope.wal"))
        assert tail.poll() == ([], False)


# -- replica engine semantics ----------------------------------------------


class TestReplicaEngine:
    def _shipped_records(self, base_dir) -> tuple[list[CommitRecord], bytes]:
        with _open_primary(base_dir) as db:
            db.execute(_DDL)
            for i in range(5):
                db.insert_row("t", {"name": f"n{i}", "qty": i})
            db.execute("DELETE FROM t WHERE qty = :q", {"q": 3})
            records = list(read_log(db.engine.wal_path))
            return records, _fingerprint(db)

    def test_replay_matches_recovery_byte_for_byte(self, base_dir):
        records, primary_state = self._shipped_records(base_dir)
        replica = open_replica()
        for record in records:
            replica.apply_replicated(record)
        assert _fingerprint(replica) == primary_state

    def test_duplicate_records_are_skipped_idempotently(self, base_dir):
        records, primary_state = self._shipped_records(base_dir)
        replica = open_replica()
        for record in records:
            replica.apply_replicated(record)
        # at-least-once delivery: the whole stream arrives again
        for record in records:
            assert replica.apply_replicated(record) is None
        assert replica.engine.duplicates_skipped == len(records)
        assert _fingerprint(replica) == primary_state

    def test_gap_is_refused(self, base_dir):
        records, _ = self._shipped_records(base_dir)
        replica = open_replica()
        replica.apply_replicated(records[0])
        with pytest.raises(ReplicationError, match="gap"):
            replica.apply_replicated(records[2])

    def test_local_writes_are_refused(self):
        replica = open_replica()
        with pytest.raises(ReplicationError, match="read-only"):
            replica.execute(_DDL)

    def test_replay_publishes_into_bus_with_no_subscribers(self, base_dir):
        """A bare replica (no caches registered anywhere) must replay
        without error — the commit stream and an empty invalidation bus
        both tolerate having nobody to notify."""
        records, primary_state = self._shipped_records(base_dir)
        replica = open_replica()
        bus = InvalidationBus()  # deliberately no cache levels
        outcomes = []
        replica.commit_stream.subscribe(
            lambda event: outcomes.append(
                bus.invalidate_writes(sorted(event.tables))
            )
        )
        for record in records:
            replica.apply_replicated(record)
        assert _fingerprint(replica) == primary_state
        assert outcomes == [{} for _ in records]


# -- end-to-end over the socket ---------------------------------------------


class TestReplicationEndToEnd:
    def test_bootstrap_then_live_tail(self, base_dir):
        with _open_primary(base_dir) as db:
            db.execute(_DDL)
            db.insert_row("t", {"name": "seeded", "qty": 1})
            server = ReplicationServer(db, poll_interval=0.01)
            address = server.start()
            replica = open_replica()
            client = ReplicationClient(replica, address, name="r1").start()
            try:
                assert client.wait_for_bootstrap(timeout=10.0)
                token = db.last_lsn
                assert client.wait_for_lsn(token, timeout=10.0)
                assert _fingerprint(replica) == _fingerprint(db)
                # live writes stream through
                db.insert_row("t", {"name": "live", "qty": 2})
                token = db.last_lsn
                assert client.wait_for_lsn(token, timeout=10.0)
                names = {row["name"]
                         for row in replica.query(
                             "SELECT name FROM t", {})}
                assert names == {"seeded", "live"}
                stats = client.stats()
                assert stats["connected"] and stats["bootstraps"] == 1
                server_stats = server.stats()
                assert server_stats["replicas_connected"] == 1
                assert _await(
                    lambda: server.stats()["max_lag"] == 0, timeout=5.0
                )
            finally:
                client.stop()
                server.stop()

    def test_reconnect_delivers_duplicates_and_converges(self, base_dir):
        with _open_primary(base_dir) as db:
            db.execute(_DDL)
            db.insert_row("t", {"name": "a", "qty": 1})
            server = ReplicationServer(db, poll_interval=0.01)
            host, port = server.start()
            replica = open_replica()
            client = ReplicationClient(
                replica, (host, port), name="r1", reconnect_backoff=0.05
            ).start()
            try:
                assert client.wait_for_bootstrap(timeout=10.0)
                assert client.wait_for_lsn(db.last_lsn, timeout=10.0)
                # sever the stream, keep writing
                server.stop()
                assert _await(lambda: not client.connected, timeout=10.0)
                db.insert_row("t", {"name": "while-away", "qty": 2})
                # same port: the client's backoff loop finds it again
                server = ReplicationServer(
                    db, host=host, port=port, poll_interval=0.01)
                server.start()
                assert _await(lambda: client.connected, timeout=10.0)
                assert client.wait_for_lsn(db.last_lsn, timeout=10.0)
                assert _fingerprint(replica) == _fingerprint(db)
                # the tail re-ships from the top of the WAL file, so the
                # records from before the outage arrive a second time
                assert replica.engine.duplicates_skipped > 0
                assert client.reconnects >= 1
            finally:
                client.stop()
                server.stop()

    def test_checkpoint_while_disconnected_forces_resync(self, base_dir):
        with _open_primary(base_dir) as db:
            db.execute(_DDL)
            db.insert_row("t", {"name": "a", "qty": 1})
            server = ReplicationServer(db, poll_interval=0.01)
            host, port = server.start()
            replica = open_replica()
            client = ReplicationClient(
                replica, (host, port), name="r1", reconnect_backoff=0.05
            ).start()
            try:
                assert client.wait_for_bootstrap(timeout=10.0)
                assert client.wait_for_lsn(db.last_lsn, timeout=10.0)
                server.stop()
                assert _await(lambda: not client.connected, timeout=10.0)
                # the WAL the replica was mid-stream on disappears
                db.insert_row("t", {"name": "b", "qty": 2})
                db.checkpoint()
                db.insert_row("t", {"name": "c", "qty": 3})
                server = ReplicationServer(
                    db, host=host, port=port, poll_interval=0.01)
                server.start()
                assert _await(
                    lambda: replica.last_lsn == db.last_lsn, timeout=10.0
                )
                assert _fingerprint(replica) == _fingerprint(db)
            finally:
                client.stop()
                server.stop()

    def test_checkpoint_mid_stream_rebootstraps_peer(self, base_dir):
        with _open_primary(base_dir) as db:
            db.execute(_DDL)
            server = ReplicationServer(db, poll_interval=0.01)
            address = server.start()
            replica = open_replica()
            client = ReplicationClient(replica, address, name="r1").start()
            try:
                assert client.wait_for_bootstrap(timeout=10.0)
                db.insert_row("t", {"name": "pre", "qty": 1})
                assert client.wait_for_lsn(db.last_lsn, timeout=10.0)
                db.checkpoint()
                db.insert_row("t", {"name": "post", "qty": 2})
                assert client.wait_for_lsn(db.last_lsn, timeout=10.0)
                assert _fingerprint(replica) == _fingerprint(db)
            finally:
                client.stop()
                server.stop()

    def test_server_requires_durable_primary(self):
        db = Database(name="memory-only")
        with pytest.raises(ReplicationError, match="durable"):
            ReplicationServer(db)

    def test_client_requires_replica_engine(self, base_dir):
        with _open_primary(base_dir) as db:
            with pytest.raises(ReplicationError, match="ReplicaEngine"):
                ReplicationClient(db, ("127.0.0.1", 1))


class TestServerStop:
    @pytest.mark.parametrize("replicas", [0, 1], ids=["no-replica",
                                                       "one-replica"])
    def test_stop_is_prompt(self, base_dir, replicas):
        """``stop()`` wakes the acceptor blocked in ``accept()`` and
        every shipping thread blocked on its peer, instead of waiting
        out the 5 s join."""
        with _open_primary(base_dir) as db:
            db.execute(_DDL)
            server = ReplicationServer(db, poll_interval=0.01)
            address = server.start()
            clients = [
                ReplicationClient(open_replica(), address,
                                  name=f"r{n}").start()
                for n in range(replicas)
            ]
            try:
                for client in clients:
                    assert client.wait_for_bootstrap(timeout=10.0)
                assert _await(lambda: server.stats()["replicas_connected"]
                              == replicas, timeout=5.0)
                started = time.monotonic()
                server.stop()
                assert time.monotonic() - started < 1.0
                assert not server._accept_thread
            finally:
                for client in clients:
                    client.stop()
