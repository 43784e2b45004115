"""WAL-shipping replication: one write primary, per-process read replicas.

The paper's answer to scale is architectural, not incremental: hard
boundaries between tiers, so each tier can be multiplied.  E13 found the
last single-process wall — compiled/columnar execution made the workload
CPU-bound, and the GIL serialized it — and the commit stream built in
the durability PR was designed as the attachment point for exactly this
module.  Here the binary WAL becomes a wire protocol: a
:class:`ReplicationServer` on the primary ships committed records to any
number of :class:`ReplicationClient` peers, each of which replays them
into its own :class:`ReplicaEngine` and publishes the resulting commit
events into its own process's invalidation bus, so every worker's
bean/fragment/page caches stay correct without sharing memory.

Protocol (length-prefixed messages over one local TCP connection)::

    [u8 type][u32 length][payload]

    HELLO     replica → primary   {u64 last_applied_lsn}[utf-8 name]
    SNAPSHOT  primary → replica   a snapshot blob (repro.rdb.snapshot)
    RECORD    primary → replica   one on-disk WAL frame, verbatim
                                  ([u32 len][u32 crc32][payload])
    ACK       replica → primary   {u64 applied_lsn}

Design points, each load-bearing:

- **Bootstrap vs catch-up.**  On HELLO the primary decides, under the
  database read lock, whether the replica's ``last_applied_lsn`` can be
  caught up from the current WAL file alone (every record after it is
  still on disk).  If not — a fresh replica, or a checkpoint truncated
  the log past the replica's position — it serializes a full snapshot
  at the current LSN and ships that first.  Either way the tail stream
  then starts from the *beginning* of the current WAL file: shipping is
  allowed to be duplicative because application is idempotent.
- **Idempotent, gap-intolerant replay.**  A replica skips records with
  ``lsn <= last_applied`` (duplicate delivery after reconnect is
  normal) and refuses records that would leave a gap (the stream lost
  its prefix; the client resyncs with a fresh bootstrap).  A replica
  replaying any WAL prefix is therefore byte-identical to a fresh crash
  recovery of that prefix — the oracle E21 checks.
- **Torn tails are a parser problem, not a protocol problem.**  The
  shipper reads the WAL file while the writer appends to it, so a poll
  may observe a half-written frame; :class:`WalTail` simply stops
  before it and resumes when the bytes complete.  The same incremental
  parser guards the replica's socket buffer.
- **Commit LSNs are the consistency currency.**  ``Database.last_lsn``
  on the primary is a *write token*; ``Database.wait_for_lsn`` on a
  replica blocks a read until replay has caught up to the token —
  read-your-writes without any cross-process locking.
"""

from __future__ import annotations

import os
import socket
import struct
import threading
import time
import zlib

from repro.errors import DatabaseError, ReplicationError
from repro.rdb.engine import CommitEvent, StorageEngine
from repro.rdb.snapshot import load_snapshot_bytes, snapshot_bytes
from repro.rdb.wal import MAGIC, CommitRecord, _FRAME
from repro.util import shut_socket

MSG_HELLO = 1
MSG_SNAPSHOT = 2
MSG_RECORD = 3
MSG_ACK = 4

_HEAD = struct.Struct(">BI")  # message type, payload length
_U64 = struct.Struct(">Q")

#: refuse absurd frames early (a corrupt length would otherwise make a
#: peer try to buffer gigabytes before noticing)
MAX_MESSAGE_BYTES = 256 * 1024 * 1024


def encode_message(msg_type: int, payload: bytes) -> bytes:
    return _HEAD.pack(msg_type, len(payload)) + payload


class MessageBuffer:
    """Incremental parser for the length-prefixed message stream.

    ``feed`` bytes as they arrive; ``messages`` yields every complete
    ``(type, payload)`` and leaves any trailing partial message
    buffered — the socket-side twin of :class:`WalTail`.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> None:
        self._buffer.extend(data)

    def messages(self):
        while len(self._buffer) >= _HEAD.size:
            msg_type, length = _HEAD.unpack_from(self._buffer, 0)
            if length > MAX_MESSAGE_BYTES:
                raise ReplicationError(
                    f"replication message of {length} bytes exceeds limit"
                )
            end = _HEAD.size + length
            if len(self._buffer) < end:
                return  # partial message: wait for more bytes
            payload = bytes(self._buffer[_HEAD.size:end])
            del self._buffer[:end]
            yield msg_type, payload


def decode_wal_frame(frame: bytes) -> CommitRecord:
    """Decode one shipped WAL frame, CRC included.

    The frame travels verbatim from the primary's disk, so the CRC
    check here catches both disk corruption the primary missed and any
    framing bug in the shipper.
    """
    if len(frame) < _FRAME.size:
        raise ReplicationError("short WAL frame on the replication stream")
    length, crc = _FRAME.unpack_from(frame, 0)
    payload = frame[_FRAME.size:]
    if len(payload) != length:
        raise ReplicationError(
            f"WAL frame length mismatch: header says {length}, "
            f"got {len(payload)}"
        )
    if zlib.crc32(payload) != crc:
        raise ReplicationError("CRC mismatch on shipped WAL frame")
    return CommitRecord.decode(payload)


# -- the primary side -------------------------------------------------------


class WalTail:
    """Incremental reader of complete frames from a live WAL file.

    The writer appends under the database write lock; this reader polls
    from another thread, so it may observe a frame mid-write (a torn
    tail).  ``poll`` returns only complete, CRC-valid frames and leaves
    the offset at the first incomplete one.  A file that *shrank* means
    a checkpoint truncated the log — the caller must re-bootstrap its
    peer, because the truncated records are only available via snapshot.
    """

    def __init__(self, path: str):
        self.path = path
        self.offset = len(MAGIC)
        self.frames_read = 0
        self.torn_reads = 0
        self.truncations = 0

    def poll(self) -> tuple[list[bytes], bool]:
        """Read newly completed frames; returns ``(frames, truncated)``.

        ``truncated`` is True when the file shrank below the current
        offset (checkpoint): the offset resets to the header and the
        caller must re-bootstrap before shipping the returned frames.
        """
        truncated = False
        try:
            with open(self.path, "rb") as handle:
                size = os.fstat(handle.fileno()).st_size
                if size < self.offset:
                    truncated = True
                    self.truncations += 1
                    self.offset = len(MAGIC)
                handle.seek(self.offset)
                data = handle.read()
        except FileNotFoundError:
            return [], False
        frames: list[bytes] = []
        position = 0
        total = len(data)
        while position + _FRAME.size <= total:
            length, crc = _FRAME.unpack_from(data, position)
            end = position + _FRAME.size + length
            if end > total:
                self.torn_reads += 1  # half-written frame: retry later
                break
            payload = data[position + _FRAME.size:end]
            if zlib.crc32(payload) != crc:
                # A corrupt frame never completes; stop here the way
                # recovery does and let the next poll retry (the writer
                # may still be mid-write across our two reads).
                self.torn_reads += 1
                break
            frames.append(data[position:end])
            position = end
        self.offset += position
        self.frames_read += len(frames)
        return frames, truncated


class _PeerConnection:
    """Primary-side state for one connected replica."""

    def __init__(self, sock: socket.socket, name: str, hello_lsn: int):
        self.sock = sock
        self.name = name
        self.hello_lsn = hello_lsn
        self.acked_lsn = 0
        self.sent_lsn = 0
        self.snapshots_sent = 0
        self.frames_sent = 0
        self.connected_at = time.monotonic()
        self.wake = threading.Event()
        self.ack_buffer = MessageBuffer()


class ReplicationServer:
    """Ships the primary's WAL to connected replicas.

    Requires a durable database (``Database.open``): the WAL file *is*
    the replication stream.  One acceptor thread plus one shipper
    thread per replica; commit events only ``set`` a per-connection
    wake flag, so the publish path stays O(replicas) with no I/O.
    """

    def __init__(self, database, host: str = "127.0.0.1", port: int = 0,
                 poll_interval: float = 0.05):
        wal_path = getattr(database.engine, "wal_path", None)
        if wal_path is None:
            raise ReplicationError(
                "replication requires a durable primary (Database.open): "
                "the WAL file is the shipping source"
            )
        self.database = database
        self.host = host
        self.port = port
        self.poll_interval = poll_interval
        self.connections_accepted = 0
        self.snapshots_shipped = 0
        self.frames_shipped = 0
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._peers: list[_PeerConnection] = []
        self._lock = threading.Lock()
        self._stopping = False
        self._subscribed = False

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> tuple:
        """Bind, subscribe to the commit stream, and accept replicas.

        Returns the bound ``(host, port)``.
        """
        if self._listener is not None:
            raise ReplicationError("replication server already started")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(16)
        self._listener = listener
        self._stopping = False
        if not self._subscribed:
            self.database.commit_stream.subscribe(self._on_commit)
            self._subscribed = True
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="replication-accept", daemon=True,
        )
        self._accept_thread.start()
        return listener.getsockname()

    def stop(self) -> None:
        """Close the listener and every peer connection.

        The commit-stream subscription stays (restarting the server on
        the same database keeps working); it costs one no-op callback
        per commit while stopped.
        """
        self._stopping = True
        if self._listener is not None:
            shut_socket(self._listener)
            self._listener = None
        with self._lock:
            peers = list(self._peers)
        for peer in peers:
            shut_socket(peer.sock)
            peer.wake.set()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
            self._accept_thread = None

    def _on_commit(self, event: CommitEvent) -> None:
        with self._lock:
            peers = list(self._peers)
        for peer in peers:
            peer.wake.set()

    # -- accepting ----------------------------------------------------------

    def _accept_loop(self) -> None:
        listener = self._listener
        while not self._stopping and listener is not None:
            try:
                sock, _addr = listener.accept()
            except OSError:  # listener closed by stop()
                return
            threading.Thread(
                target=self._serve_peer, args=(sock,),
                name="replication-ship", daemon=True,
            ).start()

    def _read_hello(self, sock: socket.socket) -> tuple[int, str]:
        buffer = MessageBuffer()
        sock.settimeout(10.0)
        while True:
            data = sock.recv(65536)
            if not data:
                raise ReplicationError("peer hung up before HELLO")
            buffer.feed(data)
            for msg_type, payload in buffer.messages():
                if msg_type != MSG_HELLO or len(payload) < _U64.size:
                    raise ReplicationError("expected HELLO as first message")
                (lsn,) = _U64.unpack_from(payload, 0)
                name = payload[_U64.size:].decode("utf-8", "replace")
                return lsn, name

    def _serve_peer(self, sock: socket.socket) -> None:
        try:
            hello_lsn, name = self._read_hello(sock)
        except (OSError, ReplicationError, DatabaseError):
            sock.close()
            return
        peer = _PeerConnection(sock, name or f"replica-{id(sock):x}",
                               hello_lsn)
        with self._lock:
            self._peers.append(peer)
            self.connections_accepted += 1
        try:
            self._ship_loop(peer)
        except (OSError, ReplicationError):
            pass  # peer vanished; it will reconnect and catch up
        finally:
            with self._lock:
                if peer in self._peers:
                    self._peers.remove(peer)
            try:
                sock.close()
            except OSError:
                pass

    # -- shipping -----------------------------------------------------------

    def _first_wal_lsn(self) -> int | None:
        """The LSN of the first complete record in the WAL file."""
        tail = WalTail(self.database.engine.wal_path)
        frames, _truncated = tail.poll()
        if not frames:
            return None
        return decode_wal_frame(frames[0]).lsn

    def _send_bootstrap_if_needed(self, peer: _PeerConnection) -> None:
        """Under the database read lock: decide catch-up vs snapshot.

        Catch-up is possible iff every record after the peer's LSN is
        still in the WAL file.  The read lock pins the decision: no
        commit or checkpoint can move the goalposts while we look.
        """
        with self.database._rwlock.read_locked():
            engine = self.database.engine
            first = self._first_wal_lsn()
            if peer.hello_lsn > 0 and (
                first <= peer.hello_lsn + 1 if first is not None
                else engine.last_lsn <= peer.hello_lsn
            ):
                peer.sent_lsn = peer.hello_lsn
                return  # the file alone can catch this replica up
            blob = snapshot_bytes(engine.last_lsn, engine.tables)
            snapshot_lsn = engine.last_lsn
        peer.sock.sendall(encode_message(MSG_SNAPSHOT, blob))
        peer.snapshots_sent += 1
        peer.sent_lsn = snapshot_lsn
        with self._lock:
            self.snapshots_shipped += 1

    def _ship_loop(self, peer: _PeerConnection) -> None:
        self._send_bootstrap_if_needed(peer)
        tail = WalTail(self.database.engine.wal_path)
        peer.sock.settimeout(10.0)
        while not self._stopping:
            frames, truncated = tail.poll()
            if truncated:
                # A checkpoint truncated the log mid-stream: the frames
                # we just read start *after* the snapshot point, so ship
                # a fresh snapshot first to close the gap.
                peer.hello_lsn = 0
                self._send_bootstrap_if_needed(peer)
            for frame in frames:
                peer.sock.sendall(encode_message(MSG_RECORD, frame))
                peer.frames_sent += 1
                peer.sent_lsn = max(
                    peer.sent_lsn, decode_wal_frame(frame).lsn
                )
            if frames:
                with self._lock:
                    self.frames_shipped += len(frames)
            self._drain_acks(peer)
            if peer.wake.wait(timeout=self.poll_interval):
                peer.wake.clear()

    def _drain_acks(self, peer: _PeerConnection) -> None:
        peer.sock.setblocking(False)
        try:
            while True:
                try:
                    data = peer.sock.recv(65536)
                except (BlockingIOError, socket.timeout):
                    return
                if not data:
                    raise OSError("peer closed")
                peer.ack_buffer.feed(data)
                for msg_type, payload in peer.ack_buffer.messages():
                    if msg_type == MSG_ACK and len(payload) >= _U64.size:
                        (lsn,) = _U64.unpack_from(payload, 0)
                        peer.acked_lsn = max(peer.acked_lsn, lsn)
        finally:
            peer.sock.settimeout(10.0)

    # -- observation --------------------------------------------------------

    def stats(self) -> dict:
        """Primary-side replication health for ``/_status``.

        ``lag`` is in commits (LSNs), not seconds: the primary's last
        LSN minus the last LSN each replica acknowledged applying.
        """
        last_lsn = self.database.engine.last_lsn
        with self._lock:
            peers = list(self._peers)
        workers = [
            {
                "name": peer.name,
                "acked_lsn": peer.acked_lsn,
                "sent_lsn": peer.sent_lsn,
                "lag": max(0, last_lsn - peer.acked_lsn),
                "snapshots_sent": peer.snapshots_sent,
                "frames_sent": peer.frames_sent,
                "connected_seconds": round(
                    time.monotonic() - peer.connected_at, 3
                ),
            }
            for peer in peers
        ]
        return {
            "role": "primary",
            "last_lsn": last_lsn,
            "replicas_connected": len(workers),
            "connections_accepted": self.connections_accepted,
            "snapshots_shipped": self.snapshots_shipped,
            "frames_shipped": self.frames_shipped,
            "max_lag": max((w["lag"] for w in workers), default=0),
            "workers": workers,
        }


# -- the replica side -------------------------------------------------------


class ReplicaEngine(StorageEngine):
    """A read-only storage engine fed exclusively by replicated records.

    Local writes raise :class:`ReplicationError` — the fleet funnels
    every write to the primary, and a replica that silently accepted
    one would fork history.  State changes arrive only through
    :meth:`apply_commit_record` (idempotent, gap-intolerant) and
    :meth:`install_tables` (snapshot bootstrap).
    """

    mode = "replica"

    def __init__(self) -> None:
        super().__init__()
        self.records_applied = 0
        self.duplicates_skipped = 0
        self.bootstraps = 0

    def _refuse_write(self):
        raise ReplicationError(
            "replica database is read-only: route writes to the primary"
        )

    def note_insert(self, table, row_id, row):
        self._refuse_write()

    def note_update(self, table, row_id, old, new):
        self._refuse_write()

    def note_delete(self, table, row_id, old):
        self._refuse_write()

    def note_create_table(self, schema):
        self._refuse_write()

    def note_create_index(self, table, index):
        self._refuse_write()

    def note_drop_table(self, table):
        self._refuse_write()

    def note_analyze(self, table):
        self._refuse_write()

    def begin(self):
        self._refuse_write()

    # -- replication apply ---------------------------------------------------

    def apply_commit_record(self, record: CommitRecord) -> CommitEvent | None:
        """Replay one shipped record; returns its event, or ``None`` for
        a duplicate.  Caller holds the database write lock."""
        if record.lsn <= self.last_lsn:
            self.duplicates_skipped += 1
            return None
        if record.lsn != self._next_lsn:
            raise ReplicationError(
                f"replication gap: expected lsn {self._next_lsn}, "
                f"got {record.lsn} — resync required"
            )
        self.replay_record(record)
        self._next_lsn = record.lsn + 1
        self.records_applied += 1
        self.commits += 1
        return CommitEvent(
            lsn=record.lsn,
            tables=frozenset(record.tables()),
            ops=tuple(record.ops),
            durable=False,
        )

    def install_tables(self, lsn: int, tables: dict) -> CommitEvent:
        """Replace the whole state with a bootstrap snapshot.

        Returns the bootstrap event (every table named, no ops) the
        caller publishes so caches flush.  Caller holds the write lock.
        """
        names = frozenset(tables) | frozenset(self.tables)
        self.tables = tables
        self._next_lsn = lsn + 1
        self.bootstraps += 1
        return CommitEvent(
            lsn=lsn, tables=names, ops=(), durable=False, bootstrap=True,
        )

    def observability_stats(self) -> dict:
        stats = super().observability_stats()
        stats.update({
            "records_applied": self.records_applied,
            "duplicates_skipped": self.duplicates_skipped,
            "bootstraps": self.bootstraps,
        })
        return stats


class ReplicationClient:
    """Tails the primary's stream into a replica database.

    Owns one background thread: connect, HELLO with the last applied
    LSN, then apply SNAPSHOT/RECORD messages as they arrive, ACKing
    after each batch.  Connection loss triggers reconnection with
    backoff; a replication gap (checkpoint outran us while
    disconnected) triggers a full resync — HELLO with LSN 0, which
    forces a snapshot bootstrap.
    """

    def __init__(self, database, address: tuple, name: str = "replica",
                 reconnect_backoff: float = 0.2):
        if not isinstance(database.engine, ReplicaEngine):
            raise ReplicationError(
                "ReplicationClient needs a Database over a ReplicaEngine"
            )
        self.database = database
        self.address = tuple(address)
        self.name = name
        self.reconnect_backoff = reconnect_backoff
        self.connected = False
        self.reconnects = 0
        self.bytes_received = 0
        self.last_error: str | None = None
        self._force_resync = False
        self._stopping = False
        self._thread: threading.Thread | None = None
        self._sock: socket.socket | None = None
        self._bootstrapped = threading.Event()

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "ReplicationClient":
        if self._thread is not None:
            raise ReplicationError("replication client already started")
        self._stopping = False
        self._thread = threading.Thread(
            target=self._run, name=f"replication-client-{self.name}",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stopping = True
        sock = self._sock
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def wait_for_bootstrap(self, timeout: float = 10.0) -> bool:
        """Block until the first snapshot (or catch-up stream) landed —
        the point after which the replica serves a consistent state."""
        return self._bootstrapped.wait(timeout)

    def wait_for_lsn(self, lsn: int, timeout: float = 5.0) -> bool:
        """Read-your-writes: block until replay reaches ``lsn``."""
        return self.database.wait_for_lsn(lsn, timeout)

    # -- the tailing thread --------------------------------------------------

    def _run(self) -> None:
        while not self._stopping:
            try:
                self._connect_and_stream()
            except (OSError, ReplicationError, DatabaseError) as exc:
                self.last_error = f"{type(exc).__name__}: {exc}"
                if isinstance(exc, ReplicationError) and "gap" in str(exc):
                    # The stream lost our prefix (checkpoint while we
                    # were away): next HELLO claims LSN 0 to force a
                    # snapshot bootstrap.
                    self._force_resync = True
            self.connected = False
            if self._stopping:
                return
            self.reconnects += 1
            time.sleep(self.reconnect_backoff)

    def _connect_and_stream(self) -> None:
        hello_lsn = 0 if self._force_resync else self.database.last_lsn
        sock = socket.create_connection(self.address, timeout=10.0)
        self._sock = sock
        try:
            sock.sendall(encode_message(
                MSG_HELLO,
                _U64.pack(hello_lsn) + self.name.encode("utf-8"),
            ))
            self.connected = True
            self._force_resync = False
            if hello_lsn > 0:
                # Catch-up reconnect: the state we already hold is the
                # consistent base; don't gate readers on a snapshot
                # that may never come.
                self._bootstrapped.set()
            buffer = MessageBuffer()
            sock.settimeout(0.5)
            while not self._stopping:
                try:
                    data = sock.recv(1 << 20)
                except socket.timeout:
                    continue
                if not data:
                    raise OSError("primary closed the connection")
                self.bytes_received += len(data)
                buffer.feed(data)
                applied_any = False
                for msg_type, payload in buffer.messages():
                    if msg_type == MSG_SNAPSHOT:
                        lsn, tables = load_snapshot_bytes(
                            payload, origin=f"bootstrap from {self.address}"
                        )
                        self.database.install_replica_state(lsn, tables)
                        self._bootstrapped.set()
                        applied_any = True
                    elif msg_type == MSG_RECORD:
                        record = decode_wal_frame(payload)
                        event = self.database.apply_replicated(record)
                        applied_any = applied_any or event is not None
                    # unknown types are skipped: forward compatibility
                if applied_any:
                    sock.sendall(encode_message(
                        MSG_ACK, _U64.pack(self.database.last_lsn)
                    ))
        finally:
            self._sock = None
            try:
                sock.close()
            except OSError:
                pass

    # -- observation --------------------------------------------------------

    def stats(self) -> dict:
        """Replica-side replication health for ``/_status``."""
        engine = self.database.engine
        return {
            "role": "replica",
            "name": self.name,
            "connected": self.connected,
            "applied_lsn": engine.last_lsn,
            "records_applied": engine.records_applied,
            "duplicates_skipped": engine.duplicates_skipped,
            "bootstraps": engine.bootstraps,
            "reconnects": self.reconnects,
            "bytes_received": self.bytes_received,
            "last_error": self.last_error,
        }


def open_replica(name: str = "replica"):
    """A :class:`~repro.rdb.database.Database` over a fresh
    :class:`ReplicaEngine` — the unit a fleet worker owns."""
    from repro.rdb.database import Database

    return Database(name=name, engine=ReplicaEngine())
