"""The storage engine behind the logical database layer.

:class:`repro.rdb.database.Database` is split in two along the classic
engine boundary: the *logical* layer (parser, planner, compiler,
executor, constraint enforcement) stays in ``database.py``; everything
that owns state lives here, behind an explicit interface —

- **tables and indexes** (the :class:`~repro.rdb.storage.TableStore`
  registry),
- **transactions** (undo logs for rollback, typed redo records for
  durability),
- **durability** (:class:`DurableEngine`: a write-ahead log, periodic
  snapshots with log truncation, and crash recovery that replays the
  committed WAL suffix over the latest snapshot),
- **the commit stream** (every committed transaction is published as a
  :class:`CommitEvent`, the hook cache invalidation rides today and
  WAL-shipping replication attaches to next).

Two engines implement the interface:

- :class:`MemoryEngine` — the seed behaviour, byte for byte: pure
  in-memory state, undo-log transactions, nothing survives the
  process.  Failed autocommit statements keep their partial effects,
  exactly as before the refactor.
- :class:`DurableEngine` — redo records reach a binary WAL with
  fsync-on-commit (or group commit) before a commit returns; recovery
  replays the longest committed prefix.  Autocommit statements become
  atomic: a failure mid-statement rolls the statement back, so the
  in-memory state never diverges from what the log can reproduce.

Locking: the engine has no locks of its own.  Every mutating call
happens under the owning database's write lock (commits are serialized
by design), which is also why plain counters suffice throughout.

DDL is not transactional (matching the seed): a rollback restores DML
but keeps schema changes, so the engine logs the rolled-back
transaction's DDL ops as their own commit record — the log replays to
the same schema the process ended with.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass, field

from repro.errors import QueryError
from repro.rdb.schema import Index, TableSchema
from repro.rdb.statistics import collect_statistics
from repro.rdb.storage import TableStore
from repro.rdb.wal import (
    OP_ANALYZE,
    OP_CREATE_INDEX,
    OP_CREATE_TABLE,
    OP_DELETE,
    OP_DROP_TABLE,
    OP_INSERT,
    OP_UPDATE,
    CommitRecord,
    WriteAheadLog,
    committed_prefix_boundaries,
    read_log,
)

_DDL_OPCODES = frozenset(
    (OP_CREATE_TABLE, OP_CREATE_INDEX, OP_DROP_TABLE, OP_ANALYZE)
)


@dataclass(frozen=True)
class CommitEvent:
    """One committed transaction as seen by downstream consumers.

    ``ops`` are the typed redo records (see
    :class:`repro.rdb.wal.CommitRecord`), ``tables`` the names they
    touch.  Cache invalidation reads the rows in ``ops`` — new and old
    images alike — to name the instances the commit changed, the same
    way on a primary, in recovery and on a replica replaying shipped
    records.  A ``bootstrap`` event marks a wholesale state
    replacement (a replica installing a snapshot): no per-entity write
    set is meaningful, so subscribers should flush rather than
    invalidate selectively.
    """

    lsn: int
    tables: frozenset
    ops: tuple
    durable: bool = False
    bootstrap: bool = False


class CommitStream:
    """Ordered fan-out of :class:`CommitEvent` to subscribers.

    Events are published *after* the database write lock is released
    (commits are already serialized, so ordering is preserved), which
    keeps subscriber work — cache invalidation, future replication
    shipping — off the engine's critical section and free to take its
    own locks.
    """

    def __init__(self) -> None:
        self._subscribers: list = []
        self.events_published = 0

    def subscribe(self, callback) -> None:
        """Attach ``callback(event)``; duplicates are ignored."""
        if callback not in self._subscribers:
            self._subscribers.append(callback)

    def unsubscribe(self, callback) -> None:
        if callback in self._subscribers:
            self._subscribers.remove(callback)

    @property
    def subscriber_count(self) -> int:
        return len(self._subscribers)

    def publish(self, event: CommitEvent) -> None:
        self.events_published += 1
        for callback in list(self._subscribers):
            callback(event)


@dataclass
class _Transaction:
    """In-flight transaction state: undo for rollback, redo for the log."""

    explicit: bool
    #: reversed on rollback: ("insert", table, row_id, None) /
    #: ("update"/"delete", table, row_id, old_row)
    undo: list = field(default_factory=list)
    #: replayed on recovery, in order (see CommitRecord op tuples)
    redo: list = field(default_factory=list)
    #: reentrancy depth of implicit statement scopes
    depth: int = 0


class _StatementScope:
    """Handle yielded by :meth:`StorageEngine.statement_scope`; carries
    the commit event (if this scope committed) out to the caller so it
    can be published after the write lock is released."""

    __slots__ = ("event",)

    def __init__(self) -> None:
        self.event: CommitEvent | None = None


class StorageEngine:
    """The in-memory engine and the base of the durable one.

    Subclass hooks: :meth:`_persist` makes a commit record durable
    (no-op here), :attr:`statement_atomic` decides whether a failed
    autocommit statement is rolled back (durable) or keeps its partial
    effects (seed behaviour).
    """

    mode = "memory"
    statement_atomic = False

    def __init__(self) -> None:
        self.tables: dict[str, TableStore] = {}
        self.commit_stream = CommitStream()
        self.commits = 0
        self.rollbacks = 0
        self._txn: _Transaction | None = None
        self._next_lsn = 1
        self._closed = False

    # -- lifecycle ----------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release engine resources; safe to call more than once."""
        self._closed = True

    def bind_observability(self, obs) -> None:
        """Attach the application's metrics registry (durable engines
        publish the fsync histogram here)."""

    # -- transactions -------------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        """True inside an *explicit* begin/commit span (statement-scoped
        implicit transactions are invisible, as before the refactor)."""
        txn = self._txn
        return txn is not None and txn.explicit

    def begin(self) -> None:
        if self._txn is not None:
            raise QueryError("a transaction is already active")
        self._txn = _Transaction(explicit=True)

    def commit(self) -> CommitEvent | None:
        txn = self._txn
        if txn is None or not txn.explicit:
            raise QueryError("no active transaction to commit")
        event = self._commit_records(txn.redo)
        self._txn = None
        self.commits += 1
        return event

    def rollback(self) -> CommitEvent | None:
        """Undo the active transaction's DML.

        DDL survives (it is not transactional, matching the seed), so
        any DDL ops the transaction carried are committed as their own
        record — the returned event, for the caller to publish.
        """
        txn = self._txn
        if txn is None or not txn.explicit:
            raise QueryError("no active transaction to roll back")
        self._txn = None
        self.rollbacks += 1
        self._apply_undo(txn.undo)
        ddl_ops = [op for op in txn.redo if op[0] in _DDL_OPCODES]
        if ddl_ops:
            return self._commit_records(ddl_ops)
        return None

    @contextlib.contextmanager
    def statement_scope(self):
        """The commit scope of one top-level statement.

        Inside an explicit transaction this is a passthrough (records
        accumulate until ``commit``).  Otherwise the outermost scope is
        an implicit transaction committed on success; on failure a
        durable engine rolls the statement back while the memory engine
        keeps partial effects (seed behaviour).  Nested scopes (a
        statement executing through another public entry point) attach
        to the outermost one.
        """
        scope = _StatementScope()
        txn = self._txn
        if txn is not None and txn.explicit:
            yield scope
            return
        if txn is not None:
            txn.depth += 1
            try:
                yield scope
            finally:
                txn.depth -= 1
            return
        txn = _Transaction(explicit=False, depth=1)
        self._txn = txn
        try:
            yield scope
        except BaseException:
            self._txn = None
            if self.statement_atomic:
                self._apply_undo(txn.undo)
            raise
        else:
            self._txn = None
            scope.event = self._commit_records(txn.redo)
            self.commits += 1

    def _apply_undo(self, undo: list) -> None:
        for kind, table, row_id, row in reversed(undo):
            store = self.tables[table]
            if kind == "insert":
                if row_id in store.rows:
                    store.delete_row(row_id)
            elif kind == "delete":
                store.restore_row(row_id, row)
            else:  # update
                store.force_row(row_id, row)

    def _commit_records(self, redo: list) -> CommitEvent | None:
        """Seal ``redo`` into a commit record; returns its event."""
        if not redo:
            return None
        record = CommitRecord(self._next_lsn, redo)
        self._persist(record)
        self._next_lsn += 1
        return CommitEvent(
            lsn=record.lsn,
            tables=frozenset(record.tables()),
            ops=tuple(redo),
            durable=self.mode == "durable",
        )

    def _persist(self, record: CommitRecord) -> None:
        """Durability hook; the in-memory engine keeps nothing."""

    def replay_record(self, record: CommitRecord) -> None:
        """Replay one committed record's ops into the table registry.

        Shared by crash recovery (a durable engine replaying its own
        WAL suffix) and replication (a replica applying shipped
        records): ops are known-good — they committed once — so no
        constraint re-checks beyond what index rebuilds enforce.
        """
        for op in record.ops:
            opcode = op[0]
            if opcode == OP_INSERT:
                self.tables[op[1]].apply_redo_insert(op[2], op[3])
            elif opcode == OP_UPDATE:
                self.tables[op[1]].force_row(op[2], op[3])
            elif opcode == OP_DELETE:
                self.tables[op[1]].delete_row(op[2])
            elif opcode == OP_CREATE_TABLE:
                store = TableStore(op[1])
                store.link_foreign_keys(self.tables)
                self.tables[op[1].name] = store
            elif opcode == OP_CREATE_INDEX:
                self.tables[op[1]].add_index(op[2])
            elif opcode == OP_DROP_TABLE:
                del self.tables[op[1]]
            elif opcode == OP_ANALYZE:
                targets = (
                    [self.tables[op[1]]] if op[1] is not None
                    else list(self.tables.values())
                )
                for store in targets:
                    store.statistics = collect_statistics(store)

    # -- mutation records ---------------------------------------------------
    # Called by the logical layer at each write, always inside a
    # statement scope or explicit transaction.

    def _require_txn(self) -> _Transaction:
        txn = self._txn
        if txn is None:
            raise QueryError(
                "engine mutation outside a transaction or statement scope"
            )
        return txn

    def note_insert(self, table: str, row_id: int, row: dict) -> None:
        txn = self._require_txn()
        txn.undo.append(("insert", table, row_id, None))
        txn.redo.append((OP_INSERT, table, row_id, row))

    def note_update(self, table: str, row_id: int,
                    old: dict, new: dict) -> None:
        txn = self._require_txn()
        txn.undo.append(("update", table, row_id, old))
        txn.redo.append((OP_UPDATE, table, row_id, new, old))

    def note_delete(self, table: str, row_id: int, old: dict) -> None:
        txn = self._require_txn()
        txn.undo.append(("delete", table, row_id, old))
        txn.redo.append((OP_DELETE, table, row_id, old))

    def note_create_table(self, schema: TableSchema) -> None:
        self._require_txn().redo.append((OP_CREATE_TABLE, schema))

    def note_create_index(self, table: str, index: Index) -> None:
        self._require_txn().redo.append((OP_CREATE_INDEX, table, index))

    def note_drop_table(self, table: str) -> None:
        self._require_txn().redo.append((OP_DROP_TABLE, table))

    def note_analyze(self, table: str | None) -> None:
        self._require_txn().redo.append((OP_ANALYZE, table))

    # -- observation --------------------------------------------------------

    @property
    def last_lsn(self) -> int:
        """The LSN of the most recent commit (0 before any)."""
        return self._next_lsn - 1

    def observability_stats(self) -> dict:
        return {
            "engine": self.mode,
            "last_lsn": self.last_lsn,
            "commits": self.commits,
            "rollbacks": self.rollbacks,
            "commit_events_published": self.commit_stream.events_published,
            "commit_subscribers": self.commit_stream.subscriber_count,
        }


class MemoryEngine(StorageEngine):
    """The default engine: exactly the seed's in-memory behaviour."""


class DurableEngine(StorageEngine):
    """WAL + snapshot persistence under a directory.

    ``directory`` holds ``wal.log`` (the append-only commit log) and
    ``snapshot.db`` (the latest checkpoint).  Construction *is*
    recovery: load the snapshot if present, replay the committed WAL
    suffix, truncate any torn tail, and open the log for appending.

    ``group_commit_window`` > 0 defers fsyncs up to that many seconds
    (see :class:`repro.rdb.wal.WriteAheadLog`); ``checkpoint_bytes``
    triggers an automatic snapshot + log truncation whenever the WAL
    grows past the threshold.
    """

    mode = "durable"
    statement_atomic = True

    def __init__(self, directory: str, group_commit_window: float = 0.0,
                 checkpoint_bytes: int | None = None):
        super().__init__()
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.snapshot_path = os.path.join(directory, "snapshot.db")
        self.wal_path = os.path.join(directory, "wal.log")
        self.checkpoint_bytes = checkpoint_bytes
        self.snapshots_written = 0
        self.last_snapshot_bytes = 0
        self.recovery_stats = {
            "snapshot_loaded": False,
            "snapshot_lsn": 0,
            "wal_records_replayed": 0,
            "wal_records_skipped": 0,
            "recovered_lsn": 0,
        }
        self._recover()
        self.wal = WriteAheadLog(self.wal_path,
                                 group_window_seconds=group_commit_window)

    # -- recovery -----------------------------------------------------------

    def _recover(self) -> None:
        stats = self.recovery_stats
        snapshot_lsn = 0
        if os.path.exists(self.snapshot_path):
            from repro.rdb.snapshot import load_snapshot

            snapshot_lsn, self.tables = load_snapshot(self.snapshot_path)
            stats["snapshot_loaded"] = True
            stats["snapshot_lsn"] = snapshot_lsn
        recovered_lsn = snapshot_lsn
        for record in read_log(self.wal_path):
            if record.lsn <= snapshot_lsn:
                # A crash between snapshot rename and log truncation
                # leaves already-checkpointed records behind; skip them.
                stats["wal_records_skipped"] += 1
                continue
            self.replay_record(record)
            recovered_lsn = record.lsn
            stats["wal_records_replayed"] += 1
        stats["recovered_lsn"] = recovered_lsn
        self._next_lsn = recovered_lsn + 1
        self._truncate_torn_tail()

    def _truncate_torn_tail(self) -> None:
        """Drop any torn/corrupt frame so new appends stay readable
        (a reader stops at the first bad frame, which would otherwise
        hide everything appended after it).  Runs after replay, which
        has already refused a log of another format, so the header is
        either whole or a torn creation (truncated to nothing)."""
        if not os.path.exists(self.wal_path):
            return
        from repro.rdb.wal import MAGIC

        boundaries = committed_prefix_boundaries(self.wal_path)
        with open(self.wal_path, "rb") as handle:
            header_ok = handle.read(len(MAGIC)) == MAGIC
        valid_end = boundaries[-1] if boundaries else (
            len(MAGIC) if header_ok else 0
        )
        if os.path.getsize(self.wal_path) > valid_end:
            with open(self.wal_path, "r+b") as handle:
                handle.truncate(valid_end)

    # -- durability ---------------------------------------------------------

    def _persist(self, record: CommitRecord) -> None:
        self.wal.append(record)
        if (self.checkpoint_bytes is not None
                and self.wal.size_bytes >= self.checkpoint_bytes):
            self.checkpoint()

    def checkpoint(self) -> int:
        """Write a snapshot at the current commit point and truncate
        the WAL; returns the snapshot size in bytes."""
        from repro.rdb.snapshot import write_snapshot

        self.wal.flush()
        size = write_snapshot(self.snapshot_path, self.last_lsn, self.tables)
        self.wal.reset()
        self.snapshots_written += 1
        self.last_snapshot_bytes = size
        return size

    def close(self) -> None:
        """Flush and close the log; safe to call more than once."""
        if not self._closed:
            self.wal.close()
        super().close()

    def bind_observability(self, obs) -> None:
        self.wal.bind_fsync_histogram(
            obs.metrics.histogram("rdb.wal_fsync_seconds")
        )

    def observability_stats(self) -> dict:
        stats = super().observability_stats()
        stats.update(self.wal.stats())
        stats.update({
            "snapshots_written": self.snapshots_written,
            "last_snapshot_bytes": self.last_snapshot_bytes,
            "checkpoint_bytes_threshold": self.checkpoint_bytes,
        })
        stats["recovery"] = dict(self.recovery_stats)
        return stats
