"""DB-API-flavoured connections, cursors, and a pool.

The generated business tier talks to the database the way the paper's
Java services talk to JDBC: acquire a connection from a pool, execute a
parameterized statement through a cursor, read the rows, release the
connection.  Positional (``?``) parameters are passed as a sequence,
named (``:name``) parameters as a mapping.

The pool is thread-safe: :meth:`ConnectionPool.acquire` blocks (with an
optional timeout) while worker threads hold every connection, and keeps
wait-time statistics the E7/E13 experiments read.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Mapping, Sequence

from repro.errors import DatabaseError
from repro.rdb.database import Database
from repro.rdb.executor import ResultSet


def normalize_params(params) -> dict:
    """Convert DB-API style parameters to the engine's name→value dict.

    Positional placeholders are numbered "1", "2", ... left to right.
    """
    if params is None:
        return {}
    if isinstance(params, Mapping):
        return {str(k): v for k, v in params.items()}
    if isinstance(params, Sequence) and not isinstance(params, (str, bytes)):
        return {str(i + 1): v for i, v in enumerate(params)}
    raise DatabaseError(f"unsupported parameter container {type(params).__name__}")


class Cursor:
    """A lightweight DB-API-style cursor.

    A cursor is bound to one *lease* of its connection: once the
    connection returns to the pool, the stale cursor fails loudly
    instead of silently operating on behalf of another borrower.
    """

    def __init__(self, connection: "Connection"):
        self.connection = connection
        self._lease = connection._lease
        self._result: ResultSet | None = None
        self.rowcount = -1
        self.lastrowid: int | None = None
        self._fetch_position = 0

    def _require_live(self) -> Database:
        database = self.connection._require_open()
        if self._lease != self.connection._lease:
            raise DatabaseError(
                "cursor is stale: its connection was returned to the pool"
            )
        return database

    def execute(self, sql: str, params=None) -> "Cursor":
        database = self._require_live()
        result = database.execute(sql, normalize_params(params))
        self._fetch_position = 0
        if isinstance(result, ResultSet):
            self._result = result
            self.rowcount = len(result)
        else:
            self._result = None
            self.rowcount = result if isinstance(result, int) else -1
        # thread-local on the database: another connection's insert on
        # another thread never shows here
        self.lastrowid = database.last_insert_id
        return self

    @property
    def description(self) -> list[tuple] | None:
        """Column metadata of the last SELECT, DB-API shaped."""
        if self._result is None:
            return None
        return [(name, None, None, None, None, None, None)
                for name in self._result.columns]

    @property
    def columns(self) -> list[str]:
        return [] if self._result is None else list(self._result.columns)

    def fetchone(self) -> dict | None:
        if self._result is None or self._fetch_position >= len(self._result.rows):
            return None
        row = self._result.rows[self._fetch_position]
        self._fetch_position += 1
        return row

    def fetchall(self) -> list[dict]:
        if self._result is None:
            return []
        rows = self._result.rows[self._fetch_position:]
        self._fetch_position = len(self._result.rows)
        return rows

    def fetchmany(self, size: int = 1) -> list[dict]:
        if self._result is None:
            return []
        rows = self._result.rows[self._fetch_position : self._fetch_position + size]
        self._fetch_position += len(rows)
        return rows


class Connection:
    """A handle to a database; closing it invalidates its cursors."""

    def __init__(self, database: Database, pool: "ConnectionPool | None" = None):
        self._database: Database | None = database
        self._pool = pool
        self._lease = 0  # bumped on every return to the pool

    def _require_open(self) -> Database:
        if self._database is None:
            raise DatabaseError("connection is closed")
        return self._database

    @property
    def database(self) -> Database:
        return self._require_open()

    def cursor(self) -> Cursor:
        self._require_open()
        if self._pool is not None and not self._pool._is_leased(self):
            raise DatabaseError(
                "connection is idle in its pool; acquire it before use"
            )
        return Cursor(self)

    def execute(self, sql: str, params=None) -> Cursor:
        return self.cursor().execute(sql, params)

    def close(self) -> None:
        """Return to the pool if pooled, otherwise invalidate.

        Closing is idempotent: a second ``close()`` (a ``finally`` block
        after an explicit release, say) is a no-op.
        """
        if self._pool is not None:
            self._pool.release(self)
        else:
            self._database = None

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ConnectionPool:
    """A fixed-size, thread-safe connection pool.

    ``acquire`` blocks while every connection is borrowed, waking as
    soon as one is released; ``timeout`` bounds the wait, and an
    expired one raises.  Wait episodes and waited seconds are counted
    so benchmarks can report pool pressure.

    A lease is one acquisition of a plain :class:`threading.Lock` out
    and one back.  The :class:`threading.Condition` on that lock is
    waited on only by an acquirer that found the pool empty, and
    notified only by a release that refills an empty pool — an acquirer
    woken that way, finding more connections idle, passes the wake-up
    on, so every queued acquirer is reached while connections remain.
    """

    def __init__(self, database: Database, size: int = 8):
        if size <= 0:
            raise DatabaseError("pool size must be positive")
        self.database = database
        self.size = size
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._idle: list[Connection] = [Connection(database, self) for _ in range(size)]
        self._owned: set[int] = {id(c) for c in self._idle}
        self._in_use: set[int] = set()
        self.acquired_total = 0
        self.peak_in_use = 0
        #: acquires that found the pool empty and had to wait
        self.wait_count = 0
        #: cumulative seconds spent waiting for a free connection
        self.total_wait_seconds = 0.0
        #: waits that gave up (timeout expired)
        self.exhausted_failures = 0
        # observability (bound by the runtime context): wait-time
        # histogram plus an in-use gauge; None keeps both sites no-ops
        self._wait_histogram = None
        self._in_use_gauge = None
        self._obs = None

    def bind_observability(self, obs) -> None:
        """Attach the application's metrics registry; waits feed the
        ``rdb.pool.wait_seconds`` histogram.  The ``rdb.pool.in_use``
        gauge is set when the collector (:meth:`wait_stats`) is read,
        and by an acquire that raises the high-water mark — a lease
        never touches it otherwise."""
        self._obs = obs
        self._wait_histogram = obs.metrics.histogram("rdb.pool.wait_seconds")
        self._in_use_gauge = obs.metrics.gauge("rdb.pool.in_use")
        obs.metrics.register_collector("rdb.pool", self.wait_stats)

    def _observing(self) -> bool:
        return self._obs is not None and self._obs.enabled

    def acquire(self, timeout: float | None = None) -> Connection:
        waited = None
        with self._lock:
            idle = self._idle
            if not idle:
                started = time.monotonic()
                deadline = None if timeout is None else started + timeout
                self.wait_count += 1
                while not idle:
                    remaining = (
                        None if deadline is None
                        else deadline - time.monotonic()
                    )
                    if remaining is not None and remaining <= 0:
                        self.total_wait_seconds += time.monotonic() - started
                        self.exhausted_failures += 1
                        raise DatabaseError(
                            f"connection pool exhausted ({self.size} connections "
                            f"in use; timed out after {timeout:.3f}s)"
                        )
                    self._cond.wait(remaining)
                waited = time.monotonic() - started
                self.total_wait_seconds += waited
                if len(idle) > 1:
                    self._cond.notify()  # pass the wake-up on
            connection = idle.pop()
            in_use = self._in_use
            in_use.add(id(connection))
            self.acquired_total += 1
            peak = len(in_use)
            if peak > self.peak_in_use:
                self.peak_in_use = peak
            else:
                peak = None
        if waited is not None or peak is not None:
            if self._observing():
                if peak is not None:
                    self._in_use_gauge.set(peak)
                if waited is not None:
                    self._wait_histogram.record(waited)
        return connection

    def release(self, connection: Connection) -> None:
        with self._lock:
            key = id(connection)
            in_use = self._in_use
            if key not in in_use:
                if key not in self._owned:
                    raise DatabaseError(
                        "releasing a connection not acquired from this pool"
                    )
                return  # double close: idempotent
            connection._lease += 1  # outstanding cursors go stale
            in_use.remove(key)
            idle = self._idle
            idle.append(connection)
            if len(idle) == 1:
                self._cond.notify()  # the pool was empty: wake a waiter

    def _is_leased(self, connection: Connection) -> bool:
        with self._lock:
            return id(connection) in self._in_use

    @property
    def in_use(self) -> int:
        with self._lock:
            return len(self._in_use)

    def wait_stats(self) -> dict:
        """Pool-pressure counters for experiment reports (and the
        ``rdb.pool`` collector, which also brings the ``rdb.pool.in_use``
        gauge up to date)."""
        with self._lock:
            stats = {
                "size": self.size,
                "in_use": len(self._in_use),
                "acquired_total": self.acquired_total,
                "peak_in_use": self.peak_in_use,
                "wait_count": self.wait_count,
                "total_wait_seconds": self.total_wait_seconds,
                "exhausted_failures": self.exhausted_failures,
            }
        if self._in_use_gauge is not None:
            self._in_use_gauge.set(stats["in_use"])
        return stats
