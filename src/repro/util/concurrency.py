"""Concurrency primitives shared by every tier.

The paper's runtime serves "many simultaneous users" (§1): pooled JDBC
connections, a shared business tier, a two-level cache.  This module
holds the primitives that make the Python reproduction of those tiers
safe under a pool of worker threads:

- :class:`ReadWriteLock` — a reentrant readers-writer lock.  The rdb
  tier takes the read side for SELECTs (data-extraction queries run
  concurrently) and the write side for DML/DDL and undo-log
  transactions (writes serialize, and a transaction holds the write
  side from ``begin`` to ``commit``/``rollback``).
- :class:`AtomicCounters` — a mixin giving dataclass-style stats
  objects a lock-guarded :meth:`increment`, so counters shared by
  worker threads never lose updates.
- :func:`shut_socket` — how a server's ``stop`` wakes the thread
  blocked on one of its sockets.
"""

from __future__ import annotations

import contextlib
import socket
import threading


def shut_socket(sock: socket.socket) -> None:
    """Shut a socket down and close it, so that a thread blocked in its
    ``accept()`` or ``recv()`` wakes up (on Linux, closing alone does
    not wake it)."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # never connected, or the peer already went
    try:
        sock.close()
    except OSError:
        pass


class ReadWriteLock:
    """A reentrant readers-writer lock with writer preference.

    Many readers may hold the lock at once; a writer holds it alone.
    Reentrancy rules:

    - a thread holding the write side may acquire either side again
      (a transaction executes its own statements);
    - a thread holding the read side may re-acquire the read side even
      while writers wait (no self-deadlock on nested queries);
    - upgrading read → write is refused — it deadlocks by construction.

    New readers queue behind waiting writers, so a steady SELECT stream
    cannot starve operations.

    Every state change happens under one plain :class:`threading.Lock`;
    the :class:`threading.Condition` built on it is waited on only by a
    thread that must queue, and notified only when one may be queued — an
    uncontended read is one acquisition of that lock in and one out.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._readers: dict[int, int] = {}  # thread ident → recursion depth
        self._writer: int | None = None
        self._writer_depth = 0
        self._writers_waiting = 0

    # -- read side -----------------------------------------------------------

    def acquire_read(self) -> None:
        me = threading.get_ident()
        with self._lock:
            readers = self._readers
            if self._writer == me or me in readers:
                readers[me] = readers.get(me, 0) + 1
                return
            while self._writer is not None or self._writers_waiting:
                self._cond.wait()
            readers[me] = 1

    def release_read(self) -> None:
        me = threading.get_ident()
        with self._lock:
            readers = self._readers
            depth = readers.get(me)
            if depth is None:
                raise RuntimeError("release_read() without acquire_read()")
            if depth > 1:
                readers[me] = depth - 1
                return
            del readers[me]
            # a reader only ever waits behind a writer, so the last
            # reader out has someone to wake only if a writer is queued
            if not readers and self._writers_waiting:
                self._cond.notify_all()

    # -- write side -----------------------------------------------------------

    def acquire_write(self) -> None:
        me = threading.get_ident()
        with self._lock:
            if self._writer == me:
                self._writer_depth += 1
                return
            if me in self._readers:
                raise RuntimeError(
                    "cannot upgrade a read lock to a write lock"
                )
            self._writers_waiting += 1
            try:
                while self._writer is not None or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = me
            self._writer_depth = 1

    def release_write(self) -> None:
        me = threading.get_ident()
        with self._lock:
            if self._writer != me:
                raise RuntimeError("release_write() by a non-owner thread")
            self._writer_depth -= 1
            if self._writer_depth == 0:
                self._writer = None
                self._cond.notify_all()

    # -- context managers ------------------------------------------------------

    @contextlib.contextmanager
    def read_locked(self):
        self.acquire_read()
        try:
            yield self
        finally:
            self.release_read()

    @contextlib.contextmanager
    def write_locked(self):
        self.acquire_write()
        try:
            yield self
        finally:
            self.release_write()

    # -- observation (tests/debugging) ----------------------------------------

    @property
    def active_readers(self) -> int:
        with self._lock:
            return len(self._readers)

    def write_held_by_current_thread(self) -> bool:
        with self._lock:
            return self._writer == threading.get_ident()

    def held_by_writer(self) -> bool:
        with self._lock:
            return self._writer is not None


class AtomicCounters:
    """Lock-guarded counter updates for stats dataclasses.

    Subclasses call :meth:`increment` instead of ``self.field += 1`` so
    read-modify-write races between worker threads cannot lose counts.
    """

    @property
    def _counter_lock(self) -> threading.Lock:
        # Created lazily so dataclass subclasses need no extra field and
        # pickling/copying stays trivial.
        lock = self.__dict__.get("__counter_lock")
        if lock is None:
            lock = self.__dict__.setdefault("__counter_lock",
                                            threading.Lock())
        return lock

    def increment(self, counter: str, by: int = 1) -> int:
        with self._counter_lock:
            value = getattr(self, counter) + by
            setattr(self, counter, value)
            return value

    def increment_each(self, *counters: str) -> None:
        """Bump each of ``counters`` by one, under one acquisition."""
        with self._counter_lock:
            for counter in counters:
                setattr(self, counter, getattr(self, counter) + 1)
