"""Thread-safety tests across the whole request path.

One test class per tier of the concurrent runtime: the readers-writer
lock, the rdb engine under concurrent readers/writers, the blocking
connection pool, the single-flight caches, the session store, the
component container, and the threaded app server front end.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.appserver import ComponentContainer, ComponentDescriptor
from repro.caching import FragmentCache, UnitBeanCache
from repro.errors import ContainerError, DatabaseError
from repro.mvc import SessionStore
from repro.rdb import ConnectionPool, Database
from repro.services import UnitBean
from repro.util import ReadWriteLock


def run_threads(count: int, target, *args) -> list:
    """Run ``target(index, *args)`` on ``count`` threads; re-raise the
    first worker exception so failures are loud."""
    errors: list[BaseException] = []

    def wrapped(index: int) -> None:
        try:
            target(index, *args)
        except BaseException as exc:  # noqa: BLE001 — surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=wrapped, args=(i,)) for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return errors


class TestReadWriteLock:
    def test_readers_share_writers_exclude(self):
        lock = ReadWriteLock()
        peak_readers = [0]
        writer_overlap = []

        def reader(_index):
            with lock.read_locked():
                peak_readers[0] = max(peak_readers[0], lock.active_readers)
                if lock.held_by_writer():
                    writer_overlap.append(True)
                time.sleep(0.01)

        def writer(_index):
            with lock.write_locked():
                if lock.active_readers:
                    writer_overlap.append(True)
                time.sleep(0.005)

        run_threads(4, reader)
        run_threads(2, writer)
        threads = [threading.Thread(target=reader, args=(0,)) for _ in range(3)]
        threads += [threading.Thread(target=writer, args=(0,)) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert peak_readers[0] >= 2  # reads genuinely overlapped
        assert not writer_overlap   # writes never overlapped anything

    def test_write_reentrancy_and_read_under_write(self):
        lock = ReadWriteLock()
        with lock.write_locked():
            with lock.write_locked():      # a transaction's own statement
                with lock.read_locked():   # a query inside a transaction
                    assert lock.write_held_by_current_thread()

    def test_upgrade_refused(self):
        lock = ReadWriteLock()
        with lock.read_locked():
            with pytest.raises(RuntimeError, match="upgrade"):
                lock.acquire_write()


class _ParkingCondition(threading.Condition):
    """A condition that counts each thread parking in ``wait()``.  The
    count is taken under the condition's lock, which ``wait()`` gives
    up only as the thread parks — so a test that sees the count, then
    takes the lock for its next step, knows the thread is parked."""

    def __init__(self, lock) -> None:
        super().__init__(lock)
        self.parked = threading.Semaphore(0)

    def wait(self, timeout=None):
        self.parked.release()
        return super().wait(timeout)


#: a safety net for a broken primitive (the test fails instead of
#: hanging); no test waits for time to pass
HANG = 30.0


def _joined(thread: threading.Thread) -> None:
    thread.join(HANG)
    assert not thread.is_alive()


def _in_thread(target) -> tuple[threading.Thread, threading.Event]:
    """Start ``target`` on a thread; the event is set once it returns."""
    done = threading.Event()

    def run():
        target()
        done.set()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, done


class TestReadWriteLockHandshakes:
    """Writer preference and reentrancy, driven by events and the
    lock's own parking — no sleeps, no timing thresholds."""

    @staticmethod
    def _lock() -> ReadWriteLock:
        lock = ReadWriteLock()
        lock._cond = _ParkingCondition(lock._lock)
        return lock

    @staticmethod
    def _reader(lock):
        """A thread that takes the read side, reports, and releases once
        told; returns (thread, holding, release)."""
        holding, release = threading.Event(), threading.Event()

        def run():
            lock.acquire_read()
            holding.set()
            release.wait(HANG)
            lock.release_read()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        assert holding.wait(HANG)
        return thread, release

    def test_queued_writer_wakes_when_the_last_reader_leaves(self):
        lock = self._lock()
        first, release_first = self._reader(lock)
        second, release_second = self._reader(lock)
        writer, written = _in_thread(lambda: (lock.acquire_write(),
                                              lock.release_write()))
        assert lock._cond.parked.acquire(timeout=HANG)  # writer queued
        release_first.set()
        _joined(first)
        assert lock.active_readers == 1 and not written.is_set()
        release_second.set()
        assert written.wait(HANG)
        _joined(writer)
        assert lock.active_readers == 0 and not lock.held_by_writer()

    def test_new_reader_queues_behind_a_waiting_writer(self):
        lock = self._lock()
        holder, release_holder = self._reader(lock)
        order: list[str] = []
        writer_in, writer_release = threading.Event(), threading.Event()

        def write():
            lock.acquire_write()
            order.append("writer")
            writer_in.set()
            writer_release.wait(HANG)
            lock.release_write()

        def read():
            lock.acquire_read()
            order.append("reader")
            lock.release_read()

        writer, _ = _in_thread(write)
        assert lock._cond.parked.acquire(timeout=HANG)  # writer queued
        reader, read_done = _in_thread(read)
        assert lock._cond.parked.acquire(timeout=HANG)  # reader queued
        assert order == [] and lock.active_readers == 1
        release_holder.set()
        _joined(holder)
        assert writer_in.wait(HANG)  # the writer goes first ...
        assert order == ["writer"] and not read_done.is_set()
        writer_release.set()
        assert read_done.wait(HANG)  # ... then the queued reader
        assert order == ["writer", "reader"]
        _joined(writer)
        _joined(reader)

    def test_reentrant_read_under_a_waiting_writer(self):
        lock = self._lock()
        reentered, release = threading.Event(), threading.Event()
        writer_started = threading.Event()

        def read_twice():
            lock.acquire_read()
            writer_started.wait(HANG)
            assert lock._cond.parked.acquire(timeout=HANG)  # writer queued
            lock.acquire_read()  # must not queue behind the writer
            reentered.set()
            release.wait(HANG)
            lock.release_read()
            lock.release_read()

        reader, read_done = _in_thread(read_twice)
        writer, written = _in_thread(lambda: (writer_started.set(),
                                              lock.acquire_write(),
                                              lock.release_write()))
        assert reentered.wait(HANG)
        assert not written.is_set()
        release.set()
        assert read_done.wait(HANG) and written.wait(HANG)
        _joined(reader)
        _joined(writer)


class TestConnectionPoolHandshakes:
    """The pool's blocking, failing and gauge paths, driven by its own
    parking — no sleeps, no timing thresholds."""

    @staticmethod
    def _pool(size: int) -> ConnectionPool:
        pool = ConnectionPool(Database(), size=size)
        pool._cond = _ParkingCondition(pool._lock)
        return pool

    def test_blocked_acquirer_wakes_on_release(self):
        pool = self._pool(1)
        held = pool.acquire()
        got = []
        waiter, done = _in_thread(lambda: got.append(pool.acquire()))
        assert pool._cond.parked.acquire(timeout=HANG)
        assert not got and pool.in_use == 1
        held.close()
        assert done.wait(HANG)
        _joined(waiter)
        assert got == [held]  # the one connection, leased again
        stats = pool.wait_stats()
        assert stats["wait_count"] == 1 and stats["exhausted_failures"] == 0
        assert stats["in_use"] == 1

    def test_back_to_back_releases_wake_every_waiter(self):
        pool = self._pool(2)
        held = [pool.acquire(), pool.acquire()]
        got = []
        waiters = [_in_thread(lambda: got.append(pool.acquire()))
                   for _ in range(2)]
        for _ in waiters:
            assert pool._cond.parked.acquire(timeout=HANG)
        # back to back: the first release wakes one waiter, which
        # passes the wake-up on when it finds the second connection
        for connection in held:
            connection.close()
        for thread, done in waiters:
            assert done.wait(HANG)
            _joined(thread)
        assert sorted(map(id, got)) == sorted(map(id, held))
        assert pool.in_use == 2 and pool.wait_stats()["wait_count"] == 2

    def test_timeout_zero_fails_fast_and_counts(self):
        pool = self._pool(1)
        held = pool.acquire()
        with pytest.raises(DatabaseError, match="exhausted"):
            pool.acquire(timeout=0)
        stats = pool.wait_stats()
        assert stats["exhausted_failures"] == 1
        assert stats["wait_count"] == 1
        assert stats["in_use"] == 1
        held.close()
        pool.acquire(timeout=0).close()  # a free connection needs no wait
        assert pool.wait_stats()["exhausted_failures"] == 1

    def test_in_use_gauge_is_right_at_scrape_time(self):
        from repro.obs import Observability

        pool = self._pool(4)
        obs = Observability()
        pool.bind_observability(obs)

        def gauge() -> dict:
            return obs.metrics.snapshot()["gauges"]["rdb.pool.in_use"]

        leased = [pool.acquire() for _ in range(3)]
        assert gauge() == {"value": 3, "max": 3}
        leased.pop().close()
        leased.pop().close()
        assert gauge() == {"value": 1, "max": 3}
        leased.append(pool.acquire())
        assert gauge() == {"value": 2, "max": 3}
        for connection in leased:
            connection.close()
        assert gauge() == {"value": 0, "max": 3}
        assert pool.wait_stats()["peak_in_use"] == 3


class TestLockFastPathsUnderPreemption:
    """More threads than cores, the interpreter switching threads every
    microsecond: a lost wake-up hangs a worker (the join fails), a lost
    update breaks a count or the writer's pair invariant."""

    def test_pool_and_rwlock_lose_nothing(self):
        import sys

        pool = ConnectionPool(Database(), size=2)
        lock = ReadWriteLock()
        pair = [0, 0]  # written together under the write side
        torn = []
        rounds, workers = 300, 6

        def work(index):
            for i in range(rounds):
                connection = pool.acquire(timeout=HANG)
                try:
                    if (index + i) % 5 == 0:
                        with lock.write_locked():
                            pair[0] += 1
                            pair[1] += 1
                    else:
                        with lock.read_locked():
                            with lock.read_locked():  # reentrant
                                if pair[0] != pair[1]:
                                    torn.append(tuple(pair))
                finally:
                    connection.close()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(n,), daemon=True)
                       for n in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                _joined(thread)
        finally:
            sys.setswitchinterval(interval)
        assert not torn
        assert pair[0] == pair[1] == workers * rounds // 5
        stats = pool.wait_stats()
        assert stats["acquired_total"] == workers * rounds
        assert stats["in_use"] == 0 and stats["peak_in_use"] == 2
        assert lock.active_readers == 0 and not lock.held_by_writer()


@pytest.fixture
def counter_db() -> Database:
    db = Database()
    db.execute(
        "CREATE TABLE counter (oid INTEGER NOT NULL AUTOINCREMENT,"
        " n INTEGER NOT NULL, PRIMARY KEY (oid))"
    )
    db.insert_row("counter", {"n": 0})
    return db


class TestDatabaseConcurrency:
    def test_no_lost_updates(self, counter_db):
        """Read-modify-write UPDATEs from many threads never lose one."""
        increments_per_thread = 25
        workers = 4

        def bump(_index):
            for _ in range(increments_per_thread):
                counter_db.execute("UPDATE counter SET n = n + 1 WHERE oid = 1")

        run_threads(workers, bump)
        result = counter_db.query("SELECT n FROM counter WHERE oid = 1")
        assert result.scalar() == workers * increments_per_thread

    def test_transaction_is_all_or_nothing_to_readers(self, counter_db):
        """A reader never observes a transaction's intermediate state."""
        stop = threading.Event()
        torn_reads = []

        def writer(_index):
            for _ in range(20):
                with counter_db.transaction():
                    counter_db.execute(
                        "UPDATE counter SET n = n + 1 WHERE oid = 1"
                    )
                    counter_db.execute(
                        "UPDATE counter SET n = n + 1 WHERE oid = 1"
                    )
            stop.set()

        def reader(_index):
            while not stop.is_set():
                n = counter_db.query(
                    "SELECT n FROM counter WHERE oid = 1"
                ).scalar()
                if n % 2 != 0:  # both increments or neither
                    torn_reads.append(n)

        run_threads(3, lambda i: writer(i) if i == 0 else reader(i))
        assert not torn_reads
        final = counter_db.query("SELECT n FROM counter WHERE oid = 1").scalar()
        assert final == 40

    def test_last_insert_id_is_per_thread(self, counter_db):
        barrier = threading.Barrier(4)
        seen: dict[int, bool] = {}

        def insert(index):
            barrier.wait()
            row = counter_db.insert_row("counter", {"n": index})
            barrier.wait()  # everyone inserted before anyone checks
            seen[index] = counter_db.last_insert_id == row["oid"]

        run_threads(4, insert)
        assert all(seen.values()) and len(seen) == 4

    def test_select_counters_not_lost(self, counter_db):
        counter_db.stats.reset()
        per_thread = 50

        def read(_index):
            for _ in range(per_thread):
                counter_db.query("SELECT n FROM counter WHERE oid = 1")

        run_threads(4, read)
        assert counter_db.stats.selects == 4 * per_thread


class TestConnectionPoolBlocking:
    def test_acquire_blocks_until_release(self, counter_db):
        pool = ConnectionPool(counter_db, size=1)
        held = pool.acquire()
        acquired_after_wait = []

        def waiter(_index):
            connection = pool.acquire(timeout=5.0)
            acquired_after_wait.append(connection)
            connection.close()

        thread = threading.Thread(target=waiter, args=(0,))
        thread.start()
        time.sleep(0.05)  # the waiter is parked on the condition
        assert not acquired_after_wait
        held.close()
        thread.join(timeout=5.0)
        assert len(acquired_after_wait) == 1
        stats = pool.wait_stats()
        assert stats["wait_count"] == 1
        assert stats["total_wait_seconds"] > 0
        assert stats["exhausted_failures"] == 0

    def test_pool_under_contention_serves_everyone(self, counter_db):
        pool = ConnectionPool(counter_db, size=2)
        per_thread = 20

        def borrow(_index):
            for _ in range(per_thread):
                connection = pool.acquire(timeout=5.0)
                try:
                    connection.execute("SELECT n FROM counter WHERE oid = 1")
                finally:
                    connection.close()

        run_threads(6, borrow)
        assert pool.in_use == 0
        assert pool.acquired_total == 6 * per_thread
        assert pool.peak_in_use <= 2


class TestBeanCacheConcurrency:
    @staticmethod
    def _bean(i: int) -> UnitBean:
        return UnitBean(f"u{i}", f"unit {i}", "data")

    def test_single_flight_computes_once(self):
        cache = UnitBeanCache()
        computing = threading.Event()
        release = threading.Event()
        compute_calls = []

        def compute():
            compute_calls.append(1)
            computing.set()
            release.wait(5.0)
            return self._bean(1)

        results = []

        def request(_index):
            results.append(cache.get_or_compute("k", compute))

        threads = [threading.Thread(target=request, args=(i,)) for i in range(4)]
        threads[0].start()
        computing.wait(5.0)      # leader is inside compute()
        for thread in threads[1:]:
            thread.start()
        time.sleep(0.05)         # followers are parked on the flight event
        release.set()
        for thread in threads:
            thread.join(timeout=5.0)
        assert len(compute_calls) == 1
        assert len(results) == 4 and len({id(r) for r in results}) == 1
        assert cache.stats.coalesced >= 1

    def test_invalidation_during_compute_is_not_cached(self):
        """A bean computed from pre-invalidation data must not be served
        after the operation invalidated its dependencies."""
        cache = UnitBeanCache()
        in_compute = threading.Event()
        finish_compute = threading.Event()

        def compute():
            in_compute.set()
            finish_compute.wait(5.0)
            return self._bean(1)

        leader = threading.Thread(
            target=lambda: cache.get_or_compute(
                "k", compute, keys=("Book",)
            )
        )
        leader.start()
        in_compute.wait(5.0)
        cache.invalidate_writes(("Book",))  # the operation commits
        finish_compute.set()
        leader.join(timeout=5.0)
        assert cache.get("k") is None  # the stale bean was never stored

    def test_no_lost_stat_increments(self):
        cache = UnitBeanCache(max_entries=10_000)
        per_thread = 100
        workers = 4

        def churn(index):
            for i in range(per_thread):
                key = (index, i)
                cache.get(key)                    # one miss
                cache.put(key, self._bean(i))     # one put
                assert cache.get(key) is not None  # one hit

        run_threads(workers, churn)
        total = workers * per_thread
        assert cache.stats.misses == total
        assert cache.stats.puts == total
        assert cache.stats.hits == total
        assert cache.stats.lookups == 2 * total

    def test_concurrent_invalidation_and_puts_stay_consistent(self):
        cache = UnitBeanCache()
        rounds = 50

        def writer(_index):
            for _ in range(rounds):
                cache.invalidate_writes(("Book",))

        def putter(index):
            for i in range(rounds):
                cache.put((index, i), self._bean(i), keys=("Book",))

        run_threads(4, lambda i: writer(i) if i % 2 else putter(i))
        # after the dust settles the dependency index matches the entries
        assert cache.dependents_of("Book") == len(cache)


class TestFragmentCacheConcurrency:
    def test_single_flight_renders_once(self):
        cache = FragmentCache()
        calls = []
        gate = threading.Event()

        def render():
            calls.append(1)
            gate.wait(5.0)
            return "<div>once</div>"

        def request(_index):
            assert cache.get_or_render("frag", render) == "<div>once</div>"

        threads = [threading.Thread(target=request, args=(i,)) for i in range(4)]
        threads[0].start()
        time.sleep(0.05)
        for thread in threads[1:]:
            thread.start()
        time.sleep(0.05)
        gate.set()
        for thread in threads:
            thread.join(timeout=5.0)
        assert len(calls) == 1


class TestSessionStoreConcurrency:
    def test_concurrent_creation_yields_distinct_sessions(self):
        store = SessionStore()
        sessions = []
        lock = threading.Lock()

        def create(_index):
            for _ in range(50):
                session = store.get_or_create(None)
                with lock:
                    sessions.append(session.id)

        run_threads(4, create)
        assert len(sessions) == 200
        assert len(set(sessions)) == 200  # no id handed out twice
        assert len(store) == 200

    def test_same_id_resolves_to_one_session(self):
        store = SessionStore()
        resolved = []
        lock = threading.Lock()

        def resolve(_index):
            session = store.get_or_create("shared")
            with lock:
                resolved.append(session)

        run_threads(8, resolve)
        assert len({id(s) for s in resolved}) == 1


class _Component:
    def serve(self):
        return "ok"


class TestContainerConcurrency:
    def test_concurrent_invokes_respect_max_instances(self):
        """``max_instances`` invokes park inside ``serve``; one more
        fails fast, naming the cap, instead of waiting or creating a
        fourth instance."""
        cap = 3
        inside = threading.Barrier(cap + 1)
        release = threading.Event()

        class Parked:
            def serve(self):
                inside.wait(timeout=HANG)
                assert release.wait(timeout=HANG)
                return "ok"

        container = ComponentContainer()
        container.deploy(ComponentDescriptor(
            "svc", Parked, min_instances=0, max_instances=cap,
        ))
        results = []

        def client(_index):
            results.append(container.invoke("svc", "serve"))

        clients = threading.Thread(target=run_threads, args=(cap, client))
        clients.start()
        inside.wait(timeout=HANG)  # every instance is busy in serve
        try:
            assert container.pool_stats("svc")["busy"] == cap
            with pytest.raises(ContainerError,
                               match=r"'svc' at max instances \(3\)"):
                container.invoke("svc", "serve")
        finally:
            release.set()
            clients.join(timeout=HANG)
        assert not clients.is_alive()
        assert results == ["ok"] * cap
        stats = container.pool_stats("svc")
        assert stats["busy"] == 0
        assert stats["peak_resident"] == stats["created_total"] == cap
        assert container.invocations == cap

    def test_sweep_races_with_invokes(self):
        container = ComponentContainer()
        container.deploy(ComponentDescriptor(
            "svc", _Component, min_instances=1, max_instances=4,
            idle_timeout=0.0001,
        ))
        stop = threading.Event()

        def sweeper(_index):
            while not stop.is_set():
                container.sweep()

        def client(_index):
            for _ in range(20):
                container.invoke("svc", "serve")
            stop.set()

        run_threads(3, lambda i: sweeper(i) if i == 0 else client(i))
        stats = container.pool_stats("svc")
        assert stats["busy"] == 0
        assert stats["resident"] >= 0
