"""E21 — WAL-shipping replication and the process-per-core fleet.

E13 measured the single-process ceiling: worker threads overlap their
I/O waits, but they still share one database write lock, and the
durability PR put the commit fsync *inside* it (the only ordering that
keeps group commit correct).  On realistic storage media an fsync is
milliseconds, and the lock is writer-preferring — so every commit
stalls every reader in the process.  The fleet dissolves that ceiling
architecturally: read traffic moves to worker processes that own
WAL-shipped replicas and never touch the primary's write lock.

Four probes:

1. **read throughput under write pressure** — the same read pool, the
   same continuous writer, the same wire protocol and client loop;
   the only variable is where reads execute: (a) one ThreadedAppServer
   socket sharing the primary's locks vs (b) a fleet of worker
   processes over replicas.  The fleet must sustain
   ≥ ``SCALING_FLOOR``× the baseline.  Commit fsync latency is
   simulated (``FSYNC_DELAY`` sleeps inside ``WriteAheadLog._sync``,
   exactly where a real disk would stall) the same way E13 models
   data-tier round trips with ``io_delay`` — container fsyncs complete
   in ~0.1 ms and would understate what the paper's hardware pays.
2. **replica identity oracle** — replaying any committed WAL prefix
   into a replica must be byte-identical (canonical snapshot bytes) to
   a fresh crash recovery of the same prefix.  Zero mismatches.
3. **staleness under LSN wait tokens** — every read that carries the
   write's LSN token must observe that write, on every worker, every
   time.  Zero stale reads.  (Unwaited reads are *allowed* to be
   stale; the probe records how often that actually happens.)
4. **failover/catch-up** — kill the replication server mid-stream,
   keep writing, restart it: the replica must reconnect and converge.

Run fast (CI smoke): ``REPRO_FAST=1 pytest benchmarks/bench_e21_replication.py``.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import threading
import time

from repro.app import WebApplication
from repro.appserver import ThreadedAppServer
from repro.appserver.fleet import FleetClient, FleetSupervisor
from repro.bench import ExperimentReport, save_report
from repro.mvc.http import HttpRequest
from repro.rdb import Database
from repro.rdb.replication import ReplicationClient, ReplicationServer, open_replica
from repro.rdb.snapshot import snapshot_bytes
from repro.rdb.wal import committed_prefix_boundaries, read_log
from repro.workloads.bookstore import (
    bean_content_renderer,
    build_bookstore_model,
    seed_bookstore,
)

FAST = bool(os.environ.get("REPRO_FAST"))

#: simulated commit fsync on realistic media (a 7200rpm disk pays
#: ~8 ms, consumer NVMe ~1-3 ms; the container overlay fs ~0.1 ms).
#: Sleeps inside WriteAheadLog._sync, i.e. inside the write lock —
#: exactly the stall a durable commit imposes on a shared process.
FSYNC_DELAY = 0.008
#: writer think time between commits: a busy but non-saturating write
#: stream whose commits hold the write lock most of the time
WRITE_THINK = 0.0015
FLEET_WORKERS = 2 if FAST else 4
CLIENT_THREADS = 4
MEASURE_SECONDS = 1.5 if FAST else 6.0
#: full-mode acceptance: the fleet at 4 workers at least doubles the
#: 4-thread shared-process baseline; CI smoke keeps a noise margin
SCALING_FLOOR = 1.3 if FAST else 2.0
IDENTITY_PREFIXES = 8 if FAST else 24
STALENESS_ROUNDS = 6 if FAST else 20

FACTORY = "repro.workloads.bookstore:build_bookstore_replica"

_RESULTS: dict = {}


def _detail_url(app, oid: int) -> str:
    page = app.model.find_site_view("shop").find_page("Book Page")
    return app.page_url("shop", "Book Page",
                        {f"{page.units[0].id}.oid": oid})


def _read_pool(app, oids) -> list[str]:
    pool = [app.page_url("shop", "Home"),
            app.page_url("shop", "Catalogue")]
    for book in oids["books"]:
        pool.append(_detail_url(app, book))
    return pool


def _slow_media(db: Database, delay: float = FSYNC_DELAY) -> None:
    """Make the WAL's fsync cost what realistic media costs."""
    wal = db.engine.wal
    original = wal._sync

    def slow_sync() -> None:
        original()
        time.sleep(delay)

    wal._sync = slow_sync


def _build_primary(base_dir: str) -> tuple[WebApplication, dict]:
    db = Database.open(os.path.join(base_dir, "primary"))
    app = WebApplication(build_bookstore_model(),
                         view_renderer=bean_content_renderer, database=db)
    oids = seed_bookstore(app)
    _slow_media(db)  # after seeding: only the measured writes pay it
    return app, oids


def _login(app) -> str:
    request = HttpRequest.from_url(app.operation_url(
        "backoffice", "Login", {"username": "clerk", "password": "books"}))
    app.handle(request)
    assert request.session_id is not None
    return request.session_id


class _Writer(threading.Thread):
    """A continuous write stream against the primary, via the full
    request path — identical in both scenarios, so the only variable
    is where the *reads* run."""

    def __init__(self, app, book_oid: int):
        super().__init__(daemon=True)
        self.app = app
        self.book_oid = book_oid
        self.session_id = _login(app)
        self.writes = 0
        self.stop_flag = threading.Event()

    def run(self) -> None:
        while not self.stop_flag.is_set():
            price = 50.0 + (self.writes % 1000)
            response = self.app.handle(HttpRequest.from_url(
                self.app.operation_url(
                    "backoffice", "Reprice",
                    {"oid": self.book_oid, "price": price}),
                session_id=self.session_id,
            ))
            assert response.status in (200, 302)
            self.writes += 1
            time.sleep(WRITE_THINK)

    def stop(self) -> int:
        self.stop_flag.set()
        self.join(timeout=30.0)
        return self.writes


def _timed_reads(read_one, seconds: float, threads: int) -> dict:
    """Hammer ``read_one(thread_index)`` from N threads for a fixed
    wall-clock window; returns counts and requests/sec."""
    counts = [0] * threads
    deadline = time.perf_counter() + seconds
    barrier = threading.Barrier(threads + 1)

    def loop(index: int) -> None:
        barrier.wait()
        while time.perf_counter() < deadline:
            read_one(index)
            counts[index] += 1

    pool = [threading.Thread(target=loop, args=(i,), daemon=True)
            for i in range(threads)]
    for thread in pool:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in pool:
        thread.join(timeout=seconds + 60.0)
    elapsed = time.perf_counter() - started
    total = sum(counts)
    return {"requests": total, "seconds": round(elapsed, 3),
            "rps": round(total / elapsed, 1)}


# -- probe 1: read throughput under write pressure ---------------------------


def test_e21_fleet_outscales_shared_process_under_writes():
    from repro.httpcore.client import WireClient

    base = tempfile.mkdtemp(prefix="e21-")
    try:
        # baseline: reads and writes share one process, one write lock;
        # reads arrive over the same wire protocol the fleet pays
        app, oids = _build_primary(os.path.join(base, "baseline"))
        pool = _read_pool(app, oids)
        writer = _Writer(app, oids["books"][0])
        with ThreadedAppServer(app, workers=CLIENT_THREADS) as server:
            address = server.listen()
            # sticky keep-alive connections, one per client thread —
            # listen() pins a worker slot per connection, so the client
            # count must not oversubscribe the slots
            connections = [WireClient(address).connect()
                           for _ in range(CLIENT_THREADS)]
            writer.start()

            def read_baseline(index: int) -> None:
                url = pool[index % len(pool)]
                response = connections[index].request(url)
                assert response.status == 200

            baseline = _timed_reads(
                read_baseline, MEASURE_SECONDS, CLIENT_THREADS)
            baseline["writes"] = writer.stop()
            for connection in connections:
                connection.close()
        app.close()

        # fleet: reads move to worker processes over replicas (each
        # client thread sticks to one worker, same connection shape)
        app, oids = _build_primary(os.path.join(base, "fleet"))
        pool = _read_pool(app, oids)
        with FleetSupervisor(app, FACTORY, workers=FLEET_WORKERS,
                             worker_threads=2, start_timeout=120.0) as sup:
            client = FleetClient(sup, read_your_writes=False)
            addresses = sup.worker_addresses
            writer = _Writer(app, oids["books"][0])
            writer.start()

            def read_fleet(index: int) -> None:
                response = client.read(
                    pool[index % len(pool)],
                    worker=addresses[index % len(addresses)])
                assert response.status == 200

            fleet = _timed_reads(read_fleet, MEASURE_SECONDS, CLIENT_THREADS)
            fleet["writes"] = writer.stop()
            fleet["max_lag"] = sup.status()["replication"]["max_lag"]
        app.close()
    finally:
        shutil.rmtree(base, ignore_errors=True)

    scaling = fleet["rps"] / baseline["rps"]
    _RESULTS["scaling"] = {
        "baseline": baseline, "fleet": fleet,
        "fleet_workers": FLEET_WORKERS, "ratio": round(scaling, 2),
    }
    assert fleet["writes"] > 0 and baseline["writes"] > 0
    assert scaling >= SCALING_FLOOR, (
        f"fleet read throughput only {scaling:.2f}x the shared-process "
        f"baseline ({fleet['rps']} vs {baseline['rps']} req/s)"
    )


# -- probe 2: replica identity oracle ----------------------------------------


def test_e21_replica_replay_is_byte_identical_to_recovery():
    base = tempfile.mkdtemp(prefix="e21-oracle-")
    try:
        data_dir = os.path.join(base, "primary")
        db = Database.open(data_dir)
        app = WebApplication(build_bookstore_model(), database=db)
        oids = seed_bookstore(app)
        session = _login(app)
        for step in range(6):
            app.handle(HttpRequest.from_url(
                app.operation_url("backoffice", "Reprice", {
                    "oid": oids["books"][step % len(oids["books"])],
                    "price": 10.0 + step}),
                session_id=session))
        wal_path = db.engine.wal_path
        records = list(read_log(wal_path))
        boundaries = committed_prefix_boundaries(wal_path)
        with open(wal_path, "rb") as handle:
            wal_bytes = handle.read()
        app.close()

        assert len(boundaries) == len(records) > 10
        step = max(1, len(boundaries) // IDENTITY_PREFIXES)
        checked = mismatches = 0
        replica = open_replica()
        position = 0
        for index, boundary in enumerate(boundaries):
            # stream the prefix into the long-lived replica as it grows
            while position <= index:
                replica.apply_replicated(records[position])
                position += 1
            if index % step and index != len(boundaries) - 1:
                continue
            # fresh crash recovery of exactly this prefix
            recovery_dir = os.path.join(base, f"recover-{index}")
            shutil.copytree(data_dir, recovery_dir)
            with open(os.path.join(recovery_dir, "wal.log"), "wb") as handle:
                handle.write(wal_bytes[:boundary])
            with Database.open(recovery_dir) as recovered:
                expected = snapshot_bytes(recovered.last_lsn,
                                          recovered.engine.tables)
            actual = snapshot_bytes(replica.last_lsn, replica.engine.tables)
            checked += 1
            if actual != expected:
                mismatches += 1
            shutil.rmtree(recovery_dir, ignore_errors=True)
    finally:
        shutil.rmtree(base, ignore_errors=True)

    _RESULTS["identity"] = {
        "records": len(records), "prefixes_checked": checked,
        "mismatches": mismatches,
    }
    assert checked >= min(IDENTITY_PREFIXES, len(boundaries)) // 2
    assert mismatches == 0


# -- probe 3: staleness under LSN wait tokens --------------------------------


def test_e21_lsn_tokens_eliminate_stale_reads():
    base = tempfile.mkdtemp(prefix="e21-stale-")
    try:
        app, oids = _build_primary(base)
        book = oids["books"][0]
        url = _detail_url(app, book)
        with FleetSupervisor(app, FACTORY, workers=2, worker_threads=2,
                             start_timeout=120.0) as sup:
            client = FleetClient(sup)
            client.write(app.operation_url(
                "backoffice", "Login",
                {"username": "clerk", "password": "books"}))
            waited_stale = unwaited_stale = waited = unwaited = 0
            for round_no in range(STALENESS_ROUNDS):
                price = 900.0 + round_no
                client.write(app.operation_url(
                    "backoffice", "Reprice",
                    {"oid": book, "price": price}))
                for address in sup.worker_addresses:
                    # unwaited first: it races replication on purpose
                    bare = FleetClient(sup, read_your_writes=False)
                    response = bare.read(url, worker=address)
                    served = json.loads(response.body)["Book"]["current"]
                    unwaited += 1
                    if float(served["price"]) != price:
                        unwaited_stale += 1
                    # token-gated read: must always see the write
                    response = client.read(url, worker=address)
                    assert response.status == 200
                    served = json.loads(response.body)["Book"]["current"]
                    waited += 1
                    if float(served["price"]) != price:
                        waited_stale += 1
        app.close()
    finally:
        shutil.rmtree(base, ignore_errors=True)

    _RESULTS["staleness"] = {
        "waited_reads": waited, "waited_stale": waited_stale,
        "unwaited_reads": unwaited, "unwaited_stale": unwaited_stale,
    }
    assert waited_stale == 0, (
        f"{waited_stale}/{waited} LSN-waited reads were stale"
    )


# -- probe 4: failover / catch-up --------------------------------------------


def test_e21_replica_reconnects_and_converges():
    base = tempfile.mkdtemp(prefix="e21-failover-")
    try:
        db = Database.open(os.path.join(base, "primary"))
        db.execute("CREATE TABLE t (oid INTEGER NOT NULL AUTOINCREMENT,"
                   " n INTEGER, PRIMARY KEY (oid))")
        server = ReplicationServer(db, poll_interval=0.01)
        host, port = server.start()
        replica = open_replica()
        client = ReplicationClient(replica, (host, port),
                                   reconnect_backoff=0.05).start()
        try:
            assert client.wait_for_bootstrap(timeout=30.0)
            db.insert_row("t", {"n": 1})
            assert client.wait_for_lsn(db.last_lsn, timeout=30.0)
            server.stop()  # the outage
            deadline = time.monotonic() + 30.0
            while client.connected and time.monotonic() < deadline:
                time.sleep(0.01)
            for n in range(2, 12):
                db.insert_row("t", {"n": n})
            server = ReplicationServer(db, host=host, port=port,
                                       poll_interval=0.01)
            server.start()
            converged = client.wait_for_lsn(db.last_lsn, timeout=30.0)
            identical = (
                snapshot_bytes(replica.last_lsn, replica.engine.tables)
                == snapshot_bytes(db.last_lsn, db.engine.tables)
            )
            stats = client.stats()
        finally:
            client.stop()
            server.stop()
            db.close()
    finally:
        shutil.rmtree(base, ignore_errors=True)

    _RESULTS["failover"] = {
        "converged": converged, "identical": identical,
        "reconnects": stats["reconnects"],
        "duplicates_skipped": stats["duplicates_skipped"],
    }
    assert converged and identical
    assert stats["reconnects"] >= 1
    assert stats["duplicates_skipped"] > 0  # at-least-once re-shipping


# -- the report --------------------------------------------------------------


def test_e21_report():
    probes = ("scaling", "identity", "staleness", "failover")
    if not all(key in _RESULTS for key in probes):
        import pytest

        pytest.skip("component measurements did not run")
    scaling = _RESULTS["scaling"]
    identity = _RESULTS["identity"]
    staleness = _RESULTS["staleness"]
    failover = _RESULTS["failover"]

    report = ExperimentReport(
        "E21", "WAL-shipping replication and the process fleet",
        "§1/§4 (multiplying tiers behind hard boundaries)",
    )
    report.add(
        "read req/s, shared process under writes", "the E13 ceiling",
        scaling["baseline"]["rps"],
        note=f"{scaling['baseline']['writes']} concurrent writes, "
             f"fsync {FSYNC_DELAY * 1e3:.0f} ms",
    )
    report.add(
        f"read req/s, {scaling['fleet_workers']}-worker fleet",
        ">= 2x the shared process", scaling["fleet"]["rps"],
        note=f"{scaling['fleet']['writes']} concurrent writes; "
             f"{scaling['ratio']}x",
    )
    report.add(
        "replica replay vs fresh recovery", "byte-identical",
        f"{identity.get('mismatches')} mismatches",
        note=f"{identity.get('prefixes_checked')} WAL prefixes, "
             f"{identity.get('records')} records",
    )
    report.add(
        "stale reads under LSN wait tokens", "0",
        staleness.get("waited_stale"),
        note=f"{staleness.get('waited_reads')} gated reads; unwaited "
             f"reads stale {staleness.get('unwaited_stale')}"
             f"/{staleness.get('unwaited_reads')} (allowed)",
    )
    report.add(
        "reconnect after primary restart", "converges",
        "converged" if failover.get("converged") else "DIVERGED",
        note=f"{failover.get('duplicates_skipped')} duplicate records "
             "skipped idempotently",
    )
    save_report(report, json_payload={
        "fast_mode": FAST,
        "fsync_delay_seconds": FSYNC_DELAY,
        "write_think_seconds": WRITE_THINK,
        "scaling_floor": SCALING_FLOOR,
        "scaling": scaling,
        "identity": identity,
        "staleness": staleness,
        "failover": failover,
    })
