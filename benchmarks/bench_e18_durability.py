"""E18 — durability: WAL + snapshot persistence and crash recovery.

The storage engine behind the rdb's logical layer can run *durable*
(``Database.open(path)``): every committed statement or transaction
appends one CRC-framed, typed commit record to a binary write-ahead
log and fsyncs before acknowledging; checkpoints write an atomic
point-in-time snapshot and truncate the log.  Recovery replays the
committed WAL suffix over the latest snapshot and discards any torn
tail.  This experiment measures the two promises that matter:

* **crash recovery oracle** — a recorded DML/DDL workload is cut at
  hundreds of byte offsets (frame boundaries *and* mid-record); each
  cut must recover to exactly the state after the longest committed
  prefix — zero lost committed transactions, zero resurrected
  uncommitted ones;
* **cost of durability** — write overhead of fsync-per-commit and of
  the deferred-fsync group-commit window against the in-memory
  engine, and the read path's p50 (reads never touch the WAL, so
  group commit must keep read-heavy p50 regression under 5%).

Results also land machine-readable in
``benchmarks/reports/BENCH_E18.json`` for the CI durability smoke.

Run fast (CI smoke): ``REPRO_FAST=1 pytest benchmarks/bench_e18_durability.py``.
"""

from __future__ import annotations

import bisect
import os
import random
import shutil
import statistics
import tempfile
import time

from repro.bench import ExperimentReport, save_report
from repro.rdb import Database
from repro.rdb.wal import MAGIC, committed_prefix_boundaries

FAST = bool(os.environ.get("REPRO_FAST"))

WORKLOAD_STEPS = 60 if FAST else 160
#: random mid-stream cuts on top of every frame boundary; the
#: acceptance bar is 200+ distinct truncation points at full scale
RANDOM_CUTS = 40 if FAST else 220
WRITE_ROWS = 150 if FAST else 1_200
READ_ROWS = 400 if FAST else 4_000
READ_ROUNDS = 60 if FAST else 300
#: reads never enter the engine's write path, so even the durable
#: engine's read p50 must stay within noise of the in-memory one
MAX_READ_P50_REGRESSION = 1.25 if FAST else 1.05

_RESULTS: dict[str, dict] = {}


def _fingerprint(db: Database) -> dict:
    """Canonical committed-visible state: rows and named indexes per
    table.  Auto-increment counters are deliberately excluded: a
    rolled-back transaction inflates the live counters but leaves no
    durable trace, so recovery may legitimately hand those never-
    committed values out again (statistics are likewise recomputed on
    recovery, not compared)."""
    state = {}
    for name, store in sorted(db.tables.items()):
        state[name] = (
            {row_id: dict(row) for row_id, row in store.rows.items()},
            sorted(n for n, _ in store.iter_indexes()
                   if not n.startswith("#")),
        )
    return state


def _recorded_workload(db: Database) -> list[dict]:
    """Drive a mixed DML/DDL workload; returns the fingerprint after
    every commit record, in commit order (via the commit stream)."""
    states: list[dict] = []
    db.commit_stream.subscribe(lambda event: states.append(_fingerprint(db)))
    rng = random.Random(7)
    db.execute(
        "CREATE TABLE item (oid INTEGER NOT NULL AUTOINCREMENT,"
        " name VARCHAR(80) NOT NULL, qty INTEGER, PRIMARY KEY (oid))"
    )
    live: list[int] = []
    for i in range(WORKLOAD_STEPS):
        toss = rng.random()
        if toss < 0.45 or not live:
            row = db.insert_row("item", {"name": f"item-{i}", "qty": i % 17})
            live.append(row["oid"])
        elif toss < 0.65:
            db.execute("UPDATE item SET qty = :q WHERE oid = :oid",
                       {"q": i, "oid": rng.choice(live)})
        elif toss < 0.78:
            oid = live.pop(rng.randrange(len(live)))
            db.execute("DELETE FROM item WHERE oid = :oid", {"oid": oid})
        elif toss < 0.90:
            # explicit multi-statement transaction: one commit record
            db.begin()
            first = db.insert_row("item", {"name": f"txn-{i}", "qty": i})
            db.execute("UPDATE item SET qty = qty + 1 WHERE oid = :oid",
                       {"oid": first["oid"]})
            if rng.random() < 0.3:
                db.rollback()  # must leave no trace in the log's effects
            else:
                db.commit()
                live.append(first["oid"])
        else:
            db.analyze("item")
    db.execute("CREATE INDEX ix_item_qty ON item (qty)")
    return states


def test_e18_crash_recovery_oracle(tmp_path=None):
    base = tempfile.mkdtemp(prefix="e18-oracle-")
    try:
        data_dir = os.path.join(base, "data")
        with Database.open(data_dir) as db:
            states = _recorded_workload(db)
            final_state = _fingerprint(db)
        wal_path = os.path.join(data_dir, "wal.log")
        with open(wal_path, "rb") as handle:
            wal_bytes = handle.read()
        boundaries = committed_prefix_boundaries(wal_path)
        assert len(boundaries) == len(states), \
            "one recorded fingerprint per committed WAL record"
        assert states[-1] == final_state

        # every frame boundary, plus random cuts anywhere in the file
        # (header, mid-frame, exactly-at-boundary duplicates included)
        rng = random.Random(13)
        cuts = set(boundaries)
        cuts.update(rng.randrange(0, len(wal_bytes) + 1)
                    for _ in range(RANDOM_CUTS))
        scratch = os.path.join(base, "scratch")
        exercised_torn = 0
        for cut in sorted(cuts):
            shutil.rmtree(scratch, ignore_errors=True)
            os.makedirs(scratch)
            with open(os.path.join(scratch, "wal.log"), "wb") as handle:
                handle.write(wal_bytes[:cut])
            committed = bisect.bisect_right(boundaries, cut)
            if cut not in boundaries and cut > len(MAGIC):
                exercised_torn += 1
            with Database.open(scratch) as recovered:
                expected = states[committed - 1] if committed else {}
                assert _fingerprint(recovered) == expected, \
                    f"cut at byte {cut}: {committed} committed records"
                stats = recovered.storage_stats()
                assert stats["recovery"]["wal_records_replayed"] == committed
                # the recovered engine accepts new commits (torn tail
                # was truncated, the log is appendable again) and never
                # hands out an oid that collides with a committed row
                if committed:
                    fresh = recovered.insert_row(
                        "item", {"name": "post-recovery", "qty": 0}
                    )
                    taken = {row["oid"]
                             for row in expected["item"][0].values()}
                    assert fresh["oid"] not in taken
            # reopen idempotence: recovery is a fixed point
            with Database.open(scratch) as again:
                replayed = again.storage_stats()["recovery"]
                assert replayed["wal_records_replayed"] == \
                    committed + (1 if committed else 0)
        _RESULTS["oracle"] = {
            "truncation_points": len(cuts),
            "frame_boundaries": len(boundaries),
            "torn_tail_cuts": exercised_torn,
            "committed_records": len(states),
            "lost_committed_transactions": 0,
        }
    finally:
        shutil.rmtree(base, ignore_errors=True)


def test_e18_recovery_matches_memory_replica():
    """Second oracle: full recovery equals an in-memory engine fed the
    identical workload — durability adds persistence, not semantics."""
    base = tempfile.mkdtemp(prefix="e18-replica-")
    try:
        with Database.open(os.path.join(base, "data")) as durable:
            _recorded_workload(durable)
            durable_state = _fingerprint(durable)
            durable_counters = {
                name: (store.auto_counter, store.next_row_id)
                for name, store in durable.tables.items()
            }
        with Database.open(os.path.join(base, "data")) as recovered:
            recovered_state = _fingerprint(recovered)
        memory = Database()
        _recorded_workload(memory)
        assert recovered_state == durable_state
        assert recovered_state == _fingerprint(memory)
        # the two *live* engines agree on counters too — divergence is
        # confined to what rollbacks allocated and recovery forgets
        assert durable_counters == {
            name: (store.auto_counter, store.next_row_id)
            for name, store in memory.tables.items()
        }
    finally:
        shutil.rmtree(base, ignore_errors=True)


def test_e18_checkpoint_bounds_replay():
    """A checkpoint truncates the log: reopening replays only the
    suffix, however long the history before it was."""
    base = tempfile.mkdtemp(prefix="e18-ckpt-")
    try:
        data_dir = os.path.join(base, "data")
        with Database.open(data_dir) as db:
            _recorded_workload(db)
            snapshot_bytes = db.checkpoint()
            assert snapshot_bytes > 0
            db.insert_row("item", {"name": "after-checkpoint", "qty": 1})
            state = _fingerprint(db)
        with Database.open(data_dir) as recovered:
            stats = recovered.storage_stats()["recovery"]
            assert stats["snapshot_loaded"] is True
            assert stats["wal_records_replayed"] == 1
            assert _fingerprint(recovered) == state
        _RESULTS["checkpoint"] = {
            "snapshot_bytes": snapshot_bytes,
            "records_replayed_after_checkpoint": 1,
        }
    finally:
        shutil.rmtree(base, ignore_errors=True)


def _insert_seconds(db: Database, rows: int) -> float:
    start = time.perf_counter()
    for i in range(rows):
        db.insert_row("item", {"name": f"w{i}", "qty": i % 11})
    return time.perf_counter() - start


_ITEM_DDL = (
    "CREATE TABLE item (oid INTEGER NOT NULL AUTOINCREMENT,"
    " name VARCHAR(80) NOT NULL, qty INTEGER, PRIMARY KEY (oid))"
)


def test_e18_write_overhead_and_group_commit():
    base = tempfile.mkdtemp(prefix="e18-write-")
    try:
        memory = Database()
        memory.execute(_ITEM_DDL)
        t_memory = _insert_seconds(memory, WRITE_ROWS)

        with Database.open(os.path.join(base, "sync")) as sync_db:
            sync_db.execute(_ITEM_DDL)
            t_sync = _insert_seconds(sync_db, WRITE_ROWS)
            sync_stats = sync_db.storage_stats()

        with Database.open(os.path.join(base, "group"),
                           group_commit_window=0.01) as group_db:
            group_db.execute(_ITEM_DDL)
            t_group = _insert_seconds(group_db, WRITE_ROWS)
            group_stats = group_db.storage_stats()

        # fsync-per-commit: one durability barrier per acknowledged
        # commit; the group window amortizes them across commits
        assert sync_stats["wal_fsyncs"] >= WRITE_ROWS
        assert group_stats["wal_fsyncs"] < sync_stats["wal_fsyncs"]
        assert group_stats["wal_records"] == sync_stats["wal_records"]
        _RESULTS["writes"] = {
            "rows": WRITE_ROWS,
            "memory_seconds": t_memory,
            "durable_fsync_seconds": t_sync,
            "durable_group_commit_seconds": t_group,
            "fsync_per_commit_fsyncs": sync_stats["wal_fsyncs"],
            "group_commit_fsyncs": group_stats["wal_fsyncs"],
            "wal_bytes": sync_stats["wal_bytes"],
        }
    finally:
        shutil.rmtree(base, ignore_errors=True)


def _read_p50(db: Database) -> float:
    plan = db.prepare(
        "SELECT name, qty FROM item WHERE qty > :lo ORDER BY qty"
    )
    times = []
    for _ in range(READ_ROUNDS):
        start = time.perf_counter()
        plan.execute({"lo": 3})
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def test_e18_read_p50_unaffected_by_durability():
    base = tempfile.mkdtemp(prefix="e18-read-")
    try:
        memory = Database()
        with Database.open(os.path.join(base, "data"),
                           group_commit_window=0.01) as durable:
            for db in (memory, durable):
                db.execute(_ITEM_DDL)
                for i in range(READ_ROWS):
                    db.insert_row("item", {"name": f"r{i}", "qty": i % 23})
                db.analyze("item")
            # interleave to share cache/thermal conditions; keep medians
            p50_memory = min(_read_p50(memory), _read_p50(memory))
            p50_durable = min(_read_p50(durable), _read_p50(durable))
        regression = p50_durable / p50_memory
        assert regression <= MAX_READ_P50_REGRESSION, \
            f"read p50 regressed {regression:.3f}x under durability"
        _RESULTS["reads"] = {
            "rows": READ_ROWS,
            "p50_memory_seconds": p50_memory,
            "p50_durable_seconds": p50_durable,
            "p50_regression": regression,
        }
    finally:
        shutil.rmtree(base, ignore_errors=True)


def test_e18_report():
    oracle = _RESULTS.get("oracle")
    writes = _RESULTS.get("writes")
    reads = _RESULTS.get("reads")
    if not (oracle and writes and reads):
        import pytest

        pytest.skip("component measurements did not run")

    report = ExperimentReport(
        "E18", "WAL + snapshot durability: crash recovery and the"
        " cost of fsync", "§1 (reliability of the generated runtime)",
    )
    report.add(
        "crash recovery",
        "no committed transaction lost",
        f"{oracle['truncation_points']} truncation points, 0 lost",
        note=f"{oracle['frame_boundaries']} frame boundaries,"
             f" {oracle['torn_tail_cuts']} torn-tail cuts",
    )
    report.add(
        "write overhead (fsync per commit)",
        "bounded by one fsync per commit",
        f"{writes['durable_fsync_seconds'] * 1e3:.1f} ms vs"
        f" {writes['memory_seconds'] * 1e3:.1f} ms in-memory",
        note=f"{writes['rows']} single-row commits,"
             f" {writes['fsync_per_commit_fsyncs']} fsyncs",
    )
    report.add(
        "group commit",
        "fewer barriers, same log",
        f"{writes['group_commit_fsyncs']} fsyncs for {writes['rows']}"
        f" commits",
        note=f"{writes['durable_group_commit_seconds'] * 1e3:.1f} ms"
             " with a 10 ms deferred-fsync window",
    )
    report.add(
        "read-heavy p50",
        "< 5% regression",
        f"{reads['p50_regression']:.3f}x",
        note="reads never enter the WAL path",
    )
    checkpoint = _RESULTS.get("checkpoint", {})
    if checkpoint:
        report.add(
            "checkpoint",
            "replay bounded by snapshot",
            f"{checkpoint['snapshot_bytes']} snapshot bytes,"
            f" {checkpoint['records_replayed_after_checkpoint']}"
            " record replayed",
        )
    save_report(report, json_payload={
        "fast_mode": FAST,
        "oracle": oracle,
        "writes": writes,
        "reads": reads,
        "checkpoint": checkpoint,
    })
