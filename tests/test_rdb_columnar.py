"""Columnar batch execution: storage sync, layout choice, statistics.

The four-way *semantic* identity lives in the oracle suite
(``tests/test_rdb_compile_oracle.py``); this file covers the machinery
around it — the column store's lazy build and incremental sync, the
write-burst drop and tombstone compaction, recovery, the cost model's
row-vs-columnar decision, EXPLAIN/plan-cache/observability surfaces,
and the single-pass columnar ANALYZE path.
"""

from __future__ import annotations

import os
import tempfile

from repro.rdb import Database
from repro.rdb import columnar as columnar_mod
from repro.rdb.statistics import collect_statistics


def _seeded(rows: int = 200) -> Database:
    db = Database()
    db.execute(
        "CREATE TABLE item (oid INTEGER NOT NULL AUTOINCREMENT,"
        " label VARCHAR(40), kind VARCHAR(12), price FLOAT, n INTEGER,"
        " PRIMARY KEY (oid))"
    )
    kinds = ["alpha", "beta", "gamma", None]
    for i in range(rows):
        db.insert_row("item", {
            "label": f"item-{i:04d}",
            "kind": kinds[i % 4],
            "price": None if i % 11 == 7 else float(i % 50) + 0.5,
            "n": i % 9,
        })
    return db


SCAN = "SELECT label, price FROM item WHERE n > 4 ORDER BY oid"
AGG = ("SELECT kind, COUNT(*) AS c, SUM(n) AS s FROM item"
       " GROUP BY kind ORDER BY c DESC, kind")


class TestColumnStoreLifecycle:
    def test_lazy_build_and_incremental_sync(self):
        db = _seeded()
        store = db.table("item")
        assert not store.column_store.built  # no columnar scan yet
        plan = db.prepare(SCAN, mode="columnar")
        want = plan.execute().as_tuples()
        assert store.column_store.built
        assert store.column_store.counters["builds"] == 1
        # point writes land as pending ops, drained by the next scan
        db.insert_row("item", {"label": "item-new", "kind": "alpha",
                               "price": 1.5, "n": 8})
        db.execute("UPDATE item SET n = 0 WHERE label = 'item-0005'")
        db.execute("DELETE FROM item WHERE label = 'item-0013'")
        assert store.column_store.pending_ops() == 3
        got = plan.execute().as_tuples()
        assert store.column_store.pending_ops() == 0
        assert store.column_store.counters["builds"] == 1  # no rebuild
        row_path = db.prepare(SCAN, mode="compiled").execute().as_tuples()
        assert got == row_path
        assert got != want

    def test_write_burst_drops_the_store(self):
        db = _seeded(40)
        store = db.table("item")
        db.prepare(SCAN, mode="columnar").execute()
        assert store.column_store.built
        # a burst larger than the pending cap abandons chasing and
        # rebuilds lazily at the next scan
        for i in range(columnar_mod.MAX_PENDING_OPS + 10):
            db.insert_row("item", {"label": f"burst-{i}", "kind": "beta",
                                   "price": 2.0, "n": i % 9})
        assert not store.column_store.built
        assert store.column_store.counters["dropped_rebuilds"] == 1
        got = db.prepare(SCAN, mode="columnar").execute().as_tuples()
        assert got == db.prepare(SCAN, mode="compiled").execute().as_tuples()
        assert store.column_store.built

    def test_tombstone_compaction(self):
        db = _seeded(300)
        store = db.table("item")
        plan = db.prepare(SCAN, mode="columnar")
        plan.execute()
        db.delete_where("item", lambda row: row["n"] != 4)  # kill most rows
        got = plan.execute().as_tuples()
        assert got == db.prepare(SCAN, mode="compiled").execute().as_tuples()
        # dead positions dominated, so the sync compacted them away
        assert store.column_store.tombstones == 0
        assert store.column_store.counters["rebuilds"] >= 1

    def test_recovery_rebuilds_on_first_use(self):
        with tempfile.TemporaryDirectory() as path:
            directory = os.path.join(path, "db")
            with Database.open(directory) as db:
                db.execute(
                    "CREATE TABLE t (oid INTEGER NOT NULL AUTOINCREMENT,"
                    " v INTEGER, s VARCHAR(10), PRIMARY KEY (oid))"
                )
                for i in range(120):
                    db.insert_row("t", {"v": i, "s": f"s{i % 3}"})
                want = db.prepare(
                    "SELECT s, SUM(v) AS sv FROM t GROUP BY s ORDER BY s",
                    mode="columnar",
                ).execute().as_tuples()
            with Database.open(directory) as db:
                # recovery replays through the normal mutators; the
                # column store simply rebuilds on first columnar scan
                assert not db.table("t").column_store.built
                got = db.prepare(
                    "SELECT s, SUM(v) AS sv FROM t GROUP BY s ORDER BY s",
                    mode="columnar",
                ).execute().as_tuples()
                assert got == want
                assert db.table("t").column_store.built


class TestLayoutChoice:
    def test_cost_model_picks_columnar_for_wide_scans(self):
        db = _seeded(500)
        plan = db.prepare(SCAN)
        assert plan.exec_mode == "columnar"
        assert db.prepare(AGG).exec_mode == "columnar"

    def test_small_tables_stay_on_the_row_path(self):
        db = _seeded(30)
        assert db.prepare(SCAN).exec_mode == "compiled"

    def test_point_lookups_stay_on_the_row_path(self):
        db = _seeded(500)
        db.execute("CREATE INDEX ix_item_label ON item (label)")
        plan = db.prepare("SELECT price FROM item WHERE label = 'item-0007'")
        assert plan.exec_mode != "columnar"
        assert "IndexLookup" in plan.explain()

    def test_forced_columnar_on_ineligible_shape_stays_row(self):
        db = _seeded(500)
        db.execute(
            "CREATE TABLE other (oid INTEGER NOT NULL AUTOINCREMENT,"
            " n INTEGER, PRIMARY KEY (oid))"
        )
        plan = db.prepare(
            "SELECT i.label FROM item i JOIN other o ON o.n = i.n",
            mode="columnar",
        )
        assert "columnar" not in plan.access_summary()
        assert plan.exec_mode in ("compiled", "mixed")

    def test_explain_annotates_exec_columnar(self):
        db = _seeded(500)
        assert "exec=columnar" in db.explain(SCAN)

    def test_plan_cache_stores_the_columnar_plan(self):
        db = _seeded(500)
        first = db.prepare(SCAN)
        assert first.exec_mode == "columnar"
        assert db.prepare(SCAN) is first  # cache hit, pipeline included
        db.query(SCAN)
        assert db.stats.selects_columnar == 1


class TestColumnarObservability:
    def test_status_counters(self):
        db = _seeded(500)
        db.query(SCAN)
        db.query(AGG)
        stats = db.observability_stats()
        assert stats["selects_columnar"] == 2
        assert stats["plans_columnar"] == 2
        section = stats["columnar"]
        assert section["tables_built"] == 1
        assert section["scans"] == 2
        assert section["batches_scanned"] >= 2
        assert 0.0 <= section["dict_hit_ratio"] <= 1.0
        db.insert_row("item", {"label": "x", "kind": "beta",
                               "price": 1.0, "n": 1})
        assert db.observability_stats()["columnar"]["pending_ops"] == 1


class TestColumnarStatistics:
    def test_analyze_matches_row_path(self):
        db = _seeded(400)
        store = db.table("item")
        row_stats = collect_statistics(store)  # store not built yet
        db.prepare(SCAN, mode="columnar").execute()
        assert store.column_store.built
        column_stats = collect_statistics(store)
        assert column_stats == row_stats

    def test_analyze_matches_after_writes_and_deletes(self):
        db = _seeded(400)
        store = db.table("item")
        db.prepare(SCAN, mode="columnar").execute()
        db.execute("UPDATE item SET kind = NULL WHERE n = 3")
        db.execute("DELETE FROM item WHERE n = 7")
        db.insert_row("item", {"label": "late", "kind": "delta",
                               "price": 9.0, "n": 2})
        column_stats = collect_statistics(store)
        # force the row path by reading a fresh unbuilt clone of the data
        clone = _seeded(0).table("item")
        for row in store.rows.values():
            clone.insert_prepared(dict(row))
        row_stats = collect_statistics(clone)
        assert column_stats.row_count == row_stats.row_count
        assert column_stats.columns == row_stats.columns

    def test_analyze_statement_uses_columnar_store(self):
        db = _seeded(400)
        store = db.table("item")
        db.prepare(SCAN, mode="columnar").execute()
        db.execute("ANALYZE item")
        assert store.statistics is not None
        assert store.statistics.row_count == len(store.rows)
        assert store.statistics.column("kind").distinct == 3
        assert store.statistics.column("kind").null_count == 100
