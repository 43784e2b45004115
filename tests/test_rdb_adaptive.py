"""Adaptive query execution: feedback, drift, hysteresis, identity.

The contract under test is the one DESIGN.md §16 states: the feedback
loop (``repro.rdb.adaptive``) may change plan *shape* — never answers.
A hypothesis oracle force-poisons the selectivity memory with extreme
corrections and holds every execution mode to byte-identical results;
unit tests pin the q-error window arithmetic, the hysteresis guards
(cooldown, replan budget) under an oscillating workload, ledger safety
under concurrent appends, growth-triggered auto-ANALYZE, and the
ANALYZE/column-store sync guard.
"""

from __future__ import annotations

import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdb import Database
from repro.rdb.adaptive import (
    MIN_OBSERVATIONS,
    WINDOW_SIZE,
    CardinalityFeedback,
    SelectivityMemory,
    q_error,
    scan_correction_keys,
)
from repro.rdb.executor import HashJoinOp, ScanOp
from repro.rdb.planner import PlannerFeatures


def _walk(node):
    stack = [node]
    while stack:
        op = stack.pop()
        yield op
        stack.extend(op.children())


def _catalogue() -> Database:
    """Small, NULL-bearing, indexed — the same adversarial shape the
    compile oracle uses, with statistics so corrections have a baseline
    to override."""
    db = Database()
    db.execute(
        "CREATE TABLE author (oid INTEGER NOT NULL AUTOINCREMENT,"
        " name VARCHAR(40) NOT NULL, age INTEGER, PRIMARY KEY (oid))"
    )
    db.execute(
        "CREATE TABLE book (oid INTEGER NOT NULL AUTOINCREMENT,"
        " author_oid INTEGER, year INTEGER, price FLOAT,"
        " title VARCHAR(80), PRIMARY KEY (oid))"
    )
    db.execute("CREATE INDEX ix_book_author ON book (author_oid)")
    db.execute("CREATE INDEX ix_book_year ON book (year)")
    for i in range(5):
        db.insert_row("author", {
            "name": f"author-{i}", "age": None if i % 2 else 30 + i,
        })
    for i in range(60):
        db.insert_row("book", {
            "author_oid": i % 4 + 1,
            "year": None if i % 7 == 3 else 1990 + i % 12,
            "price": None if i % 9 == 5 else 5.0 + (i % 16),
            "title": f"book-{i:02d}",
        })
    db.analyze()
    return db


# -- q-error and the per-plan ledger ----------------------------------------


def test_q_error_is_symmetric_and_floored():
    assert q_error(10, 10) == 1.0
    assert q_error(1, 100) == 100.0
    assert q_error(100, 1) == 100.0
    # the one-row floor: an empty result is not infinitely wrong
    assert q_error(5, 0) == 5.0
    assert q_error(0, 0) == 1.0


def test_window_median_is_robust_to_one_outlier():
    ledger = CardinalityFeedback("q")
    for q in (1.0, 1.1, 1.2, 500.0):
        ledger.record(10, 10, q)
    # median of {1.0, 1.1, 1.2, 500.0} is 1.2 — no drift
    assert ledger.window_q_error() == 1.2
    assert not ledger.drifted(4.0)


def test_drift_needs_minimum_observations():
    ledger = CardinalityFeedback("q")
    for _ in range(MIN_OBSERVATIONS - 1):
        ledger.record(1, 1000, 1000.0)
    assert not ledger.drifted(4.0)
    ledger.record(1, 1000, 1000.0)
    assert ledger.drifted(4.0)


def test_window_is_bounded_and_replan_clears_it():
    ledger = CardinalityFeedback("q")
    for i in range(WINDOW_SIZE * 3):
        ledger.record(1, i + 1, float(i + 1))
    assert len(ledger.window) == WINDOW_SIZE
    assert ledger.executions == WINDOW_SIZE * 3
    ledger.note_replanned(cooldown=5)
    assert len(ledger.window) == 0
    assert ledger.replans == 1
    assert ledger.cooldown == 5
    ledger.record(1, 1, 1.0)
    assert ledger.cooldown == 4  # each execution burns one


def test_ledger_survives_concurrent_appends():
    ledger = CardinalityFeedback("q")
    errors = []

    def hammer():
        try:
            for i in range(400):
                ledger.record(10, i, q_error(10, i))
                ledger.window_q_error()
        except Exception as exc:  # pragma: no cover - the failure mode
            errors.append(exc)

    threads = [threading.Thread(target=hammer) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    # lost updates are tolerated; corruption is not
    assert len(ledger.window) <= WINDOW_SIZE
    assert 0 < ledger.executions <= 8 * 400


def test_selectivity_memory_ewma_and_clamp():
    memory = SelectivityMemory()
    memory.observe("t", ("eq", "c"), 0.8)
    assert memory.selectivity("t", ("eq", "c")) == 0.8
    memory.observe("t", ("eq", "c"), 0.4)
    assert abs(memory.selectivity("t", ("eq", "c")) - 0.6) < 1e-9
    assert memory.selectivity("t", ("eq", "other")) is None
    memory.observe("t", ("eq", "wild"), 7.5)  # out-of-range observation
    assert memory.selectivity("t", ("eq", "wild")) <= 1.0
    assert memory.hits == 3
    assert memory.records == 3


# -- the end-to-end loop ----------------------------------------------------


def _skewed_sales(base: int = 300, hot: int = 1200) -> Database:
    db = Database()
    db.execute(
        "CREATE TABLE sale (oid INTEGER NOT NULL AUTOINCREMENT,"
        " region VARCHAR(20) NOT NULL, amount FLOAT NOT NULL,"
        " PRIMARY KEY (oid))"
    )
    db.execute("CREATE INDEX ix_sale_region ON sale (region)")
    for i in range(base):
        db.insert_row("sale", {"region": f"r-{i % 30:02d}",
                               "amount": float(i % 9)})
    db.analyze()
    for i in range(hot):
        db.insert_row("sale", {"region": "hot", "amount": float(i % 9)})
    return db


SALE_QUERY = ("SELECT region, COUNT(*) AS n, SUM(amount) AS s"
              " FROM sale WHERE region = :r GROUP BY region")


def test_drift_replans_once_and_answers_never_change():
    db = _skewed_sales()
    frozen = db.prepare(SALE_QUERY)
    seed = db.prepare(SALE_QUERY, mode="seed")
    assert "IndexLookup" in frozen.explain()

    results = [db.query(SALE_QUERY, {"r": "hot"}).as_tuples()
               for _ in range(10)]
    assert db.adaptive.counters["replans"] == 1
    assert db.adaptive.counters["reanalyzes"] >= 1
    # every execution — before, across, and after the replan — agrees
    assert all(r == results[0] for r in results)
    assert frozen.execute({"r": "hot"}).as_tuples() == results[0]
    assert seed.execute({"r": "hot"}).as_tuples() == results[0]

    replanned = db.prepare(SALE_QUERY)
    assert replanned is not frozen
    assert "SeqScan" in replanned.explain()


def test_oscillating_workload_is_bounded_by_cooldown_and_budget():
    db = _skewed_sales()
    adaptive = db.adaptive
    # tighten the loop so the test stays fast: aggressive drift, a
    # cooldown longer than the window refill (so suppression is
    # observable), tiny budget
    adaptive.q_error_threshold = 1.5
    adaptive.replan_cooldown = 10
    adaptive.max_replans = 2

    baseline = {}
    for round_no in range(40):
        param = "hot" if round_no % 2 else "r-01"
        got = db.query(SALE_QUERY, {"r": param}).as_tuples()
        baseline.setdefault(param, got)
        assert got == baseline[param]  # oscillation never changes answers
    counters = adaptive.counters
    assert counters["replans"] <= adaptive.max_replans
    assert counters["cooldown_suppressed"] >= 1
    assert counters["replan_budget_exhausted"] >= 1


def test_growth_triggers_auto_analyze_at_prepare():
    db = Database()
    db.execute(
        "CREATE TABLE t (oid INTEGER NOT NULL AUTOINCREMENT,"
        " v INTEGER NOT NULL, PRIMARY KEY (oid))"
    )
    for i in range(50):
        db.insert_row("t", {"v": i})
    db.analyze()
    store = db.tables["t"]
    assert store.statistics.row_count == 50
    for i in range(150):  # > GROWTH_DRIFT x the snapshot
        db.insert_row("t", {"v": i})
    db.prepare("SELECT v FROM t WHERE v = :v")
    assert db.adaptive.counters["growth_reanalyzes"] == 1
    assert store.statistics.row_count == 200
    # stable once refreshed: no re-ANALYZE churn on the next prepare
    db.prepare("SELECT v FROM t WHERE v < :v")
    assert db.adaptive.counters["growth_reanalyzes"] == 1


def test_analyze_syncs_pending_column_store_ops():
    """Regression: ANALYZE on a built ColumnStore must drain pending
    write-side ops before reading the column arrays, or statistics
    would describe a stale snapshot of the table."""
    db = _catalogue()
    # build the column store, then write *after* the build so the ops
    # sit in the pending queue
    db.prepare("SELECT title FROM book WHERE price > :lo",
               mode="columnar").execute({"lo": 0.0})
    store = db.tables["book"]
    assert store.column_store.built
    for i in range(40):
        db.insert_row("book", {
            "author_oid": 1, "year": 2030, "price": 99.5,
            "title": f"late-{i:02d}",
        })
    assert store.column_store.pending_ops() > 0
    db.analyze("book")
    stats = store.statistics
    assert stats.row_count == 100
    year = stats.columns["year"]
    assert year.maximum == 2030  # the pending rows are in the summary
    assert stats.columns["title"].distinct == 100


def test_explain_analyze_reports_actuals_and_q_error():
    db = _catalogue()
    sql = "SELECT title FROM book WHERE year = :y"
    plan = db.prepare(sql)
    assert "actual=" not in plan.explain(analyze=True)  # not yet executed
    plan.execute({"y": 1995})
    annotated = plan.explain(analyze=True)
    assert "actual=" in annotated
    assert "q=" in annotated
    assert "actual=" not in plan.explain()  # plain EXPLAIN is unchanged
    # the database-level entry point executes and annotates in one call
    assert "actual=" in db.explain(sql, {"y": 1995}, analyze=True)


def test_status_planner_section_lists_misestimates():
    db = _skewed_sales()
    for _ in range(3):
        db.query(SALE_QUERY, {"r": "hot"})
    stats = db.adaptive.stats()
    assert stats["observations"] == 3
    assert stats["tracked_plans"] == 1
    top = stats["top_misestimates"]
    assert top and top[0]["q_error_max"] > 4.0
    assert top[0]["actual"] == 1200
    assert db.observability_stats()["adaptive"] == db.adaptive.stats()


def test_planner_features_change_shape_not_answers():
    db = _catalogue()
    sql = ("SELECT a.name, b.title FROM author a"
           " JOIN book b ON b.author_oid = a.oid"
           " WHERE b.year = :y AND a.age IS NOT NULL ORDER BY b.oid")
    params = {"y": 1995}
    default = db.prepare(sql)
    want = default.execute(params).as_tuples()
    for features in (
        PlannerFeatures(join_reorder=False),
        PlannerFeatures(access_paths=False),
        PlannerFeatures(pushdown=False),
    ):
        variant = db.prepare(sql, features=features)
        assert variant.execute(params).as_tuples() == want
    # the access-path toggle really does pin the scan to sequential
    pinned = db.prepare(sql, features=PlannerFeatures(access_paths=False))
    assert "IndexLookup" not in pinned.explain()


# -- the poisoned-memory oracle ---------------------------------------------

_PREDICATES = [
    "b.price > :lo",
    "b.year BETWEEN 1995 AND 2000",
    "b.year IN (1991, 1995, :cut)",
    "b.price IS NULL",
    "b.title LIKE 'book-1%'",
    "b.year = 1995 OR b.price < :lo",
    "b.author_oid = 2",
    "b.year = :cut AND b.price > :lo",
]

_SHAPES = [
    "SELECT b.title, b.price FROM book b{where} ORDER BY b.oid",
    ("SELECT a.name, b.title FROM author a"
     " JOIN book b ON b.author_oid = a.oid{where} ORDER BY b.oid"),
    ("SELECT b.year AS y, COUNT(*) AS n, SUM(b.price) AS s"
     " FROM book b{where} GROUP BY b.year ORDER BY y"),
]

PARAMS = {"lo": 9.0, "cut": 1995}


class TestPoisonedMemoryOracle:
    """Force the worst possible corrections into the memory and prove
    replanned statements still return byte-identical results in every
    execution mode."""

    _db = None

    @classmethod
    def _database(cls):
        if cls._db is None:
            cls._db = _catalogue()
        return cls._db

    @given(
        shape=st.sampled_from(_SHAPES),
        conjuncts=st.lists(st.sampled_from(_PREDICATES), max_size=2,
                           unique=True),
        poison=st.sampled_from([1e-4, 0.5, 0.9999]),
    )
    @settings(max_examples=60, deadline=None)
    def test_extreme_corrections_never_change_results(
            self, shape, conjuncts, poison):
        db = self._database()
        where = " WHERE " + " AND ".join(conjuncts) if conjuncts else ""
        sql = shape.format(where=where)
        clean = db.prepare(sql)
        want = clean.execute(PARAMS)

        memory = db.adaptive.memory
        memory.clear()
        for node in _walk(clean.root):
            if isinstance(node, ScanOp):
                for table, key in scan_correction_keys(node):
                    memory.observe(table, key, poison)
            elif isinstance(node, HashJoinOp):
                memory.observe_join(
                    node.store.schema.name, node.build_columns,
                    1.0 if poison < 0.5 else 1e6,
                )
        try:
            # features=... forces an uncached rebuild that consults the
            # poisoned memory — the same path a drift replan takes
            poisoned = db.prepare(sql, features=PlannerFeatures())
            for plan in (
                poisoned,
                db.prepare(sql, mode="interpreted"),
                db.prepare(sql, mode="columnar"),
            ):
                got = plan.execute(PARAMS)
                assert got.columns == want.columns
                assert got.as_tuples() == want.as_tuples()
        finally:
            memory.clear()
