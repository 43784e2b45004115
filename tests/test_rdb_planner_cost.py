"""Cost-based planner coverage: ANALYZE statistics, access-path choice
(exact / range / IN-list index scans), greedy join reordering, pushdown,
EXPLAIN annotations, and a property-based oracle checking that the
optimized plan always returns exactly what the naive full-scan plan
returns."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdb import Database
from repro.rdb.executor import HashJoinOp, ScanOp
from repro.rdb.planner import PlannerFeatures, SelectPlan
from repro.rdb.sqlparser import parse_select


def _library() -> Database:
    """authors (small) / books (larger, skewed) with secondary indexes
    the way the er mapping lays out FK columns."""
    db = Database()
    db.execute(
        "CREATE TABLE author (oid INTEGER NOT NULL AUTOINCREMENT,"
        " name VARCHAR(40) NOT NULL, PRIMARY KEY (oid))"
    )
    db.execute(
        "CREATE TABLE book (oid INTEGER NOT NULL AUTOINCREMENT,"
        " author_oid INTEGER, year INTEGER, price FLOAT,"
        " title VARCHAR(80), PRIMARY KEY (oid))"
    )
    db.execute("CREATE INDEX ix_book_author ON book (author_oid)")
    db.execute("CREATE INDEX ix_book_year ON book (year)")
    for i in range(4):
        db.insert_row("author", {"name": f"author-{i}"})
    for i in range(40):
        db.insert_row("book", {
            "author_oid": (i % 4) + 1,
            "year": 1990 + (i % 20),
            "price": None if i % 10 == 9 else 5.0 + i,
            "title": f"book-{i:02d}",
        })
    db.stats.reset()
    return db


@pytest.fixture
def library() -> Database:
    return _library()


class TestAnalyze:
    def test_analyze_populates_statistics(self, library):
        library.execute("ANALYZE book")
        stats = library.statistics_for("book")
        assert stats.row_count == 40
        year = stats.column("year")
        assert year.distinct == 20
        assert (year.minimum, year.maximum) == (1990, 2009)
        price = stats.column("price")
        assert price.null_count == 4

    def test_analyze_all_tables(self, library):
        library.analyze()
        assert library.statistics_for("author") is not None
        assert library.statistics_for("book") is not None
        assert library.stats.analyzes == 1

    def test_analyze_unknown_table_fails(self, library):
        from repro.errors import SchemaError

        with pytest.raises(SchemaError):
            library.execute("ANALYZE nothere")

    def test_analyze_invalidates_only_its_table(self, library):
        library.query("SELECT title FROM book WHERE oid = 1")
        library.query("SELECT name FROM author WHERE oid = 1")
        assert library.cached_plan_count() == 2
        library.execute("ANALYZE book")
        assert library.cached_plan_count() == 1


class TestAccessPaths:
    def _root_scan(self, library, sql) -> ScanOp:
        plan = SelectPlan(parse_select(sql), library.tables)
        assert isinstance(plan.root, ScanOp)
        return plan.root

    def test_equality_uses_index(self, library):
        scan = self._root_scan(
            library, "SELECT title FROM book WHERE author_oid = 2"
        )
        assert scan.access.kind == "eq"
        assert scan.eq_columns == ("author_oid",)

    def test_between_uses_range_scan(self, library):
        scan = self._root_scan(
            library,
            "SELECT title FROM book WHERE year BETWEEN 1995 AND 1997",
        )
        assert scan.access.kind == "range"

    def test_inequalities_use_range_scan(self, library):
        scan = self._root_scan(
            library, "SELECT title FROM book WHERE year >= 2005"
        )
        assert scan.access.kind == "range"

    def test_in_list_uses_index_probes(self, library):
        scan = self._root_scan(
            library, "SELECT title FROM book WHERE author_oid IN (1, 3)"
        )
        assert scan.access.kind == "in"

    def test_unindexed_column_scans(self, library):
        scan = self._root_scan(
            library, "SELECT title FROM book WHERE price > 20"
        )
        assert scan.access.kind == "seq"

    @pytest.mark.parametrize("sql", [
        "SELECT title FROM book WHERE author_oid = 2",
        "SELECT title FROM book WHERE year BETWEEN 1995 AND 1997",
        "SELECT title FROM book WHERE year >= 2005",
        "SELECT title FROM book WHERE author_oid IN (1, 3)",
        "SELECT title FROM book WHERE year < 1993 OR author_oid = 4",
    ])
    def test_index_paths_match_full_scan(self, library, sql):
        optimized = library.prepare(sql).execute({})
        naive = library.prepare(sql, mode="seed").execute({})
        assert Counter(optimized.as_tuples()) == Counter(naive.as_tuples())

    def test_null_parameter_matches_nothing(self, library):
        rows = library.query(
            "SELECT title FROM book WHERE author_oid = :a", {"a": None}
        )
        assert len(rows) == 0

    def test_range_scan_skips_nulls(self, library):
        # price has NULLs and no index; year has an index: both agree
        # with three-valued logic (NULL never satisfies a range).
        rows = library.query("SELECT COUNT(*) AS n FROM book WHERE year > 0")
        assert rows.scalar() == 40


class TestScanIsPricedAsWhatItRuns:
    """The columnar sweep is an access path like any other: a scan's
    estimate is the batch price exactly when the scan sweeps column
    arrays, the row price exactly when it walks the heap — whatever
    tail or filter sits above it."""

    @staticmethod
    def _papers(rows: int) -> Database:
        db = Database()
        db.execute(
            "CREATE TABLE paper (oid INTEGER NOT NULL AUTOINCREMENT,"
            " title VARCHAR(80), pages INTEGER, PRIMARY KEY (oid))"
        )
        db.execute("CREATE INDEX ix_paper_pages ON paper (pages)")
        for i in range(rows):
            db.insert_row("paper", {"title": f"Paper {i % 7}", "pages": i})
        return db

    @pytest.mark.parametrize("rows, sql, options, kind", [
        # computed GROUP BY key: the row-grouped tail over a batch scan
        (3000, "SELECT UPPER(title), COUNT(*) FROM paper"
               " GROUP BY UPPER(title)", {}, "columnar"),
        # pushdown off: the scan sits under a Filter
        (3000, "SELECT title, COUNT(*) FROM paper WHERE title LIKE 'P%'"
               " GROUP BY title",
         {"features": PlannerFeatures(pushdown=False)}, "columnar"),
        # the pinned layout does not outbid an index
        (3000, "SELECT title FROM paper WHERE pages = 7",
         {"mode": "columnar"}, "eq"),
        # ... and is taken, at its own price, wherever the heap is walked
        (10, "SELECT title FROM paper WHERE title LIKE 'P%'",
         {"mode": "columnar"}, "columnar"),
        # ten rows do not repay the batch setup
        (10, "SELECT title FROM paper WHERE title LIKE 'P%'", {}, "seq"),
        (3000, "SELECT title FROM paper WHERE title LIKE 'P%'",
         {"mode": "compiled"}, "seq"),
    ])
    def test_estimate_follows_the_access_kind(self, rows, sql, options, kind):
        from repro.rdb import cost

        db = self._papers(rows)
        plan = db.prepare(sql, **options)
        (scan,) = [op for op in plan.operators if isinstance(op, ScanOp)]
        assert scan.access.kind == kind
        assert (scan.est_cost == cost.columnar_scan_cost(rows)) \
            == (kind == "columnar")
        assert (scan.est_cost == float(rows)) == (kind == "seq")
        assert (plan.exec_mode == "columnar") == (kind == "columnar")
        assert ("columnar:paper" in plan.access_summary()) \
            == (kind == "columnar")
        # and it runs: the batch scan feeds every tail the row scan does
        want = db.prepare(sql, mode="seed").execute().as_tuples()
        assert Counter(plan.execute().as_tuples()) == Counter(want)


class TestJoinReorderAndPushdown:
    def test_filtered_table_becomes_base(self, library):
        library.analyze()
        text = library.explain(
            "SELECT b.title FROM author a JOIN book b ON b.author_oid = a.oid"
            " WHERE b.year = 1999"
        )
        lines = text.splitlines()
        # The filtered book binding is scanned first (innermost line).
        assert "book AS b" in lines[-1]
        assert "HashJoin" in lines[0]

    def test_reordered_join_matches_declared_order(self, library):
        sql = (
            "SELECT a.name, b.title FROM author a"
            " JOIN book b ON b.author_oid = a.oid WHERE b.year < 1995"
        )
        optimized = library.prepare(sql).execute({})
        naive = library.prepare(sql, mode="seed").execute({})
        assert Counter(optimized.as_tuples()) == Counter(naive.as_tuples())

    def test_left_join_not_reordered(self, library):
        sql = (
            "SELECT a.name, b.title FROM author a"
            " LEFT JOIN book b ON b.author_oid = a.oid AND b.year = 1990"
        )
        plan = SelectPlan(parse_select(sql), library.tables)
        optimized = plan.execute({})
        naive = library.prepare(sql, mode="seed").execute({})
        assert Counter(optimized.as_tuples()) == Counter(naive.as_tuples())

    def test_explain_annotates_rows_cost_and_columns(self, library):
        library.analyze()
        text = library.explain(
            "SELECT title FROM book WHERE author_oid = 2"
        )
        assert "rows~" in text and "cost~" in text
        assert "cols=" in text
        # projection pushdown: only the referenced columns are needed
        assert "cols=author_oid,title" in text

    def test_plan_records_tables_read(self, library):
        plan = SelectPlan(parse_select(
            "SELECT b.title FROM author a JOIN book b ON b.author_oid = a.oid"
        ), library.tables)
        assert plan.tables == frozenset({"author", "book"})


class TestStatisticsImproveEstimates:
    def test_estimates_tighten_after_analyze(self, library):
        sql = "SELECT title FROM book WHERE year = 1990"
        before = SelectPlan(parse_select(sql), library.tables).root.est_rows
        library.analyze()
        after = SelectPlan(parse_select(sql), library.tables).root.est_rows
        # 40 rows, 20 distinct years → 2 expected; the default guess is
        # 10% of the table (4).
        assert after == pytest.approx(2.0)
        assert before != after


# -- property-based oracle ----------------------------------------------------

_PREDICATES = [
    "b.year = 1999",
    "b.year BETWEEN 1993 AND 2001",
    "b.year >= 2004",
    "b.year < 1992",
    "b.author_oid = 2",
    "b.author_oid IN (1, 4)",
    "b.price > 25",
    "b.price IS NULL",
    "b.title LIKE 'book-1%'",
    "b.year = 1991 OR b.author_oid = 3",
    "NOT (b.author_oid = 1)",
    "b.oid IN (3, 5, 7, 9)",
]

_JOIN_PREDICATES = [
    "a.name = 'author-2'",
    "a.oid > 1",
    "a.name LIKE 'author%'",
]


@st.composite
def _select_sql(draw) -> str:
    join = draw(st.booleans())
    menu = _PREDICATES + (_JOIN_PREDICATES if join else [])
    conjuncts = draw(st.lists(st.sampled_from(menu), max_size=3))
    if join:
        sql = ("SELECT a.name, b.title, b.year FROM author a"
               " JOIN book b ON b.author_oid = a.oid")
    else:
        sql = "SELECT b.title, b.year, b.price FROM book b"
    if conjuncts:
        sql += " WHERE " + " AND ".join(conjuncts)
    if draw(st.booleans()):
        sql += " ORDER BY b.oid"
    return sql


class TestOptimizerOracle:
    _db = None
    _analyzed = None

    @classmethod
    def _databases(cls):
        if cls._db is None:
            cls._db = _library()
            cls._analyzed = _library()
            cls._analyzed.analyze()
        return cls._db, cls._analyzed

    @given(sql=_select_sql())
    @settings(max_examples=80, deadline=None)
    def test_optimized_equals_full_scan(self, sql):
        plain, analyzed = self._databases()
        for db in (plain, analyzed):
            optimized = db.prepare(sql).execute({})
            naive = db.prepare(sql, mode="seed").execute({})
            assert optimized.columns == naive.columns
            if " ORDER BY " in sql:
                assert optimized.as_tuples() == naive.as_tuples()
            else:
                assert Counter(optimized.as_tuples()) == Counter(
                    naive.as_tuples()
                )
