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
        seed = library.prepare(sql, mode="seed")
        # the reference walks the heap: no index path answers for it
        assert "Index" not in seed.explain()
        assert "SeqScan(book" in seed.explain()
        naive = seed.execute({})
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

    def test_seed_plan_switches_every_decision_off(self, library):
        """``mode="seed"`` is the planner with reorder, access paths and
        pushdown off: the declared base, nothing pushed below the one
        final filter, interpreted closures and a full sort."""
        library.analyze()
        sql = ("SELECT a.name, b.title FROM author a"
               " JOIN book b ON b.author_oid = a.oid"
               " WHERE b.year = 1999 ORDER BY b.title LIMIT 3")
        seed = library.prepare(sql, mode="seed")
        text = seed.explain()
        assert [line.split("  [")[0].strip() for line in text.splitlines()] \
            == ["Limit(limit=3, offset=0)", "Sort(1 keys)", "Filter",
                "HashJoin(inner book AS b ON author_oid)",
                "SeqScan(author AS a)"], text
        assert "exec=interpreted" in text and "TopN" not in text
        scan, join = seed.root.child.left, seed.root.child
        assert scan.predicate is None and join.prefilter is None
        assert join.residual is None
        # the default plan takes all three decisions on the same statement
        default = library.prepare(sql).explain()
        assert "TopN" in default and "IndexLookup(book AS b" in default
        assert seed.execute({}).as_tuples() \
            == library.query(sql).as_tuples()

    def test_plan_records_tables_read(self, library):
        plan = SelectPlan(parse_select(
            "SELECT b.title FROM author a JOIN book b ON b.author_oid = a.oid"
        ), library.tables)
        assert plan.tables == frozenset({"author", "book"})


class TestDescriptorPlans:
    def test_every_descriptor_plan_matches_the_committed_digests(self):
        """``tests/golden/plan_digests.json`` was written by
        ``tools/plan_digests.py`` once index probes reported the
        conjuncts they prove (``proves=``) and unique probes dropped
        their sort (``unsorted=one-row``): every ACM / bookstore / Acer
        descriptor statement, in five data configurations, still gets
        the same EXPLAIN text."""
        import importlib.util
        import json
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        spec = importlib.util.spec_from_file_location(
            "plan_digests", root / "tools" / "plan_digests.py"
        )
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        golden = json.loads(
            (root / "tests" / "golden" / "plan_digests.json").read_text()
        )
        assert tool.first_difference(golden, tool.plan_digests()) is None


class TestColdPageStatements:
    """The five statements a cold Volume Page or Paper details request
    runs, as the request path plans them (no ANALYZE, the hierarchy's
    batched ``IN`` rewrite included): each probe shows what it proves,
    and ``Sort`` is gone exactly where a unique probe yields one row."""

    #: fragment of the cache key → EXPLAIN with estimates blanked
    EXPECTED = {
        "FROM volume t0 WHERE t0.oid = :oid":
            "IndexLookup(volume AS t0 ON oid)  [cols=oid,number,year,title"
            " proves=oid rows~ cost~ exec=compiled fused unsorted=one-row]",
        "FROM paper t0 WHERE t0.oid = :oid":
            "IndexLookup(paper AS t0 ON oid)  [cols=oid,title,abstract,pages"
            " proves=oid rows~ cost~ exec=compiled fused unsorted=one-row]",
        "FROM issue t0 WHERE t0.volume_to_issue_oid":
            "Sort(1 keys)\n"
            "  IndexLookup(issue AS t0 ON volume_to_issue_oid)"
            "  [cols=oid,number,volume_to_issue_oid"
            " proves=volume_to_issue_oid rows~ cost~ exec=compiled fused]",
        "__batch__:parent:":
            "Sort(1 keys)\n"
            "  IndexIn(paper AS t0 ON issue_to_paper_oid)"
            "  [cols=oid,title,issue_to_paper_oid"
            " proves=issue_to_paper_oid rows~ cost~ exec=compiled fused]",
        "FROM author t0 JOIN authorship r1":
            "Sort(1 keys)\n"
            "  HashJoin(inner author AS t0 ON oid)"
            "  [rows~ cost~ exec=compiled]\n"
            "    IndexLookup(authorship AS r1 ON paper_oid)"
            "  [cols=paper_oid,author_oid proves=paper_oid rows~ cost~]",
    }

    def test_explain_of_the_cold_page_statements(self):
        import re

        from repro.app import WebApplication
        from repro.workloads.acm import build_acm_model, seed_acm_data

        app = WebApplication(build_acm_model())
        oids = seed_acm_data(app, 8, 4, 8)
        view = app.model.find_site_view("public")
        for page, unit, oid in (
            ("Volume Page", "Volume data", oids["volumes"][3]),
            ("Paper details", "Paper data", oids["papers"][17]),
        ):
            slot = f"{view.find_page(page).unit(unit).id}.oid"
            assert app.get(app.page_url("public", page, {slot: oid})) \
                .status == 200
            # a malformed oid is a missing input, never a query error
            assert app.get(app.page_url("public", page, {slot: "abc"})) \
                .status == 200
        database = app.database
        plans = {}
        for fragment in self.EXPECTED:
            [key] = [k for k in database._plan_cache if fragment in k]
            plans[fragment] = re.sub(
                r"(rows|cost)~[\d.]+", r"\1~",
                database._plan_cache[key].explain(),
            )
        assert plans == self.EXPECTED
        assert len(database._plan_cache) == len(self.EXPECTED)


def _parents_and_children(parents: int, children: int,
                          db: Database | None = None) -> Database:
    """parent 1:N child, child N:M tag through the bridge child_tag,
    every FK declared and indexed the way the er mapping lays them
    out; never analyzed."""
    db = db if db is not None else Database()
    db.execute(
        "CREATE TABLE parent (oid INTEGER NOT NULL AUTOINCREMENT,"
        " name VARCHAR(20), PRIMARY KEY (oid))"
    )
    db.execute(
        "CREATE TABLE child (oid INTEGER NOT NULL AUTOINCREMENT,"
        " parent_oid INTEGER, title VARCHAR(20), PRIMARY KEY (oid),"
        " FOREIGN KEY (parent_oid) REFERENCES parent (oid))"
    )
    db.execute("CREATE INDEX ix_child_parent ON child (parent_oid)")
    db.execute(
        "CREATE TABLE tag (oid INTEGER NOT NULL AUTOINCREMENT,"
        " name VARCHAR(20), PRIMARY KEY (oid))"
    )
    db.execute(
        "CREATE TABLE child_tag (child_oid INTEGER NOT NULL,"
        " tag_oid INTEGER NOT NULL,"
        " FOREIGN KEY (child_oid) REFERENCES child (oid),"
        " FOREIGN KEY (tag_oid) REFERENCES tag (oid))"
    )
    db.execute("CREATE INDEX ix_child_tag_child ON child_tag (child_oid)")
    db.execute("CREATE INDEX ix_child_tag_tag ON child_tag (tag_oid)")
    db.begin()
    for i in range(parents):
        db.insert_row("parent", {"name": f"parent-{i}"})
    for i in range(children):
        db.insert_row("child", {"parent_oid": i % parents + 1,
                                "title": f"child-{i}"})
    db.commit()
    return db


class TestForeignKeysPriceTheirColumns:
    """Without ANALYZE, a single-column FK's distinct count is the
    referenced table's live row count, while it has rows."""

    BATCH = ("SELECT t0.oid, t0.title FROM child t0"
             " WHERE t0.parent_oid IN (:p0, :p1, :p2, :p3) ORDER BY t0.oid")

    def test_batched_in_list_probes_at_its_first_prepare(self):
        db = _parents_and_children(parents=100, children=2_000)
        assert db.table("child").statistics is None
        explain = db.prepare(self.BATCH).explain()
        assert explain.splitlines()[0] == "Sort(1 keys)", explain
        assert "IndexIn(child AS t0 ON parent_oid)" in explain, explain
        params = {"p0": 3, "p1": 17, "p2": 40, "p3": 99}
        assert db.query(self.BATCH, params).as_tuples() \
            == db.prepare(self.BATCH, mode="seed").execute(params).as_tuples()

    def test_recovery_resolves_the_foreign_keys_too(self, tmp_path):
        """A reopened database builds its stores by WAL replay, and
        after a checkpoint by snapshot load — not by create_table."""
        path = str(tmp_path)
        with Database.open(path) as db:
            _parents_and_children(parents=100, children=2_000, db=db)
            want = db.prepare(self.BATCH).explain()
        for _ in range(2):  # WAL replay, then the snapshot it wrote
            with Database.open(path) as db:
                assert db.prepare(self.BATCH).explain() == want
                db.checkpoint()

    @pytest.mark.parametrize("sql, probe", [
        ("SELECT t0.oid, t0.title FROM child t0"
         " WHERE t0.parent_oid = :p ORDER BY t0.oid",
         "IndexLookup(child AS t0 ON parent_oid)"),
        ("SELECT r1.tag_oid FROM child_tag r1 WHERE r1.child_oid = :c",
         "IndexLookup(child_tag AS r1 ON child_oid)"),
    ])
    def test_lookups_on_empty_tables_still_probe(self, sql, probe):
        """An empty referenced table says nothing about the column: the
        lookup keeps the fixed constant, not a distinct count of 1."""
        db = _parents_and_children(parents=0, children=0)
        assert probe in db.prepare(sql).explain()

    def test_join_planned_on_empty_tables_probes_the_bridge(self):
        """Every estimate prices an empty table at the same row count,
        so a join cached before the bulk load has the shape a fresh
        plan takes after it: the bridge probed on its FK, not every tag
        scanned."""
        sql = ("SELECT t0.oid, t0.name FROM tag t0"
               " JOIN child_tag r1 ON r1.tag_oid = t0.oid"
               " WHERE r1.child_oid = :c")
        db = _parents_and_children(parents=0, children=0)
        db.prepare(sql)  # cached while every table is empty
        db.begin()
        for i in range(2_000):
            db.insert_row("child", {"title": f"child-{i}"})
            db.insert_row("tag", {"name": f"tag-{i}"})
        for i in range(6_000):
            db.insert_row("child_tag", {"child_oid": i % 2_000 + 1,
                                        "tag_oid": i * 7 % 2_000 + 1})
        db.commit()
        cached = db.explain(sql, {"c": 5}, analyze=True)
        assert "IndexLookup(child_tag AS r1 ON child_oid)" in cached, cached
        assert "actual=3 scanned=3" in cached, cached

        def shape(text):
            return [line.split("  [")[0] for line in text.splitlines()]

        fresh = SelectPlan(parse_select(sql), db.tables).explain()
        assert shape(cached) == shape(fresh)


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


def _nullable_catalogue() -> Database:
    """Small, NULL-bearing, indexed, analyzed — the adversarial shape
    the compile oracle uses."""
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


def test_analyze_syncs_pending_column_store_ops():
    """ANALYZE on a table whose built column store has pending
    write-side ops describes the table as it is, not the store's last
    synced snapshot."""
    db = _nullable_catalogue()
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
    db = _nullable_catalogue()
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


def test_planner_features_change_shape_not_answers():
    db = _nullable_catalogue()
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
