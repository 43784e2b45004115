"""Property-based oracle for compiled and columnar query execution.

The compiler (``repro.rdb.compile``) and the columnar batch pipeline
(``repro.rdb.columnar``) must be *invisible*: for any query the planner
accepts, four executions of the same SQL have to agree byte-for-byte —
the columnar plan (``prepare(sql, mode="columnar")``), the compiled-row
plan, the same plan with compilation switched off
(``prepare(sql, mode="interpreted")``), and the seed interpreter
(``prepare(sql, mode="seed")``).  Hypothesis assembles random
projections, predicates, joins, groupings, and orderings over a
NULL-heavy catalogue and holds all four executions to that contract.
(The catalogue sits below the cost model's columnar threshold, so the
columnar mode is *forced* — the point is semantics, not the layout
decision, which ``tests/test_rdb_columnar.py`` covers.)
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QueryError
from repro.rdb import Database

#: parameters available to every generated query
PARAMS = {"lo": 12.0, "rate": 1.5, "needle": "book-1%", "cut": 1999,
          "word": "%ok-2%"}


def _catalogue(indexes: bool = True) -> Database:
    """Small but adversarial: every nullable column actually holds
    NULLs, strings share prefixes (LIKE edge cases), and numeric
    columns repeat values (grouping + ORDER BY ties)."""
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
    if indexes:
        db.execute("CREATE INDEX ix_book_author ON book (author_oid)")
        db.execute("CREATE INDEX ix_book_year ON book (year)")
    for i in range(5):
        db.insert_row("author", {
            "name": f"author-{i}", "age": None if i % 2 else 30 + i,
        })
    for i in range(48):
        db.insert_row("book", {
            # author 5 writes nothing: LEFT JOINs must pad with NULLs
            "author_oid": i % 4 + 1,
            "year": None if i % 7 == 3 else 1990 + i % 12,
            "price": None if i % 9 == 5 else 5.0 + (i % 16),
            "title": f"book-{i:02d}",
        })
    return db


#: single-table predicates over binding ``b`` — every compiler branch:
#: 3VL comparisons, arithmetic, LIKE, IN, BETWEEN, IS NULL, functions,
#: parameters, and NOT/OR nesting
_PREDICATES = [
    "b.price > :lo",
    "b.price * 2 + 1 < 40",
    "b.price - 1 <> b.year - 1985",
    "b.title LIKE 'book-1%'",
    "b.title LIKE :needle",
    "b.title NOT LIKE '%7'",
    # one matcher, every shape: contains (trigram-seeded where the batch
    # kernel runs), an inner %, _, ESCAPE, and runs too short to seed
    "b.title LIKE '%ook-3%'",
    "b.title LIKE :word",
    "b.title LIKE 'b%k-_1'",
    "b.title NOT LIKE 'book-_7'",
    "b.title LIKE 'book\\-1%' ESCAPE '\\'",
    "b.title LIKE '%k\\_1%' ESCAPE '\\'",
    "b.title LIKE '%4'",
    "b.title NOT LIKE '%1%'",
    "b.year BETWEEN 1995 AND 2000",
    "b.year NOT BETWEEN 1995 AND 2000",
    "b.year IN (1991, 1995, :cut)",
    "b.year NOT IN (1991, 1995)",
    "b.price IS NULL",
    "b.year IS NOT NULL",
    "NOT (b.year > 1996)",
    "b.year = 1995 OR b.price < :lo",
    "COALESCE(b.price, 0.0) > 10",
    "LENGTH(b.title) > 6 AND UPPER(b.title) LIKE 'BOOK%'",
]

_JOIN_PREDICATES = [
    "a.oid > 1",
    "a.name LIKE 'author%'",
    "a.age IS NOT NULL",
    "a.age + 1 > 32 OR b.price IS NULL",
]

_PROJECTIONS = [
    "b.title",
    "b.price",
    "b.year",
    "b.price * :rate AS px",
    "COALESCE(b.price, -1.0) AS cp",
    "CONCAT(b.title, '!') AS bang",
]

_ORDERINGS = [
    "",
    " ORDER BY b.oid",
    " ORDER BY b.price",            # NULL-heavy key
    " ORDER BY b.price DESC, b.title",
    " ORDER BY b.year DESC, b.oid",
]


@st.composite
def _select_sql(draw) -> str:
    shape = draw(st.sampled_from(["plain", "join", "left", "group"]))
    if shape == "group":
        having = draw(st.sampled_from(
            ["", " HAVING COUNT(*) > 3", " HAVING SUM(b.price) > 50"]
        ))
        order = draw(st.sampled_from(
            ["", " ORDER BY n DESC, y", " ORDER BY y"]
        ))
        sql = ("SELECT b.year AS y, COUNT(*) AS n, SUM(b.price) AS s,"
               " AVG(b.price) AS ap FROM book b")
        conjuncts = draw(st.lists(st.sampled_from(_PREDICATES), max_size=2))
        if conjuncts:
            sql += " WHERE " + " AND ".join(conjuncts)
        return sql + " GROUP BY b.year" + having + order
    menu = list(_PREDICATES)
    if shape == "plain":
        items = draw(st.lists(
            st.sampled_from(_PROJECTIONS), min_size=1, max_size=3,
            unique=True,
        ))
        sql = f"SELECT {', '.join(items)} FROM book b"
    elif shape == "join":
        menu += _JOIN_PREDICATES
        sql = ("SELECT a.name, b.title, b.price FROM author a"
               " JOIN book b ON b.author_oid = a.oid")
    else:
        menu += _JOIN_PREDICATES
        sql = ("SELECT a.name, b.title, b.year FROM author a"
               " LEFT JOIN book b ON b.author_oid = a.oid"
               " AND b.year > 1995")
    conjuncts = draw(st.lists(st.sampled_from(menu), max_size=3))
    if conjuncts:
        sql += " WHERE " + " AND ".join(conjuncts)
    sql += draw(st.sampled_from(_ORDERINGS)) if shape != "left" else ""
    if draw(st.booleans()):
        sql += " LIMIT 10"
    return sql


class TestCompiledOracle:
    _db = None
    _analyzed = None

    @classmethod
    def _databases(cls):
        # class-level reuse: building catalogues per example would
        # dominate the runtime; plans land in each db's own cache
        if cls._db is None:
            cls._db = _catalogue()
            cls._analyzed = _catalogue()
            cls._analyzed.analyze()
        return cls._db, cls._analyzed

    @given(sql=_select_sql())
    @settings(max_examples=120, deadline=None)
    def test_compiled_equals_interpreted(self, sql):
        for db in self._databases():
            compiled = db.prepare(sql)
            columnar = db.prepare(sql, mode="columnar")
            interpreted = db.prepare(sql, mode="interpreted")
            seed = db.prepare(sql, mode="seed")
            assert compiled.exec_mode in ("compiled", "mixed")
            assert interpreted.exec_mode == "interpreted"
            got = compiled.execute(PARAMS)
            want = interpreted.execute(PARAMS)
            assert got.columns == want.columns
            # same plan either way: identical rows in identical order
            assert got.as_tuples() == want.as_tuples()
            # the batch pipeline (when the plan shape allows it — joins
            # and index paths stay on the row engine) agrees exactly
            batch = columnar.execute(PARAMS)
            assert batch.columns == got.columns
            assert batch.as_tuples() == got.as_tuples()
            # the seed interpreter agrees — exactly when the ORDER BY
            # pins a total order (tie order is otherwise a plan detail,
            # and LIMIT over ties may keep different rows)
            naive = seed.execute(PARAMS)
            assert naive.columns == got.columns
            limited = sql.endswith(" LIMIT 10")
            base = sql[: -len(" LIMIT 10")] if limited else sql
            total_order = base.endswith(("b.oid", "b.title", "BY y", ", y"))
            if total_order:
                assert got.as_tuples() == naive.as_tuples()
            elif not limited:
                assert Counter(got.as_tuples()) == Counter(
                    naive.as_tuples()
                )
            else:
                assert len(got) == len(naive)


def _four_way(db: Database, sql: str, params: dict | None = None):
    """Execute ``sql`` in all four modes; returns the identical tuples
    (asserting the identity on the way)."""
    plans = [
        db.prepare(sql, mode="columnar"),
        db.prepare(sql),
        db.prepare(sql, mode="interpreted"),
        db.prepare(sql, mode="seed"),
    ]
    results = [plan.execute(params or {}) for plan in plans]
    for other in results[1:]:
        assert other.columns == results[0].columns
        assert other.as_tuples() == results[0].as_tuples()
    return results[0].as_tuples()


class TestFourWayEdges:
    """Deterministic four-way identities the random generator cannot
    guarantee to hit: empty tables and mid-transaction reads of
    uncommitted writes."""

    def test_empty_table(self):
        db = Database()
        db.execute(
            "CREATE TABLE t (oid INTEGER NOT NULL AUTOINCREMENT,"
            " name VARCHAR(20), n INTEGER, PRIMARY KEY (oid))"
        )
        assert _four_way(db, "SELECT name, n FROM t WHERE n > 3") == []
        # aggregates over an empty table still produce their one row
        assert _four_way(
            db, "SELECT COUNT(*), SUM(n), MIN(name) FROM t"
        ) == [(0, None, None)]
        assert _four_way(
            db, "SELECT name, COUNT(*) FROM t GROUP BY name"
        ) == []

    def test_mid_transaction_uncommitted_reads(self):
        db = _catalogue()
        sql = ("SELECT title, price FROM book b"
               " WHERE b.year IS NOT NULL AND b.price > :lo"
               " ORDER BY b.oid")
        agg = ("SELECT b.year AS y, COUNT(*) AS n, AVG(b.price) AS ap"
               " FROM book b GROUP BY b.year ORDER BY y")
        before = _four_way(db, sql, PARAMS)
        db.begin()
        try:
            db.execute("UPDATE book SET price = price + 100"
                       " WHERE year = 1995")
            db.insert_row("book", {
                "author_oid": 1, "year": 1995, "price": 77.0,
                "title": "book-tx",
            })
            db.execute("DELETE FROM book WHERE title = 'book-00'")
            # the transaction's own reads see its uncommitted writes,
            # identically in all four modes
            during = _four_way(db, sql, PARAMS)
            assert during != before
            _four_way(db, agg, PARAMS)
        finally:
            db.rollback()
        # rollback restores the pre-transaction answer in all modes
        assert _four_way(db, sql, PARAMS) == before
        _four_way(db, agg, PARAMS)


def _slot_callables(plan) -> list:
    """Every callable a plan's operators and tail run per row."""
    found = []
    stack = [plan.root]
    while stack:
        op = stack.pop()
        stack.extend(op.children())
        found.extend(
            fn for name, fn in vars(op).items()
            if name.endswith("_fn") and fn is not None
        )
    found.extend(
        fn for fn in (plan.emit_fn, plan.group_key_fn,
                      *plan.agg_arg_fns.values())
        if fn is not None
    )
    return found


def _generated(fn) -> bool:
    return fn.__code__.co_filename.startswith("<rdb-compiled:")


class TestReferenceModesStayInterpreted:
    """The oracle is only as good as its reference: ``interpreted`` and
    ``seed`` plans must hold interpreter closures in *every* slot, or
    the four-way identity would compare generated code with itself."""

    #: together these reach every slot kind: scan predicate, final
    #: filter, hash-join probe / build key / prefilter / residual,
    #: nested-loop condition + prefilter, group key, aggregate
    #: arguments, and both emit conventions
    QUERIES = [
        "SELECT b.title, b.price * 2 AS px FROM book b"
        " WHERE b.year = 1995 AND b.price > :lo ORDER BY px",
        "SELECT a.name, b.title FROM author a"
        " JOIN book b ON b.author_oid = a.oid AND b.price > a.age"
        " WHERE b.year > 1995 AND a.age IS NOT NULL",
        "SELECT a.name, b.title FROM author a"
        " LEFT JOIN book b ON b.price > a.age AND b.year > 2000"
        " WHERE a.oid > 1",
        "SELECT b.year AS y, COUNT(*) AS n, SUM(b.price + 1) AS s"
        " FROM book b WHERE b.title LIKE 'book-1%' GROUP BY b.year",
        "SELECT COUNT(*), MAX(b.price) FROM book b",
    ]

    @pytest.mark.parametrize("sql", QUERIES)
    def test_no_generated_source_in_reference_plans(self, sql):
        db = _catalogue()
        for mode in ("interpreted", "seed"):
            plan = db.prepare(sql, mode=mode)
            slots = _slot_callables(plan)
            assert slots and not any(_generated(fn) for fn in slots), mode
            assert plan.exec_mode == "interpreted"
            assert plan.compile_stats["compiled"] == 0
        # the detector is not vacuous: the default plan's slots are all
        # generated (the catalogue's expressions never fall back)
        default = db.prepare(sql)
        assert all(_generated(fn) for fn in _slot_callables(default))
        assert len(_slot_callables(default)) == len(
            _slot_callables(db.prepare(sql, mode="interpreted"))
        )


#: sort keys an index of ``_covered()`` serves — year and price repeat
#: and hold NULLs, (author_oid, year) is led by an equality column —
#: next to keys no index serves (top-N / sort either way)
_PAGED_ORDERINGS = [
    "b.year", "b.year DESC", "b.price", "b.price DESC", "b.oid DESC",
    "b.title", "b.year, b.price", "b.year DESC, b.title",
    "b.price * 2", "b.author_oid, b.year",
]
_PAGED_FILTERS = [
    "", " WHERE b.author_oid = 2", " WHERE b.author_oid = :a",
    " WHERE b.price > :lo", " WHERE b.year IS NOT NULL AND b.price < 15",
    " WHERE b.author_oid = 3 AND b.title LIKE 'book-1%'",
]


def _covered(indexes: bool) -> Database:
    db = _catalogue(indexes=indexes)
    if indexes:
        db.execute("CREATE INDEX ix_book_price ON book (price)")
        db.execute("CREATE INDEX ix_book_author_year ON book"
                   " (author_oid, year)")
    return db


@st.composite
def _paged_sql(draw):
    sql = ("SELECT b.oid, b.title, b.year, b.price FROM book b"
           + draw(st.sampled_from(_PAGED_FILTERS))
           + " ORDER BY " + draw(st.sampled_from(_PAGED_ORDERINGS)))
    window = draw(st.sampled_from(["none", "literal", "parameter"]))
    limit, offset = draw(st.integers(0, 9)), draw(st.integers(0, 50))
    if window == "literal":
        sql += f" LIMIT {limit} OFFSET {offset}"
    elif window == "parameter":
        sql += " LIMIT :n OFFSET :k"
    return sql, {**PARAMS, "a": 2, "n": limit, "k": offset}


class TestIndexedVersusUnindexed:
    """Tie order is part of byte identity.  The stable sort keeps heap-
    scan order among equal keys; an index walk must yield the rows of
    one key in exactly that order — so the four modes agree with each
    other *and* across the presence of an index, on duplicate-heavy and
    NULL-heavy keys, before and after a rollback moves rows in the
    heap."""

    _pair = None

    @classmethod
    def _databases(cls):
        if cls._pair is None:
            cls._pair = (_covered(True), _covered(False))
            for db in cls._pair:
                # a rolled-back delete re-inserts its rows at the end of
                # the heap: ties now break differently from row-id order
                db.begin()
                db.execute("DELETE FROM book WHERE year = 1995")
                db.execute("DELETE FROM book WHERE price IS NULL")
                db.rollback()
        return cls._pair

    @given(query=_paged_sql())
    @settings(max_examples=150, deadline=None)
    def test_index_does_not_change_the_answer(self, query):
        sql, params = query
        indexed, plain = self._databases()
        assert _four_way(indexed, sql, params) \
            == _four_way(plain, sql, params)

    def test_the_walk_is_actually_taken(self):
        indexed, plain = self._databases()
        for sql, line in [
            ("SELECT b.title FROM book b ORDER BY b.year DESC LIMIT 3",
             "IndexOrderScan(book AS b ON year DESC)"),
            ("SELECT b.title FROM book b WHERE b.author_oid = :a"
             " ORDER BY b.year LIMIT :n OFFSET :k",
             "IndexOrderScan(book AS b ON author_oid, year)"),
            ("SELECT b.title FROM book b ORDER BY b.price",
             "IndexOrderScan(book AS b ON price)"),
        ]:
            assert line in indexed.explain(sql)
            assert "Sort" not in indexed.explain(sql)
            assert "IndexOrderScan" not in plain.explain(sql)
        # an index longer than the sort key would tie by its extra
        # column, not by scan order: not an ordered path
        longer = _catalogue(indexes=False)
        longer.execute("CREATE INDEX ix_year_title ON book (year, title)")
        assert "IndexOrderScan" not in longer.explain(
            "SELECT b.title FROM book b ORDER BY b.year LIMIT 3")
        assert "IndexOrderScan" in longer.explain(
            "SELECT b.title FROM book b ORDER BY b.year, b.title LIMIT 3")

    def test_moved_rows_tie_where_the_heap_has_them(self):
        indexed, _plain = self._databases()
        rows = _four_way(
            indexed, "SELECT b.oid, b.year FROM book b ORDER BY b.year"
        )
        restored = [oid for oid, year in rows if year == 1995]
        # restored in reverse deletion order, and walked in that order
        assert restored == sorted(restored, reverse=True)

    def test_wrong_typed_probe_fails_like_the_scan(self):
        indexed, plain = self._databases()
        sql = ("SELECT b.title FROM book b WHERE b.author_oid = 'x'"
               " ORDER BY b.year LIMIT 2")
        for db in (indexed, plain):
            with pytest.raises(QueryError, match="cannot compare"):
                db.query(sql)
