"""Differential oracle against stdlib ``sqlite3``: independent ground
truth for paging, counting, LIKE and join placement.

The four-way oracle compares the engine with itself (columnar /
compiled / interpreted / seed).  This one runs the same statement
through our engine and through SQLite over a mirrored copy of
``test_rdb_compile_oracle``'s NULL-heavy catalogue (``author`` and
``book``) — once with its secondary indexes and once without, so an
``ORDER BY`` meets both a covering index and none — and holds
``ORDER BY … LIMIT n OFFSET k`` (literal and ``:n`` / ``:k`` parameter
forms, with and without WHERE, duplicate and NULL sort keys) and bare /
filtered ``COUNT(*)`` to it.  ``LIKE`` / ``NOT LIKE`` / ``ESCAPE`` get
their own small table of adversarial strings (``TestLikeAgainstSqlite``).
``TestJoinsAgainstSqlite`` holds inner and LEFT joins over two and
three bindings (the third is ``book c``), with WHERE conjuncts from the
shared predicate menus, to SQLite — on an ANALYZEd copy as well, where
the planner reorders inner joins — and pins the two placement traps a
LEFT join sets: a WHERE conjunct on the null-padded side, and an inner
join keyed on a left-joined binding.  ``TestProbedOrderAgainstSqlite``
orders the rows of an ``IN`` / ``=`` index probe, ASC and DESC, over a
catalogue whose row-id order is not key order, with ties on a NOT NULL
non-unique column.  ``TestBetweenAgainstSqlite`` puts a NULL in each
bound position of ``[NOT] BETWEEN``, literal and parameter, through
every execution mode.

Comparison: as ordered lists where the ORDER BY is total (it names
``oid`` or the unique ``title``; a join is ordered by every binding's
``oid``); otherwise the *sort-key sequence* must be identical, every
tie group strictly inside the window must hold the same multiset of
rows in both engines, and the two boundary groups — where LIMIT /
OFFSET may legitimately cut different members of a tie — must be
sub-multisets of SQLite's unpaged tie group.  An unordered join answer
is compared as a multiset: row order there is a plan detail.

Decisions where SQL leaves room (written down, not papered over):

- **NULL placement.**  NULL is the smallest value: first under ASC,
  last under DESC.  SQLite does the same, so this is an agreement we
  assert, not a divergence we mask (PostgreSQL's default is the
  opposite; we follow SQLite and the seed).
- **Text vs number.**  SQLite orders every number before every text
  value (storage-class order).  We refuse: comparing across types
  raises :class:`~repro.errors.QueryError`, in ORDER BY as in WHERE.
  Columns are typed and coerced on the way in, so only an expression
  mixing types reaches this; the generator never builds one and
  ``test_text_vs_number_is_an_error`` pins the refusal.
- **LIMIT without ORDER BY.**  SQL promises no order; both engines
  happen to answer in insertion order.  We assert only what is
  promised — the row count, and that every row belongs to the
  unlimited answer — not which rows.
- **LIKE and letter case.**  Our LIKE is case-sensitive, like
  PostgreSQL's and the SQL standard's under a binary collation.
  SQLite's default folds ASCII case (``'a' LIKE 'A'`` is true there);
  every connection here runs ``PRAGMA case_sensitive_like = ON``, which
  is the behaviour we chose — the comparison is then exact, upper-case
  data included.  Escaping follows SQLite where the standard raises:
  after the ESCAPE character any character stands for itself, and a
  pattern *ending* in it matches nothing.
- **LIMIT / OFFSET values.**  SQLite reads a negative LIMIT as "no
  limit" and a negative OFFSET as 0; we raise ``QueryError`` for a
  negative or non-integer parameter, as the literal form already
  fails to parse.  Pinned in ``test_bad_limit_parameter_is_refused``.
- **Joins.**  No divergence: NULL never equi-matches, a LEFT join's
  ON conjuncts decide matching and its WHERE conjuncts filter the
  padded rows, in both engines (3 000 drawn join statements agreed
  when these cases were written).  Integer ``/`` never appears in the
  menus: ``7 / 2`` is 3.5 here and 3 in SQLite, decided (with the other
  expression-value divergences) in DESIGN §8 and pinned in
  ``test_rdb_sql_grammar.py``, which holds generated expressions to
  SQLite.
"""

from __future__ import annotations

import sqlite3
from collections import Counter
from itertools import groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QueryError
from repro.rdb import Database
from repro.rdb.planner import MODES
from tests.test_rdb_compile_oracle import (
    _JOIN_PREDICATES,
    _PREDICATES,
    _THIRD_PREDICATES,
    _THREE_WAY_JOINS,
    PARAMS,
    _catalogue,
    _shuffled,
)

_COLUMNS = ("oid", "author_oid", "year", "price", "title")
_SELECT = "SELECT " + ", ".join(f"b.{c}" for c in _COLUMNS) + " FROM book b"

#: predicates SQLite 3.40 spells the same way (everything in the shared
#: menu does: 3VL comparisons, LIKE with and without ESCAPE, IN,
#: BETWEEN, IS NULL, COALESCE / LENGTH / UPPER, named parameters)
_SQLITE_PREDICATES = list(_PREDICATES)

#: sort keys: year and price repeat and hold NULLs, author_oid repeats,
#: oid and title are unique (a total order when either is named)
_SORT_COLUMNS = ("year", "price", "author_oid", "title", "oid")
_UNIQUE = {"oid", "title"}


def _mirror(db) -> sqlite3.Connection:
    """A SQLite copy of ``db``'s author and book tables, row for row."""
    lite = sqlite3.connect(":memory:")
    lite.execute("PRAGMA case_sensitive_like = ON")
    lite.execute(
        "CREATE TABLE author (oid INTEGER PRIMARY KEY, name TEXT,"
        " age INTEGER)"
    )
    lite.execute(
        "CREATE TABLE book (oid INTEGER PRIMARY KEY, author_oid INTEGER,"
        " year INTEGER, price REAL, title TEXT)"
    )
    for table, width in (("author", 3), ("book", 5)):
        lite.executemany(
            f"INSERT INTO {table} VALUES ({', '.join('?' * width)})",
            db.query(f"SELECT * FROM {table}").as_tuples(),
        )
    return lite


@st.composite
def _where(draw) -> str:
    conjuncts = draw(st.lists(st.sampled_from(_SQLITE_PREDICATES),
                              max_size=2))
    return " WHERE " + " AND ".join(conjuncts) if conjuncts else ""


@st.composite
def _paged_query(draw):
    """(sql, params, order items) for one ORDER BY … LIMIT … OFFSET."""
    columns = draw(st.lists(st.sampled_from(_SORT_COLUMNS), min_size=1,
                            max_size=2, unique=True))
    order = [(c, draw(st.booleans())) for c in columns]
    clause = ", ".join(
        f"b.{c} {'DESC' if desc else 'ASC'}" for c, desc in order
    )
    limit = draw(st.integers(0, 12))
    offset = draw(st.integers(0, 60))  # the table holds 48 rows
    params = dict(PARAMS)
    if draw(st.booleans()):
        tail = " LIMIT :n OFFSET :k"
        params.update(n=limit, k=offset)
    else:
        tail = f" LIMIT {limit} OFFSET {offset}"
    sql = _SELECT + draw(_where()) + " ORDER BY " + clause
    return sql, tail, params, order


def _sort_key(row: tuple, order) -> tuple:
    return tuple(row[_COLUMNS.index(column)] for column, _desc in order)


def _groups(rows: list[tuple], order) -> list[tuple[tuple, Counter]]:
    return [
        (key, Counter(members))
        for key, members in groupby(rows, lambda r: _sort_key(r, order))
    ]


class TestSqliteOracle:
    _pairs = None

    @classmethod
    def _databases(cls):
        # built once: with the catalogue's secondary indexes (year is a
        # covering sort index) and with none at all
        if cls._pairs is None:
            cls._pairs = []
            for indexes in (True, False):
                db = _catalogue(indexes=indexes)
                cls._pairs.append((db, _mirror(db)))
        return cls._pairs

    @given(query=_paged_query())
    @settings(max_examples=150, deadline=None)
    def test_order_by_limit_offset(self, query):
        sql, tail, params, order = query
        for db, lite in self._databases():
            got = db.query(sql + tail, params).as_tuples()
            want = lite.execute(sql + tail, params).fetchall()
            if _UNIQUE & {column for column, _desc in order}:
                assert got == want
                continue
            ours, theirs = _groups(got, order), _groups(want, order)
            assert [k for k, _ in ours] == [k for k, _ in theirs]
            assert ours[1:-1] == theirs[1:-1]
            unpaged = dict(_groups(lite.execute(sql, params).fetchall(),
                                   order))
            for key, members in ours[:1] + ours[-1:]:
                assert members <= unpaged[key]

    @given(where=_where())
    @settings(max_examples=60, deadline=None)
    def test_count_star(self, where):
        sql = "SELECT COUNT(*) FROM book b" + where
        for db, lite in self._databases():
            assert db.query(sql, PARAMS).scalar() \
                == lite.execute(sql, PARAMS).fetchone()[0]

    @given(where=_where(), limit=st.integers(0, 60))
    @settings(max_examples=40, deadline=None)
    def test_limit_without_order_promises_only_a_count(self, where, limit):
        sql = _SELECT + where
        for db, lite in self._databases():
            got = db.query(f"{sql} LIMIT {limit}", PARAMS).as_tuples()
            want = lite.execute(f"{sql} LIMIT {limit}", PARAMS).fetchall()
            assert len(got) == len(want)
            assert Counter(got) <= Counter(lite.execute(sql, PARAMS))

    def test_text_vs_number_is_an_error(self):
        db, lite = self._databases()[0]
        sql = ("SELECT b.oid FROM book b ORDER BY"
               " COALESCE(b.year, b.title) LIMIT 3")
        assert len(lite.execute(sql).fetchall()) == 3  # numbers, then text
        with pytest.raises(QueryError, match="cannot compare"):
            db.query(sql)

    @pytest.mark.parametrize("params", [
        {"n": -1, "k": 0}, {"n": 2, "k": -3}, {"n": 2.0, "k": 0},
        {"n": "2", "k": 0}, {"n": True, "k": 0}, {"n": None, "k": 0},
        {"n": 2},
    ])
    def test_bad_limit_parameter_is_refused(self, params):
        sql = _SELECT + " ORDER BY b.year LIMIT :n OFFSET :k"
        for db, _lite in self._databases():
            with pytest.raises(QueryError):
                db.query(sql, params)


#: two bindings, inner and LEFT (with an ON conjunct local to the
#: joined side); three bindings, every inner / LEFT combination — the
#: third binding is always ``book c``
_TWO_WAY_JOINS = [
    " JOIN book b ON b.author_oid = a.oid",
    " LEFT JOIN book b ON b.author_oid = a.oid",
    " LEFT JOIN book b ON b.author_oid = a.oid AND b.year > 1995",
]
_THREE_WAY = list(_THREE_WAY_JOINS) + [
    " JOIN book b ON b.author_oid = a.oid"
    " JOIN book c ON c.author_oid = b.author_oid AND c.oid < b.oid",
    " LEFT JOIN book b ON b.author_oid = a.oid AND b.year > 1995"
    " LEFT JOIN book c ON c.oid = b.oid + 1 AND c.price > b.price",
]


@st.composite
def _join_query(draw):
    """(sql, total): a 2- or 3-binding join with WHERE conjuncts drawn
    from the shared menus, ordered by every binding's oid or not at
    all."""
    if draw(st.booleans()):
        joins, menu = draw(st.sampled_from(_TWO_WAY_JOINS)), []
        columns, keys = "a.oid, a.name, b.oid, b.title, b.price", "a.oid, b.oid"
    else:
        joins, menu = draw(st.sampled_from(_THREE_WAY)), _THIRD_PREDICATES
        columns = "a.oid, a.name, b.oid, b.title, c.oid, c.price"
        keys = "a.oid, b.oid, c.oid"
    menu = _PREDICATES + _JOIN_PREDICATES + menu
    conjuncts = draw(st.lists(st.sampled_from(menu), max_size=3))
    sql = f"SELECT {columns} FROM author a{joins}"
    if conjuncts:
        sql += " WHERE " + " AND ".join(conjuncts)
    total = draw(st.booleans())
    return (sql + f" ORDER BY {keys}" if total else sql), total


class TestJoinsAgainstSqlite:
    """Inner and LEFT joins over two and three bindings, on indexed,
    unindexed and ANALYZEd copies of the catalogue (the planner's join
    order and pushdown differ between them; the answer may not)."""

    _pairs = None

    @classmethod
    def _databases(cls):
        if cls._pairs is None:
            analyzed = _catalogue()
            analyzed.analyze()
            cls._pairs = [
                (db, _mirror(db))
                for db in (_catalogue(), _catalogue(indexes=False), analyzed)
            ]
        return cls._pairs

    @given(query=_join_query())
    @settings(max_examples=150, deadline=None)
    def test_joins(self, query):
        sql, total = query
        for db, lite in self._databases():
            got = db.query(sql, PARAMS).as_tuples()
            want = lite.execute(sql, PARAMS).fetchall()
            if total:
                assert got == want, sql
            else:
                assert Counter(got) == Counter(want), sql

    def _agree(self, sql: str) -> Counter:
        answers = [
            (Counter(db.query(sql, PARAMS).as_tuples()),
             Counter(lite.execute(sql, PARAMS).fetchall()))
            for db, lite in self._databases()
        ]
        for got, want in answers:
            assert got == want, sql
        return answers[0][0]

    def test_where_on_the_null_padded_side_sees_the_padding(self):
        """A WHERE conjunct over a left-joined binding filters the
        joined rows; pushed into the join it would pad instead."""
        left = ("SELECT a.oid, b.oid, b.price FROM author a"
                " LEFT JOIN book b ON b.author_oid = a.oid AND b.year > 1995")
        padded = self._agree(left + " WHERE b.oid IS NULL")
        assert (5, None, None) in padded  # author 5 writes nothing
        priced = self._agree(left + " WHERE b.price > :lo")
        assert priced and all(price > PARAMS["lo"]
                              for _a, _b, price in priced)

    def test_inner_join_keyed_on_a_left_joined_binding(self):
        """An inner join after a LEFT join, keyed on the left-joined
        binding: the padded rows find no partner and drop."""
        rows = self._agree(
            "SELECT a.oid, b.oid, c.oid FROM author a"
            " LEFT JOIN book b ON b.author_oid = a.oid AND b.year > 1995"
            " JOIN book c ON c.oid = b.oid"
        )
        assert rows and all(b == c and b is not None for _a, b, c in rows)
        assert 5 not in {a for a, _b, _c in rows}


_ITEM_COLUMNS = ("oid", "grp", "name", "year")


def _mirror_items(db) -> sqlite3.Connection:
    """A SQLite copy of ``_shuffled``'s item table, in our heap order."""
    lite = sqlite3.connect(":memory:")
    lite.execute("CREATE TABLE item (oid INTEGER PRIMARY KEY,"
                 " grp INTEGER NOT NULL, name TEXT NOT NULL, year INTEGER)")
    lite.executemany("INSERT INTO item VALUES (?, ?, ?, ?)",
                     db.query("SELECT * FROM item").as_tuples())
    return lite


@st.composite
def _probed_order_query(draw):
    """(sql, order): a same-typed ``IN`` (or ``=``) probe on an indexed,
    a primary-key or a nullable column, ordered ASC or DESC by one or
    two keys — ``grp`` and ``name`` repeat (NOT NULL ties), ``year``
    repeats with NULLs — optionally paged."""
    column = draw(st.sampled_from(["oid", "grp", "year"]))
    members = draw(st.lists(st.integers(0, 55), min_size=1, max_size=5))
    if column == "year":
        members = [2000 + member % 5 for member in members]
    if len(members) == 1 and draw(st.booleans()):
        where = f"{column} = {members[0]}"
    else:
        where = f"{column} IN ({', '.join(map(str, members))})"
    keys = draw(st.lists(st.sampled_from(_ITEM_COLUMNS), min_size=1,
                         max_size=2, unique=True))
    descending, mixed = draw(st.booleans()), draw(st.booleans())
    order = [(key, draw(st.booleans()) if mixed else descending)
             for key in keys]
    window = draw(st.sampled_from(["", " LIMIT 4", " LIMIT 3 OFFSET 2"]))
    clause = ", ".join(f"{key} {'DESC' if desc else 'ASC'}"
                       for key, desc in order)
    return (f"SELECT oid, grp, name, year FROM item WHERE {where}"
            f" ORDER BY {clause}", window, order)


class TestProbedOrderAgainstSqlite:
    """Row-id order is not key order (``_shuffled``: out-of-order oids
    and a rolled-back delete).  An ``IN`` or ``=`` probe sorts its rows
    — on native keys where the schema allows, ``SortKey`` where a key
    is nullable or the directions mix — into SQLite's order; ties on a
    NOT NULL non-unique column hold the same rows."""

    _pairs = None

    @classmethod
    def _databases(cls):
        if cls._pairs is None:
            cls._pairs = [(db, _mirror_items(db))
                          for db in (_shuffled(True), _shuffled(False))]
        return cls._pairs

    @given(query=_probed_order_query())
    @settings(max_examples=150, deadline=None)
    def test_probed_in_order_by(self, query):
        sql, window, order = query

        def key(row):
            return tuple(row[_ITEM_COLUMNS.index(c)] for c, _d in order)

        for db, lite in self._databases():
            got = db.query(sql + window).as_tuples()
            want = lite.execute(sql + window).fetchall()
            if "oid" in {column for column, _desc in order}:
                assert got == want, sql + window
                continue
            ours = [(k, Counter(g)) for k, g in groupby(got, key)]
            theirs = [(k, Counter(g)) for k, g in groupby(want, key)]
            assert [k for k, _ in ours] == [k for k, _ in theirs]
            assert ours[1:-1] == theirs[1:-1]
            unpaged = {k: Counter(g) for k, g in
                       groupby(lite.execute(sql).fetchall(), key)}
            for k, members in ours[:1] + ours[-1:]:
                assert members <= unpaged[k]


_LIKE_TEXT = st.text(alphabet="aAb%_\\\n", max_size=5)


class TestLikeAgainstSqlite:
    """LIKE / NOT LIKE / ESCAPE over strings built to disagree: both
    wildcards and the escape character as *data*, upper and lower case,
    a newline, the empty string, NULL — as a literal pattern and as a
    parameter, through whichever plan the engine picks."""

    @given(values=st.lists(st.none() | _LIKE_TEXT, min_size=1, max_size=8),
           pattern=st.none() | _LIKE_TEXT, negated=st.booleans(),
           escaped=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_like_not_like_escape(self, values, pattern, negated, escaped):
        db = Database()
        db.execute("CREATE TABLE t (oid INTEGER NOT NULL AUTOINCREMENT,"
                   " s VARCHAR(20), PRIMARY KEY (oid))")
        lite = sqlite3.connect(":memory:")
        lite.execute("PRAGMA case_sensitive_like = ON")
        lite.execute("CREATE TABLE t (oid INTEGER PRIMARY KEY, s TEXT)")
        for value in values:
            db.insert_row("t", {"s": value})
        lite.executemany("INSERT INTO t (s) VALUES (?)",
                         [(value,) for value in values])
        operator = "NOT LIKE" if negated else "LIKE"
        tail = " ESCAPE '\\'" if escaped else ""
        literal = ("NULL" if pattern is None
                   else "'" + pattern.replace("'", "''") + "'")
        for rhs, params in ((literal, {}), (":p", {"p": pattern})):
            sql = (f"SELECT oid, s {operator} {rhs}{tail} FROM t"
                   f" WHERE s {operator} {rhs}{tail} OR s IS NULL"
                   " ORDER BY oid")
            want = [(oid, None if verdict is None else bool(verdict))
                    for oid, verdict in lite.execute(sql, params)]
            assert db.query(sql, params).as_tuples() == want, sql
            bare = f"SELECT oid FROM t WHERE s {operator} {rhs}{tail}"
            assert sorted(db.query(bare, params).as_tuples()) \
                == sorted(lite.execute(bare, params).fetchall()), bare


class TestBetweenAgainstSqlite:
    """``v [NOT] BETWEEN low AND high`` is ``low <= v AND v <= high`` in
    3VL: with one NULL bound the other side can still be known FALSE,
    so ``v NOT BETWEEN 3 AND NULL`` keeps the rows with ``v < 3``.  Held
    to SQLite in every mode, indexed and not, as a filter and as a
    projected verdict."""

    _BOUNDS = [(3, 5), (3, None), (None, 5), (None, None)]

    @staticmethod
    def _pair(indexed: bool):
        db = Database()
        db.execute("CREATE TABLE t (oid INTEGER NOT NULL AUTOINCREMENT,"
                   " v INTEGER, PRIMARY KEY (oid))")
        if indexed:
            db.execute("CREATE INDEX ix_t_v ON t (v)")
        lite = sqlite3.connect(":memory:")
        lite.execute("CREATE TABLE t (oid INTEGER PRIMARY KEY, v INTEGER)")
        values = [1, 2, 3, 4, 5, 6, 7, None, 2, 6]
        for value in values:
            db.insert_row("t", {"v": value})
        lite.executemany("INSERT INTO t (v) VALUES (?)",
                         [(value,) for value in values])
        db.analyze()
        return db, lite

    @pytest.mark.parametrize("indexed", [False, True])
    @pytest.mark.parametrize("negated", [False, True])
    @pytest.mark.parametrize("low,high", _BOUNDS)
    def test_null_bounds(self, indexed, negated, low, high):
        db, lite = self._pair(indexed)
        operator = "NOT BETWEEN" if negated else "BETWEEN"

        def literal(value):
            return "NULL" if value is None else str(value)

        forms = [(f"{literal(low)} AND {literal(high)}", {}),
                 (":lo AND :hi", {"lo": low, "hi": high})]
        for bounds, params in forms:
            test = f"v {operator} {bounds}"
            for sql in (f"SELECT oid FROM t WHERE {test} ORDER BY oid",
                        f"SELECT oid, {test} AS b FROM t ORDER BY oid"):
                want = [tuple(None if x is None else int(x) for x in row)
                        for row in lite.execute(sql, params)]
                for mode in MODES:
                    got = [
                        tuple(None if x is None else int(x) for x in row)
                        for row in db.prepare(sql, mode=mode)
                        .execute(params).as_tuples()
                    ]
                    assert got == want, (mode, sql, params)
