"""Differential oracle against stdlib ``sqlite3``: independent ground
truth for paging, counting and LIKE.

Every other rdb oracle compares the engine with itself (columnar /
compiled / interpreted / seed).  This one runs the same statement
through our engine and through SQLite over a mirrored copy of
``test_rdb_compile_oracle``'s NULL-heavy catalogue — once with its
secondary indexes and once without, so an ``ORDER BY`` meets both a
covering index and none — and holds ``ORDER BY … LIMIT n OFFSET k``
(literal and ``:n`` / ``:k`` parameter forms, with and without WHERE,
duplicate and NULL sort keys) and bare / filtered ``COUNT(*)`` to it.
``LIKE`` / ``NOT LIKE`` / ``ESCAPE`` get their own small table of
adversarial strings (``TestLikeAgainstSqlite``).

Comparison: as ordered lists where the ORDER BY is total (it names
``oid`` or the unique ``title``); otherwise the *sort-key sequence*
must be identical, every tie group strictly inside the window must
hold the same multiset of rows in both engines, and the two boundary
groups — where LIMIT / OFFSET may legitimately cut different members
of a tie — must be sub-multisets of SQLite's unpaged tie group.

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
from tests.test_rdb_compile_oracle import PARAMS, _PREDICATES, _catalogue

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
    """A SQLite copy of ``db``'s book table, row for row."""
    lite = sqlite3.connect(":memory:")
    lite.execute("PRAGMA case_sensitive_like = ON")
    lite.execute(
        "CREATE TABLE book (oid INTEGER PRIMARY KEY, author_oid INTEGER,"
        " year INTEGER, price REAL, title TEXT)"
    )
    lite.executemany(
        "INSERT INTO book VALUES (?, ?, ?, ?, ?)",
        db.query("SELECT * FROM book").as_tuples(),
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
