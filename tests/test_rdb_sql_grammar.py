"""Generated expressions against stdlib ``sqlite3``: SQLite is the
value reference for every expression rule.

A typed grammar (``st.recursive`` per family: integer, number, text,
boolean) draws expressions over the supported subset — comparisons,
AND / OR / NOT, ``+ - * / %``, unary minus, ``||``, ``[NOT] IN``,
``[NOT] BETWEEN``, ``[NOT] LIKE … [ESCAPE]``, ``IS [NOT] NULL`` and the
scalar functions — with a NULL literal, a ``:param`` (drawn, NULL
included) and a NULL-holding column in every operand position.  Each
drawn predicate runs as a WHERE clause, and with a drawn value in the
select list, through all five ``planner.MODES`` and through SQLite
(``PRAGMA case_sensitive_like = ON``) over a mirrored table; every
answer must be SQLite's.  The engine's value rules are written once
(``rdb.expr``), so this is the check that does not compare the engine
with itself.

Where we answer differently from SQLite on purpose, the difference is
a decision (DESIGN §8, "Expression values: decided against SQLite"):
``_DECISIONS`` pins both answers, and the grammar stays clear of it by
construction — each filter is named beside its strategy:

- comparing across types raises (SQLite orders storage classes): every
  comparison, IN and BETWEEN takes operands of one family;
- ``7 / 2`` is 3.5 (SQLite truncates an integer quotient): a divisor is
  a REAL atom;
- dividing by zero raises (SQLite answers NULL): divisors are non-zero
  atoms or NULL;
- ``'a' + 'b'`` concatenates (SQLite reads 0): ``+`` takes numbers;
- booleans print as ``true`` / ``false`` and a float as its shortest
  round-trip form in ``||`` / CONCAT (SQLite: 1 / 0 and 15 significant
  digits): their operands are text and integers;
- UPPER / LOWER fold every letter (SQLite folds ASCII only): the text
  alphabet is ASCII;
- ``%`` on a float keeps the fraction (``7.5 % 2`` is 1.5, as
  PostgreSQL's numeric; SQLite casts to integer): ``%`` takes integers;
- SUBSTR's start below 1 does not count from the end, and a negative
  length raises (both as PostgreSQL): SUBSTR's start and length are
  non-negative;
- ROUND rounds a value's shortest decimal form half away from zero, as
  SQLite does on every short decimal (``ROUND(2.675, 2)`` is 2.68);
  SQLite's printf also nudges a value up by 3e-16 of itself and reads
  its digits back with its own, inexact conversion, so a computed
  value a few ulps below a half (``3.3499999999999996``) rounds up
  there and down here: ROUND takes a number atom (a short decimal) and
  0..4 places.

CONCAT is not in SQLite 3.40, so the grammar spells it there as
``'' || IFNULL(a, '') || IFNULL(b, '')``: each node carries its text in both
dialects.  Hypothesis draws as many examples as the active profile
says (tier-1: the default; CI also runs this file under the larger
``sql-grammar`` profile registered in ``tests/conftest.py``).
"""

from __future__ import annotations

import sqlite3
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QueryError
from repro.rdb import Database
from repro.rdb.planner import MODES


class Sql(NamedTuple):
    """One expression, spelled for our engine and for SQLite."""

    ours: str
    lite: str


def _same(text: str) -> Sql:
    return Sql(text, text)


def _form(template: str, *parts: Sql) -> Sql:
    """``template`` with ``{}`` filled from each part, per dialect."""
    return Sql(template.format(*(p.ours for p in parts)),
               template.format(*(p.lite for p in parts)))


def _call(name: str, *args: Sql) -> Sql:
    return _form(f"{name}({', '.join('{}' for _ in args)})", *args)


def _concat_call(args: list[Sql]) -> Sql:
    ours = _call("CONCAT", *args).ours
    lite = "".join(f" || IFNULL({a.lite}, '')" for a in args)
    return Sql(ours, f"(''{lite})")


def _quoted(text: str) -> str:
    return "'" + text.replace("'", "''") + "'"


_ALPHABET = "aAb%_\\\n'"

# -- the mirrored table ----------------------------------------------------
# i: integers with 0 and negatives; k: non-zero integers (a divisor);
# r: non-zero reals (a divisor); s, u: text over the LIKE alphabet;
# f: booleans.  Every column holds NULLs.

_ROWS = [
    (-7, 3, 2.5, "abc", "a%", True),
    (-1, -3, -0.5, "ABC", "%b", False),
    (0, 2, 1.25, "a%b", "_", None),
    (1, None, None, "a_b", None, True),
    (2, 1, 3.0, "", "a\\%b", False),
    (3, -2, -7.5, None, "%", None),
    (3, 5, 0.1, "ab\\", "A_C", True),
    (7, 7, None, "b", "", True),
    (10, None, 10.0, "aa", "\\", False),
    (None, 4, 2.0, None, "ab", None),
    (None, -1, -1.5, "Ab", None, False),
    (5, 2, 0.3, "a\nb", "%a%", True),
]

_COLUMNS = ("i", "k", "r", "s", "u", "f")


def _pair() -> tuple[Database, sqlite3.Connection]:
    db = Database()
    db.execute(
        "CREATE TABLE t (oid INTEGER NOT NULL AUTOINCREMENT, i INTEGER,"
        " k INTEGER, r FLOAT, s VARCHAR(20), u VARCHAR(20), f BOOLEAN,"
        " PRIMARY KEY (oid))"
    )
    db.execute("CREATE INDEX ix_t_i ON t (i)")
    db.execute("CREATE INDEX ix_t_s ON t (s)")
    lite = sqlite3.connect(":memory:")
    lite.execute("PRAGMA case_sensitive_like = ON")
    lite.execute("CREATE TABLE t (oid INTEGER PRIMARY KEY, i INTEGER,"
                 " k INTEGER, r REAL, s TEXT, u TEXT, f BOOLEAN)")
    for row in _ROWS:
        db.insert_row("t", dict(zip(_COLUMNS, row)))
    lite.executemany(
        "INSERT INTO t VALUES (?, ?, ?, ?, ?, ?, ?)",
        db.query("SELECT oid, i, k, r, s, u, f FROM t").as_tuples(),
    )
    return db, lite


# -- atoms: a literal, a column, a parameter and NULL, per family ----------

#: reals whose repr our tokenizer reads (no exponent); none is zero
_REALS = (0.5, 2.5, -1.25, 0.125, 2.675, 3.0, 0.1, -0.3, 10.0)


def _int_literal(value: int) -> Sql:
    return _same(f"({value})" if value < 0 else str(value))


def _atoms(literals, *names: str):
    """A family's atoms: one of ``names`` — its columns (repeated for
    weight), its parameters, NULL — where ``"literal"`` draws from
    ``literals``."""
    return st.sampled_from(names).flatmap(
        lambda name: literals if name == "literal" else st.just(_same(name)))


_INT_ATOM = _atoms(st.integers(-9, 9).map(_int_literal), "literal", "literal",
                   "i", "k", "i", "k", "i", "k", ":pi", ":pk", "NULL")
#: filter: a divisor is never zero
_DIVISOR = _atoms(st.integers(1, 9).flatmap(lambda v: st.sampled_from([v, -v]))
                  .map(_int_literal), "literal", "k", "k", ":pk", "NULL")
#: filter: non-zero REAL atoms — ``/`` divides by one of these only
_REAL_ATOM = _atoms(st.sampled_from(_REALS).map(lambda v: _same(f"({v!r})")),
                    "literal", "literal", "r", "r", "r", ":pr", "NULL")
#: filter: SUBSTR's start and length are non-negative
_COUNT = _atoms(st.integers(0, 6).map(_int_literal), "literal", "literal",
                "literal", ":pn", ":pn", "NULL")
_TEXT_ATOM = _atoms(
    st.text(alphabet=_ALPHABET, max_size=4).map(lambda v: _same(_quoted(v))),
    "literal", "literal", "s", "u", "s", "u", "s", "u", ":ps", "NULL",
)
#: LIKE patterns: any text, or a literal dense in wildcards and in the
#: escape characters ``_likes`` draws
_PATTERN = st.deferred(lambda: _TEXT) | st.text(
    alphabet="a%_\\", min_size=1, max_size=4).map(lambda v: _same(_quoted(v)))
_BOOL_ATOM = st.sampled_from(["TRUE", "FALSE", "f", "f", ":pf", "NULL"]).map(_same)


def _binary(op: str, left, right):
    return st.builds(lambda a, b: _form(f"({{}} {op} {{}})", a, b),
                     left, right)


def _calls(name: str, *args):
    return st.builds(lambda *values: _call(name, *values), *args)


def _negate(operand):
    return operand.map(lambda a: _form("(-{})", a))


_TEXT = st.deferred(lambda: st.recursive(
    _TEXT_ATOM,
    lambda text: st.one_of(
        # filter: ``||`` and CONCAT take text and integers
        _binary("||", text | _INT, text | _INT),
        _calls("UPPER", text),
        _calls("LOWER", text),
        _calls("SUBSTR", text, _COUNT),
        _calls("SUBSTR", text, _COUNT, _COUNT),
        st.lists(text | _INT, min_size=1, max_size=3).map(_concat_call),
        st.lists(text, min_size=2, max_size=3)
        .map(lambda args: _call("COALESCE", *args)),
    ),
    max_leaves=3,
))

#: integer-valued in both engines: ``%`` takes these only
_INT = st.deferred(lambda: st.recursive(
    _INT_ATOM | _calls("LENGTH", _TEXT),
    lambda num: st.one_of(
        _binary("+", num, num),
        _binary("-", num, num),
        _binary("*", num, num),
        _binary("%", num, _DIVISOR),
        _negate(num),
        _calls("ABS", num),
        st.lists(num, min_size=2, max_size=3)
        .map(lambda args: _call("COALESCE", *args)),
    ),
    max_leaves=4,
))

#: filter: ROUND takes a number atom and at most four places
_PLACES = _atoms(st.integers(-2, 4).map(_int_literal), "literal", "literal",
                 ":pn", "NULL")
_ROUND = st.one_of(
    _calls("ROUND", _INT_ATOM | _REAL_ATOM),
    _calls("ROUND", _INT_ATOM | _REAL_ATOM, _PLACES),
)

_NUMBER = st.recursive(
    _INT | _REAL_ATOM | _ROUND,
    lambda num: st.one_of(
        _binary("+", num, num),
        _binary("-", num, num),
        _binary("*", num, num),
        _binary("/", num, _REAL_ATOM),
        _negate(num),
        _calls("ABS", num),
        st.lists(num, min_size=2, max_size=3)
        .map(lambda args: _call("COALESCE", *args)),
    ),
    max_leaves=4,
)

_COMPARISON_OPS = st.sampled_from(["=", "<>", "<", "<=", ">", ">="])


def _comparisons(family):
    return st.builds(lambda a, op, b: _form(f"({{}} {op} {{}})", a, b),
                     family, _COMPARISON_OPS, family)


def _in_lists(family):
    def build(value, negated, options):
        holes = ", ".join("{}" for _ in options)
        keyword = "NOT IN" if negated else "IN"
        return _form(f"({{}} {keyword} ({holes}))", value, *options)

    return st.builds(build, family, st.booleans(),
                     st.lists(family, min_size=1, max_size=3))


def _betweens(family):
    def build(value, negated, low, high):
        keyword = "NOT BETWEEN" if negated else "BETWEEN"
        return _form(f"({{}} {keyword} {{}} AND {{}})", value, low, high)

    return st.builds(build, family, st.booleans(), family, family)


def _likes():
    def build(value, negated, pattern, escape):
        keyword = "NOT LIKE" if negated else "LIKE"
        tail = "" if escape is None else f" ESCAPE {_quoted(escape)}"
        return _form(f"({{}} {keyword} {{}}{tail})", value, pattern)

    return st.builds(build, _TEXT, st.booleans(), _PATTERN,
                     st.sampled_from([None, "\\", "a"]))


def _null_tests(family):
    return st.builds(
        lambda a, negated: _form(
            f"({{}} IS {'NOT ' if negated else ''}NULL)", a),
        family, st.booleans(),
    )


_PREDICATE = st.one_of(
    _BOOL_ATOM,
    _comparisons(_NUMBER), _comparisons(_TEXT),
    _in_lists(_NUMBER), _in_lists(_TEXT),
    _betweens(_NUMBER), _betweens(_TEXT),
    _likes(),
    _null_tests(_NUMBER | _TEXT),
)

_BOOLEAN = st.recursive(
    _PREDICATE,
    lambda cond: st.one_of(
        _binary("AND", cond, cond),
        _binary("OR", cond, cond),
        cond.map(lambda a: _form("(NOT {})", a)),
        _comparisons(cond),
        _in_lists(cond),
        _betweens(cond),
        _null_tests(cond),
    ),
    max_leaves=3,
)

_VALUE = _NUMBER | _TEXT | _BOOLEAN


def _or_null(values):
    """``values``, or NULL one draw in ten."""
    return st.tuples(values, st.integers(0, 9)).map(
        lambda drawn: None if drawn[1] == 0 else drawn[0])


_PARAMS = st.fixed_dictionaries({
    "pi": _or_null(st.integers(-9, 9)),
    "pk": _or_null(st.integers(1, 9).flatmap(
        lambda v: st.sampled_from([v, -v]))),
    "pr": _or_null(st.sampled_from(_REALS)),
    "pn": _or_null(st.integers(0, 4)),
    "ps": _or_null(st.text(alphabet=_ALPHABET, max_size=4)),
    "pf": _or_null(st.booleans()),
})


class TestExpressionsAgainstSqlite:
    _built = None

    @classmethod
    def _databases(cls):
        if cls._built is None:
            cls._built = _pair()
        return cls._built

    @given(where=_BOOLEAN, value=_VALUE, params=_PARAMS)
    @settings(deadline=None)
    def test_every_mode_answers_what_sqlite_answers(self, where, value,
                                                    params):
        db, lite = self._databases()
        for ours, theirs in (
            (f"SELECT oid FROM t WHERE {where.ours} ORDER BY oid",
             f"SELECT oid FROM t WHERE {where.lite} ORDER BY oid"),
            (f"SELECT oid, {where.ours} AS w, {value.ours} AS v FROM t"
             " ORDER BY oid",
             f"SELECT oid, {where.lite} AS w, {value.lite} AS v FROM t"
             " ORDER BY oid"),
        ):
            want = lite.execute(theirs, params).fetchall()
            for mode in MODES:
                got = db.prepare(ours, mode=mode).execute(params)
                assert got.as_tuples() == want, (mode, ours, params)


#: (expression, our answer — or the QueryError it raises —, SQLite's):
#: the divergences DESIGN §8 decides, each pinned on both sides
_DECISIONS = [
    ("'a' < 1", QueryError("cannot compare"), 0),
    ("7 / 2", 3.5, 3),
    ("7 / 0", QueryError("division by zero"), None),
    ("7 % 0", QueryError("modulo by zero"), None),
    ("'a' + 'b'", "ab", 0),
    ("'is:' || TRUE", "is:true", "is:1"),
    ("(0.1 + 0.2) || ''", "0.30000000000000004", "0.3"),
    ("UPPER('é')", "É", "é"),
    ("7.5 % 2", 1.5, 1.0),
    ("SUBSTR('hello', -1)", "hello", "o"),
    ("SUBSTR('hello', -1, 3)", "h", "o"),
    ("SUBSTR('hello', 2, -1)", QueryError("must not be negative"), "h"),
    ("ROUND(3.3499999999999996, 1)", 3.3, 3.4),
    ("ROUND(0.49999999999999994)", 0.0, 1.0),
]


class TestDecisions:
    @pytest.fixture(scope="class")
    def engines(self):
        db = Database()
        db.execute("CREATE TABLE one (oid INTEGER NOT NULL AUTOINCREMENT,"
                   " PRIMARY KEY (oid))")
        db.insert_row("one", {})
        return db, sqlite3.connect(":memory:")

    @pytest.mark.parametrize("expression,ours,theirs", _DECISIONS,
                             ids=[d[0] for d in _DECISIONS])
    def test_each_divergence_is_decided(self, engines, expression, ours,
                                        theirs):
        db, lite = engines
        assert lite.execute(f"SELECT {expression}").fetchone()[0] == theirs
        sql = f"SELECT {expression} AS v FROM one"
        for mode in MODES:
            if isinstance(ours, QueryError):
                with pytest.raises(QueryError, match=str(ours)):
                    db.prepare(sql, mode=mode).execute({})
            else:
                got = db.prepare(sql, mode=mode).execute({}).scalar()
                assert got == ours and type(got) is type(ours), mode
