"""LIKE against independent truth: one matcher, every lowering, and the
column store's trigram postings.

``Like.evaluate`` is the reference.  The classified matcher
(``rdb.expr.like_matcher``) is what it and every lowered form runs:
generated row code with a literal pattern, generated row code with a
parameter, the batch kernel over a plain column (seeded from trigram
postings where the pattern allows) and the batch kernel over a
dictionary-encoded column; SQLite checks the matcher itself
(``test_rdb_sqlite_oracle.TestLikeAgainstSqlite`` and the grammar
oracle).  The first property holds every lowering to the reference
over an alphabet chosen to break them — both
wildcards, the escape character, a newline (``$`` vs ``\\Z``), the empty
string.  The state machine then mutates one table every way the column
store can be mutated and requires the seeded selection to stay equal to
the interpreted sweep, *and* to stay the path taken.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
)

from repro.errors import SqlSyntaxError
from repro.rdb import Database
from repro.rdb import columnar as columnar_mod
from repro.rdb.expr import Like, Literal, like_matcher

_TEXT = st.text(alphabet="ab%_\\\n1", max_size=5)


def _reference(value, pattern, negated, escape):
    return Like(Literal(value), Literal(pattern), negated, escape).evaluate(
        None, {}
    )


def _quoted(text: str) -> str:
    return "'" + text.replace("'", "''") + "'"


def _tables(values: list) -> Database:
    """The same values twice over: ``plain.s`` stays a raw string
    column (unique filler rows keep it high-cardinality), ``coded.s``
    dictionary-encodes (every value is stored twice)."""
    db = Database()
    for table in ("plain", "coded"):
        db.execute(
            f"CREATE TABLE {table} (oid INTEGER NOT NULL AUTOINCREMENT,"
            " s VARCHAR(20), n INTEGER, PRIMARY KEY (oid))"
        )
    for i, value in enumerate(values):
        db.insert_row("plain", {"s": value, "n": i * 7})
        db.insert_row("coded", {"s": value, "n": i * 7})
        db.insert_row("coded", {"s": value, "n": i * 7})
    for i in range(len(values) + 1):
        db.insert_row("plain", {"s": f"zz{i}", "n": None})
    return db


class TestEveryLoweringEqualsTheReference:
    @given(
        values=st.lists(st.none() | _TEXT, min_size=1, max_size=6),
        pattern=st.none() | _TEXT,
        negated=st.booleans(),
        escaped=st.booleans(),
    )
    @settings(max_examples=250, deadline=None)
    def test_where_keeps_what_the_reference_keeps(self, values, pattern,
                                                  negated, escaped):
        db = _tables(values)
        escape = "\\" if escaped else None
        operator = ("NOT LIKE" if negated else "LIKE")
        tail = " ESCAPE '\\'" if escaped else ""
        literal = "NULL" if pattern is None else _quoted(pattern)
        for table, column in (("plain", "s"), ("coded", "s"), ("plain", "n")):
            rows = db.query(f"SELECT oid, {column} FROM {table}").as_tuples()
            want = [
                oid for oid, value in rows
                if _reference(value, pattern, negated, escape) is True
            ]
            for rhs, params in ((literal, {}), (":p", {"p": pattern})):
                sql = (f"SELECT oid FROM {table} WHERE {column}"
                       f" {operator} {rhs}{tail}")
                for mode in ("compiled", "columnar", "interpreted"):
                    plan = db.prepare(sql, mode=mode)
                    assert plan.exec_mode == mode
                    got = [oid for (oid,) in plan.execute(params).as_tuples()]
                    assert got == want, (sql, mode)
        store = db.table("coded").column_store
        if any(value is not None for value in values):
            assert store.columns["s"].dict_encoded
        assert not db.table("plain").column_store.columns["s"].dict_encoded

    @given(value=st.none() | _TEXT | st.integers(0, 120),
           pattern=st.none() | _TEXT, negated=st.booleans(),
           escaped=st.booleans())
    @settings(max_examples=250, deadline=None)
    def test_generated_code_returns_the_reference_verdict(
            self, value, pattern, negated, escaped):
        """Three-valued: the projected predicate is True, False or NULL
        exactly as the reference says — literal and parameter form."""
        db = Database()
        kind = "INTEGER" if isinstance(value, int) else "VARCHAR(20)"
        db.execute(f"CREATE TABLE t (oid INTEGER NOT NULL AUTOINCREMENT,"
                   f" v {kind}, PRIMARY KEY (oid))")
        db.insert_row("t", {"v": value})
        operator = ("NOT LIKE" if negated else "LIKE")
        tail = " ESCAPE '\\'" if escaped else ""
        want = _reference(value, pattern, negated, "\\" if escaped else None)
        literal = "NULL" if pattern is None else _quoted(pattern)
        for rhs, params in ((literal, {}), (":p", {"p": pattern})):
            sql = f"SELECT v {operator} {rhs}{tail} AS verdict FROM t"
            for mode in ("compiled", "interpreted"):
                got = db.prepare(sql, mode=mode).execute(params).scalar()
                assert got is want, (sql, mode)


class TestMatcherClassification:
    def test_a_literal_shape_builds_no_regex(self, regex_builds):
        like_matcher.cache_clear()
        for pattern in ("abc", "%abc%", "abc%", "%abc", "%", "", "%%",
                        "%a\\%b%", "a\\_b"):
            like_matcher(pattern, "\\")
        assert regex_builds == []
        like_matcher("a%b", None)
        like_matcher("a_c", None)
        assert len(regex_builds) == 2

    def test_runs_are_the_literal_stretches(self):
        assert like_matcher("%ab_cd%efg", None)[1] == ("", "ab", "cd", "efg")
        assert like_matcher("%50\\%\\_x%", "\\")[1] == ("", "50%_x", "")
        # ending in the escape character: matches nothing, seeds nothing
        match, runs = like_matcher("abc\\", "\\")
        assert runs == () and not match("abc") and not match("abc\\")

    def test_newline_is_an_ordinary_character(self):
        # ``$`` would accept a trailing newline; LIKE must not
        assert _reference("a\n", "a", False, None) is False
        assert _reference("a\nb", "a_b", False, None) is True
        assert _reference("a\nb", "a%", False, None) is True

    @pytest.mark.parametrize("tail", ["ESCAPE ''", "ESCAPE 'ab'", "ESCAPE 1",
                                      "ESCAPE :e", "ESCAPE"])
    def test_escape_takes_one_character(self, tail):
        with pytest.raises(SqlSyntaxError, match="one-character"):
            Database().prepare(f"SELECT 1 FROM t WHERE a LIKE 'x' {tail}")


_WORDS = st.text(alphabet="abc ", max_size=8)


@st.composite
def _probe(draw) -> str:
    """A LIKE pattern around a short literal: contains, prefix, suffix,
    exact, an inner ``%`` or ``_``; some too short to seed."""
    core = draw(st.text(alphabet="abc ", min_size=1, max_size=5))
    shape = draw(st.sampled_from(
        ["%{}%", "{}%", "%{}", "{}", "%{}%{}%", "%{}_{}%"]
    ))
    return shape.format(core, draw(st.text(alphabet="abc ", max_size=4)))


class PostingsMachine(RuleBasedStateMachine):
    """One table, every mutation the column store can see; after each,
    the seeded scan must equal the interpreted sweep."""

    SQL = "SELECT oid FROM doc WHERE title LIKE :p ORDER BY oid"

    def __init__(self):
        super().__init__()
        # small thresholds so bursts and compactions happen within a run
        self._saved = (columnar_mod.MAX_PENDING_OPS,
                       columnar_mod.MIN_COMPACT_TOMBSTONES)
        columnar_mod.MAX_PENDING_OPS = 6
        columnar_mod.MIN_COMPACT_TOMBSTONES = 3
        self.db = Database()
        self.db.execute(
            "CREATE TABLE doc (oid INTEGER NOT NULL AUTOINCREMENT,"
            " title VARCHAR(40), PRIMARY KEY (oid))"
        )
        self.seeded = self.db.prepare(self.SQL, mode="columnar")
        self.sweep = self.db.prepare(self.SQL, mode="interpreted")
        self.store = self.db.table("doc").column_store
        self.serial = 0

    def teardown(self):
        (columnar_mod.MAX_PENDING_OPS,
         columnar_mod.MIN_COMPACT_TOMBSTONES) = self._saved

    def _unique(self, title):
        # mostly-distinct titles keep the column plain (not dict-encoded)
        self.serial += 1
        return None if title is None else f"{title}{self.serial}"

    def _oids(self):
        return [oid for (oid,) in self.db.query(
            "SELECT oid FROM doc ORDER BY oid").as_tuples()]

    def _title(self, oid):
        return self.db.query("SELECT title FROM doc WHERE oid = :o",
                             {"o": oid}).scalar()

    def _agree(self, probes, *touched):
        # besides the drawn patterns, ones cut from the titles this step
        # wrote or removed: the serial makes their trigrams that row's own
        for title in touched:
            if title is not None:
                probes = probes + [f"%{title[-4:]}%", f"{title[:3]}%"]
        for pattern in probes:
            before = dict(self.store.counters)
            got = self.seeded.execute({"p": pattern}).as_tuples()
            assert got == self.sweep.execute({"p": pattern}).as_tuples(), \
                pattern
            column = self.store.columns["title"]
            assert not column.dict_encoded
            runs = like_matcher(pattern, None)[1]
            if any(len(run) >= 3 for run in runs):
                # the seeded path was taken — tombstones or not — and
                # fetched no more than the live rows
                after = self.store.counters
                assert after["gram_probes"] == before["gram_probes"] + 1
                assert self.seeded.root.scanned \
                    == after["gram_candidates"] - before["gram_candidates"]
                assert self.seeded.root.scanned <= len(self._oids())
        # one postings build per column-store generation
        generations = (self.store.counters["builds"]
                       + self.store.counters["rebuilds"])
        assert self.store.counters["gram_builds"] <= generations

    @initialize(titles=st.lists(_WORDS, min_size=4, max_size=10))
    def load(self, titles):
        for title in titles:
            self.db.insert_row("doc", {"title": self._unique(title)})

    @rule(title=st.none() | _WORDS, probes=st.lists(_probe(), max_size=3))
    def insert(self, title, probes):
        title = self._unique(title)
        self.db.insert_row("doc", {"title": title})
        self._agree(probes, title)

    @precondition(lambda self: self._oids())
    @rule(data=st.data(), title=st.none() | _WORDS,
          probes=st.lists(_probe(), max_size=3))
    def update_title(self, data, title, probes):
        oid = data.draw(st.sampled_from(self._oids()))
        old, title = self._title(oid), self._unique(title)
        self.db.execute("UPDATE doc SET title = :t WHERE oid = :o",
                        {"t": title, "o": oid})
        self._agree(probes, old, title)

    @precondition(lambda self: len(self._oids()) > 2)
    @rule(data=st.data(), probes=st.lists(_probe(), max_size=3))
    def delete(self, data, probes):
        oid = data.draw(st.sampled_from(self._oids()))
        old = self._title(oid)
        self.db.execute("DELETE FROM doc WHERE oid = :o", {"o": oid})
        self._agree(probes, old)

    @precondition(lambda self: self._oids())
    @rule(data=st.data(), probes=st.lists(_probe(), min_size=1, max_size=3))
    def rolled_back_delete(self, data, probes):
        oid = data.draw(st.sampled_from(self._oids()))
        old = self._title(oid)
        self.db.begin()
        self.db.execute("DELETE FROM doc WHERE oid = :o", {"o": oid})
        self._agree(probes, old)  # the transaction reads its own delete
        self.db.rollback()
        self._agree(probes, old)

    @rule(probes=st.lists(_probe(), min_size=1, max_size=3))
    def burst(self, probes):
        """More pending writes than the store chases: it is dropped,
        postings and all, and both are rebuilt by the next probe."""
        limit = max(columnar_mod.MAX_PENDING_OPS,
                    len(self.store.row_ids) // 2)
        for _ in range(limit // 2 + 1):  # insert + delete: two records each
            row = self.db.insert_row("doc", {"title": self._unique("abc ab")})
            self.db.execute("DELETE FROM doc WHERE oid = :o",
                            {"o": row["oid"]})
        assert not self.store.built
        self._agree(probes)


PostingsMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=30, deadline=None
)
TestPostingsStayInStep = PostingsMachine.TestCase


class TestSeededSelection:
    def _db(self, rows: int = 400) -> Database:
        db = Database()
        db.execute(
            "CREATE TABLE doc (oid INTEGER NOT NULL AUTOINCREMENT,"
            " title VARCHAR(60), pages INTEGER, PRIMARY KEY (oid))"
        )
        for i in range(1, rows + 1):
            db.insert_row("doc", {"title": f"Paper {i}: webs", "pages": i % 7})
        return db

    SQL = "SELECT oid FROM doc WHERE title LIKE :p ORDER BY oid"

    def test_a_contains_scan_fetches_candidates_not_the_table(self):
        db = self._db()
        plan = db.prepare(self.SQL, mode="columnar")
        store = db.table("doc").column_store
        assert plan.execute({"p": "%Paper 123:%"}).as_tuples() == [(123,)]
        assert plan.root.scanned <= 4  # "123" occurs in 123 only, < 400
        assert store.counters["gram_builds"] == 1
        # tombstones do not send the scan back to a full sweep
        db.execute("DELETE FROM doc WHERE oid IN (7, 124, 300)")
        assert plan.execute({"p": "%Paper 12_:%"}).as_tuples() \
            == [(o,) for o in range(120, 130) if o != 124]
        assert store.tombstones == 3
        assert plan.root.scanned <= 20
        assert plan.execute({"p": "%Paper 124:%"}).as_tuples() == []
        assert store.counters["gram_builds"] == 1  # kept in step, not rebuilt
        # a trigram no title holds: nothing is fetched at all
        assert plan.execute({"p": "%xyz%"}).as_tuples() == []
        assert plan.root.scanned == 0
        # too short to seed: the sweep, still through the matcher
        assert len(plan.execute({"p": "%9:%"}).as_tuples()) == 40
        assert plan.root.scanned == 400  # every position, as ever
        assert "scanned=400" in plan.explain(analyze=True)

    def test_other_conjuncts_verify_the_seed(self):
        db = self._db()
        sql = ("SELECT oid FROM doc WHERE title LIKE :p AND pages = 3"
               " AND title NOT LIKE '%31:%' ORDER BY oid")
        want = [(i,) for i in range(1, 401)
                if str(i).startswith("3") and i % 7 == 3 and i % 100 != 31]
        assert (3,) in want and (31,) not in want and len(want) > 10
        for mode in ("columnar", "compiled", "interpreted"):
            got = db.prepare(sql, mode=mode).execute({"p": "%Paper 3%"})
            assert got.as_tuples() == want, mode

    def test_status_reports_the_postings(self):
        db = self._db(50)
        db.prepare(self.SQL, mode="columnar").execute({"p": "%Paper 12:%"})
        section = db.observability_stats()["columnar"]
        assert section["gram_columns"] == 1
        assert section["gram_builds"] == section["gram_probes"] == 1
        assert section["gram_candidates"] == 1
        titles = [t for (t,) in db.query("SELECT title FROM doc").as_tuples()]
        assert section["gram_postings"] == sum(
            len({t[i:i + 3] for i in range(len(t) - 2)}) for t in titles
        )
