"""Compiled query execution: expression parity (values *and* error
messages), EXPLAIN mode annotations, plan-cache interaction (DDL and
ANALYZE must recompile, a dropped schema must poison the compiled
entry), the prepared-statement fast path, ordering edge cases shared
by both modes, and the observability surface the compiler feeds."""

import json

import pytest

from repro.errors import QueryError
from repro.rdb import Database
from repro.rdb.compile import (
    CompileError,
    compile_plan,
    compile_row_key,
    compile_scalar,
    compile_tuple,
)
from repro.rdb.executor import DescendingKey, SortKey, sort_rows_with_keys
from repro.rdb.sqlparser import parse_select


def _store() -> Database:
    db = Database()
    db.execute(
        "CREATE TABLE book (oid INTEGER NOT NULL AUTOINCREMENT,"
        " title VARCHAR(80), price FLOAT, year INTEGER,"
        " PRIMARY KEY (oid))"
    )
    rows = [
        ("alpha", 10.0, 1999),
        ("beta", None, 2001),
        ("gamma", 7.5, None),
        ("delta", 10.0, 2001),
    ]
    for title, price, year in rows:
        db.insert_row("book", {"title": title, "price": price, "year": year})
    return db


def _both(db, sql, params=None):
    """(compiled rows, interpreted rows) for one SQL text."""
    compiled = db.prepare(sql)
    interpreted = db.prepare(sql, mode="interpreted")
    assert compiled.exec_mode in ("compiled", "mixed")
    assert interpreted.exec_mode == "interpreted"
    return (
        compiled.execute(params or {}).as_tuples(),
        interpreted.execute(params or {}).as_tuples(),
    )


class TestExpressionParity:
    """Value-level parity on the branches most likely to drift."""

    @pytest.mark.parametrize("predicate", [
        "price > 8",                      # NULL operand -> UNKNOWN
        "price = 10.0 AND year > 2000",   # 3VL AND
        "price IS NULL OR year IS NULL",  # 3VL OR
        "NOT (price > 8)",
        "title LIKE '%a'",
        "title NOT LIKE 'b%'",
        "title LIKE :pat",
        "year IN (1999, 2001)",
        "year NOT IN (1999, :cut)",
        "price BETWEEN 7 AND 10",
        "price NOT BETWEEN 7 AND 10",
        "COALESCE(price, 0.0) > 8",
        "LENGTH(title) = 5",
        "UPPER(title) = 'ALPHA'",
        "price * 2 - 1 >= year - 1982",
        "price / 4 > 2",
    ])
    def test_predicates_agree(self, predicate):
        db = _store()
        sql = f"SELECT title FROM book WHERE {predicate} ORDER BY oid"
        params = {"pat": "%t%", "cut": 2001}
        compiled_rows, interpreted_rows = _both(db, sql, params)
        assert compiled_rows == interpreted_rows

    def test_in_list_with_null_options_is_unknown(self):
        db = _store()
        # 1999 IN (NULL, 2001) is UNKNOWN, not FALSE: NOT IN must
        # filter those rows out in both modes
        sql = ("SELECT title FROM book"
               " WHERE year NOT IN (2001, price) ORDER BY oid")
        compiled_rows, interpreted_rows = _both(db, sql)
        assert compiled_rows == interpreted_rows
        assert compiled_rows == [("alpha",)]

    def test_projection_and_concat_agree(self):
        db = _store()
        sql = ("SELECT title || '-' || year AS tag,"
               " price * :rate + 1 AS px FROM book ORDER BY oid")
        compiled_rows, interpreted_rows = _both(db, sql, {"rate": 2.0})
        assert compiled_rows == interpreted_rows
        assert compiled_rows[0] == ("alpha-1999", 21.0)
        assert compiled_rows[2][0] is None  # NULL year poisons concat

    def test_aggregates_agree(self):
        db = _store()
        sql = ("SELECT price, COUNT(*) AS n, SUM(year) AS sy"
               " FROM book GROUP BY price HAVING COUNT(*) >= 1"
               " ORDER BY n DESC, price")
        compiled_rows, interpreted_rows = _both(db, sql)
        assert compiled_rows == interpreted_rows


class TestErrorMessageParity:
    """A compiled plan must fail like the interpreter, byte for byte."""

    @pytest.mark.parametrize("sql,params", [
        ("SELECT year / 0 AS x FROM book", {}),
        ("SELECT year % 0 AS x FROM book", {}),
        ("SELECT title + 1 AS x FROM book", {}),
        ("SELECT -title AS x FROM book", {}),
        ("SELECT title FROM book WHERE year > :missing", {}),
        ("SELECT title FROM book WHERE title > 1999", {}),
    ])
    def test_identical_query_errors(self, sql, params):
        db = _store()
        with pytest.raises(QueryError) as compiled_err:
            db.prepare(sql).execute(params)
        with pytest.raises(QueryError) as interpreted_err:
            db.prepare(sql, mode="interpreted").execute(params)
        assert str(compiled_err.value) == str(interpreted_err.value)


class TestCompileUnits:
    """Direct checks on the compiler's public helpers."""

    COLUMNS = {"b": ("title", "price", "year")}

    def _where(self, predicate):
        return parse_select(
            f"SELECT b.title FROM book b WHERE {predicate}"
        ).where

    def test_compile_scalar_row_mode(self):
        compiled = compile_scalar(
            self._where("b.price > 8"), self.COLUMNS, mode="row"
        )
        assert compiled.compiled
        assert "RowScope" not in compiled.source
        assert compiled.fn({"title": "x", "price": 9.0, "year": 1}, {}) is True
        assert compiled.fn({"title": "x", "price": None, "year": 1}, {}) is None

    def test_compile_scalar_falls_back_on_aggregates(self):
        expr = parse_select(
            "SELECT b.title FROM book b GROUP BY b.title"
            " HAVING COUNT(*) > 1"
        ).having
        compiled = compile_scalar(expr, self.COLUMNS)
        assert not compiled.compiled  # aggregates stay interpreted

    def test_compile_scalar_rejects_unknown_column(self):
        with pytest.raises(QueryError):
            # resolution failures are *semantic* errors and must raise
            # the same QueryError the interpreter would, not fall back
            db = _store()
            db.query("SELECT nothere FROM book")

    def test_compile_tuple_single_key_is_a_tuple(self):
        compiled = compile_tuple(
            [self._where("b.year = 1999").left], self.COLUMNS, mode="row"
        )
        assert compiled.fn({"title": "t", "price": 1.0, "year": 7}, {}) == (7,)

    def test_compile_row_key(self):
        key = compile_row_key(("year", "title"))
        assert key({"title": "t", "price": 1.0, "year": 7}) == (7, "t")

    def test_compile_plan_counts_fallbacks(self):
        db = _store()
        plan = db.prepare("SELECT title FROM book WHERE price > 8")
        assert plan.compile_stats == {"compiled": 2, "interpreted": 0} or \
            plan.compile_stats["interpreted"] == 0
        assert plan.compile_seconds >= 0.0
        stats = compile_plan(plan)
        assert stats["interpreted"] == 0


class TestExplainAnnotations:
    def test_compiled_plan_is_annotated(self):
        db = _store()
        lines = db.prepare(
            "SELECT title FROM book WHERE price > 8 ORDER BY title LIMIT 2"
        ).explain().splitlines()
        # the mode rides on the root operator's bracket: consumers that
        # read lines[0] / lines[-1] positionally must keep working
        assert lines[0].startswith("Limit")
        assert "exec=compiled" in "\n".join(lines)
        assert "fused" in "\n".join(lines)

    def test_interpreted_plan_is_annotated(self):
        db = _store()
        explained = db.prepare(
            "SELECT title FROM book WHERE price > 8", mode="interpreted"
        ).explain()
        assert "exec=interpreted" in explained
        assert "fused" not in explained

    def test_seed_plan_is_interpreted(self):
        db = _store()
        plan = db.prepare("SELECT title FROM book", mode="seed")
        assert plan.exec_mode == "interpreted"
        assert "exec=interpreted" in plan.explain()


class TestPlanCacheInteraction:
    SQL = "SELECT title FROM book WHERE year = 2001"

    def test_ddl_invalidation_recompiles(self):
        db = _store()
        before = db.prepare(self.SQL)
        compiled_before = db.observability_stats()["plans_compiled"]
        db.execute("CREATE INDEX ix_book_year ON book (year)")
        assert db.cached_plan_count() == 0
        after = db.prepare(self.SQL)
        assert after is not before  # fresh plan, fresh closures
        assert after.exec_mode == "compiled"
        assert db.observability_stats()["plans_compiled"] == \
            compiled_before + 1

    def test_analyze_invalidation_recompiles(self):
        db = _store()
        before = db.prepare(self.SQL)
        db.execute("ANALYZE book")
        after = db.prepare(self.SQL)
        assert after is not before
        assert after.exec_mode == "compiled"

    def test_dropped_schema_never_serves_poisoned_plan(self):
        db = _store()
        assert db.query(self.SQL).as_tuples() == [("beta",), ("delta",)]
        db.execute("DROP TABLE book")
        db.execute(
            "CREATE TABLE book (oid INTEGER NOT NULL AUTOINCREMENT,"
            " name VARCHAR(40), PRIMARY KEY (oid))"
        )
        # the old compiled plan read book.title / book.year; both DDL
        # statements evicted it, so the text replans against the new
        # schema — never runs stale closures
        assert db.cached_plan_count() == 0
        db.insert_row("book", {"name": "x"})
        with pytest.raises(QueryError):
            db.query(self.SQL)

    def test_prepared_statement_fast_path_counts_reuse(self):
        db = _store()
        db.query(self.SQL)
        assert db.stats.prepared_reuse == 0
        db.query(self.SQL)
        db.query(self.SQL)
        assert db.stats.prepared_reuse == 2
        assert db.stats.selects == 3

    def test_fast_path_self_heals_on_stale_hint(self):
        db = _store()
        # simulate "probe saw the entry, another thread invalidated it":
        # the fast path re-parses the SQL text under the plan lock
        rows = db._execute_select(None, self.SQL, {})
        assert rows.as_tuples() == [("beta",), ("delta",)]

    def test_fast_path_rejects_non_select_text(self):
        db = _store()
        with pytest.raises(QueryError):
            db._execute_select(None, "DELETE FROM book", {})


class TestOrderingEdgeCases:
    """Satellite: the shared sorter must give both modes one answer."""

    def test_null_ordering_matches_in_both_modes(self):
        db = _store()
        # NULLS FIRST ascending, NULLS LAST descending — the NULL price
        # ("beta") bookends both directions, oid breaks the 10.0 tie
        expected = {
            "ASC": [("beta",), ("gamma",), ("alpha",), ("delta",)],
            "DESC": [("alpha",), ("delta",), ("gamma",), ("beta",)],
        }
        for direction, want in expected.items():
            sql = f"SELECT title FROM book ORDER BY price {direction}, oid"
            compiled_rows, interpreted_rows = _both(db, sql)
            assert compiled_rows == interpreted_rows == want

    def test_mixed_type_keys_sort_identically(self):
        db = Database()
        db.execute(
            "CREATE TABLE t (oid INTEGER NOT NULL AUTOINCREMENT,"
            " v VARCHAR(20), PRIMARY KEY (oid))"
        )
        for v in ("10", "2", None, "apple", ""):
            db.insert_row("t", {"v": v})
        for sql in ("SELECT v FROM t ORDER BY v, oid",
                    "SELECT v FROM t ORDER BY v DESC, oid"):
            compiled_rows, interpreted_rows = _both(db, sql)
            assert compiled_rows == interpreted_rows

    def test_descending_key_inverts_sortkey(self):
        # descending: larger values sort first, NULLs sort last
        assert DescendingKey(5) < DescendingKey(2)
        assert DescendingKey(5) < DescendingKey(None)
        # ascending: NULLs sort first
        assert SortKey(None) < SortKey(5)

    def test_sort_rows_with_keys_multi_key(self):
        items = [("a", (1, "x")), ("b", (None, "y")), ("c", (1, "a"))]

        class _Key:
            def __init__(self, descending):
                self.descending = descending

        # key 1 ascending (NULL first), key 2 descending breaks the tie
        sort_rows_with_keys(items, [_Key(False), _Key(True)])
        assert [row for row, _ in items] == ["b", "a", "c"]


class TestCompileObservability:
    def test_database_stats_expose_compile_counters(self):
        db = _store()
        db.query("SELECT title FROM book WHERE price > 8")
        db.prepare("SELECT title FROM book", mode="seed").execute({})
        stats = db.observability_stats()
        assert stats["plans_compiled"] >= 1
        assert stats["plans_interpreted"] >= 1
        assert stats["compile_ms_total"] >= 0.0
        assert stats["selects_compiled"] >= 1
        assert "compile_fallback_exprs" in stats

    def test_slow_log_entries_carry_mode(self):
        db = _store()
        db.slow_log.threshold_seconds = 0.0
        db.query("SELECT title FROM book WHERE price > 8")
        entry = db.slow_log.entries()[0]
        assert entry.mode == "compiled"
        assert entry.to_dict()["mode"] == "compiled"

    def test_status_page_shows_compile_counters_and_mode(self, acm_app):
        acm_app.database.slow_log.threshold_seconds = 0.0
        acm_app.get(acm_app.page_url("public", "Volumes"))
        text = acm_app.get("/_status").body
        assert "plans_compiled" in text
        assert "compile_ms_total" in text
        assert "rdb.compile_seconds" in text
        assert "[compiled]" in text  # slow-query mode suffix
        doc = json.loads(acm_app.get("/_status?format=json").body)
        rdb = doc["metrics"]["external"]["rdb.database"]
        assert rdb["plans_compiled"] >= 1
        assert rdb["selects_compiled"] >= 1
        assert any(e["mode"] == "compiled" for e in doc["slow_queries"])
