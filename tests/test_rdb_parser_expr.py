"""Tests for the SQL tokenizer/parser and expression evaluation semantics."""

import pytest

from repro.errors import QueryError, SqlSyntaxError
from repro.rdb.expr import (
    AggregateCall,
    ColumnRef,
    Comparison,
    Literal,
    Param,
    compare_values,
)
from repro.rdb.sqlparser import (
    CreateIndex,
    CreateTable,
    Delete,
    Insert,
    Select,
    Update,
    parse_select,
    parse_sql,
    tokenize,
)


class _Scope:
    """Minimal scope for expression tests: flat name→value mapping."""

    def __init__(self, **values):
        self.values = values

    def lookup(self, table, column):
        key = f"{table}.{column}" if table else column
        if key not in self.values:
            raise QueryError(f"unknown column {key}")
        return self.values[key]


def evaluate(sql_fragment: str, scope=None, params=None):
    select = parse_select(f"SELECT {sql_fragment} AS x FROM t")
    return select.items[0].expr.evaluate(scope or _Scope(), params or {})


class TestTokenizer:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("select FROM Where")
        assert [t.value for t in tokens[:-1]] == ["SELECT", "FROM", "WHERE"]

    def test_string_escape(self):
        tokens = tokenize("'it''s'")
        assert tokens[0].value == "it's"

    def test_line_comment_skipped(self):
        tokens = tokenize("SELECT -- a comment\n1")
        assert [t.kind for t in tokens[:-1]] == ["keyword", "number"]

    def test_named_and_positional_params(self):
        tokens = tokenize("WHERE a = :volume AND b = ?")
        kinds = [(t.kind, t.value) for t in tokens if t.kind in ("param", "punct")]
        assert ("param", "volume") in kinds
        assert ("punct", "?") in kinds

    def test_unterminated_string(self):
        with pytest.raises(SqlSyntaxError, match="unterminated string"):
            tokenize("'oops")

    def test_unexpected_character(self):
        with pytest.raises(SqlSyntaxError, match="unexpected character"):
            tokenize("SELECT ^")

    def test_quoted_identifier(self):
        tokens = tokenize('"Select"')
        assert tokens[0].kind == "name" and tokens[0].value == "Select"

    def test_decimal_vs_qualifier_dot(self):
        tokens = tokenize("t.col 3.5")
        assert [t.kind for t in tokens[:-1]] == ["name", "punct", "name", "number"]
        assert tokens[3].value == "3.5"


class TestSelectParsing:
    def test_simple_select(self):
        select = parse_select("SELECT a, b FROM t")
        assert isinstance(select, Select)
        assert [item.expr.column for item in select.items] == ["a", "b"]
        assert select.source.table == "t"

    def test_star_and_qualified_star(self):
        select = parse_select("SELECT *, t.* FROM t")
        assert select.items[0].is_star and select.items[0].star_table is None
        assert select.items[1].star_table == "t"

    def test_aliases(self):
        select = parse_select("SELECT a AS first, b second FROM t x")
        assert select.items[0].alias == "first"
        assert select.items[1].alias == "second"
        assert select.source.alias == "x"

    def test_joins(self):
        select = parse_select(
            "SELECT * FROM a JOIN b ON a.x = b.x "
            "LEFT OUTER JOIN c ON b.y = c.y INNER JOIN d ON c.z = d.z"
        )
        assert [j.kind for j in select.joins] == ["inner", "left", "inner"]

    def test_group_having_order_limit(self):
        select = parse_select(
            "SELECT kind, COUNT(*) n FROM t GROUP BY kind HAVING COUNT(*) > 1 "
            "ORDER BY n DESC, kind ASC LIMIT 10 OFFSET 5"
        )
        assert len(select.group_by) == 1
        assert select.having is not None
        assert select.order_by[0].descending is True
        assert select.order_by[1].descending is False
        assert (select.limit, select.offset) == (10, 5)

    def test_distinct(self):
        assert parse_select("SELECT DISTINCT a FROM t").distinct

    def test_aggregates(self):
        select = parse_select(
            "SELECT COUNT(*), COUNT(DISTINCT a), SUM(b), AVG(b), MIN(b), MAX(b) FROM t"
        )
        calls = [item.expr for item in select.items]
        assert all(isinstance(c, AggregateCall) for c in calls)
        assert calls[0].argument is None
        assert calls[1].distinct

    def test_count_star_only_for_count(self):
        with pytest.raises(SqlSyntaxError, match=r"only valid for COUNT"):
            parse_select("SELECT SUM(*) FROM t")

    def test_not_a_select_rejected(self):
        with pytest.raises(SqlSyntaxError, match="expected a SELECT"):
            parse_select("DELETE FROM t")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SqlSyntaxError, match="trailing"):
            parse_sql("SELECT a FROM t extra junk")

    def test_positional_params_numbered(self):
        select = parse_select("SELECT a FROM t WHERE a = ? AND b = ?")
        params = []

        def walk(node):
            if isinstance(node, Param):
                params.append(node.name)
            for attr in ("left", "right", "operand"):
                child = getattr(node, attr, None)
                if child is not None and hasattr(child, "evaluate"):
                    walk(child)

        walk(select.where)
        assert params == ["1", "2"]


class TestDmlDdlParsing:
    def test_insert_multi_row(self):
        statement = parse_sql(
            "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')"
        )
        assert isinstance(statement, Insert)
        assert statement.columns == ("a", "b")
        assert len(statement.rows) == 2

    def test_insert_arity_check(self):
        with pytest.raises(SqlSyntaxError, match="columns but"):
            parse_sql("INSERT INTO t (a, b) VALUES (1)")

    def test_update(self):
        statement = parse_sql("UPDATE t SET a = 1, b = b + 1 WHERE oid = :id")
        assert isinstance(statement, Update)
        assert [name for name, _ in statement.assignments] == ["a", "b"]
        assert statement.where is not None

    def test_delete(self):
        statement = parse_sql("DELETE FROM t WHERE a IS NULL")
        assert isinstance(statement, Delete)

    def test_create_table_full(self):
        statement = parse_sql(
            "CREATE TABLE paper ("
            "  oid INTEGER NOT NULL AUTOINCREMENT,"
            "  title VARCHAR(200) NOT NULL,"
            "  issue_oid INTEGER,"
            "  PRIMARY KEY (oid),"
            "  UNIQUE (title),"
            "  FOREIGN KEY (issue_oid) REFERENCES issue (oid) ON DELETE SET NULL"
            ")"
        )
        assert isinstance(statement, CreateTable)
        schema = statement.schema
        assert schema.column("oid").auto_increment
        assert not schema.column("title").nullable
        assert schema.foreign_keys[0].on_delete == "set_null"

    def test_create_index(self):
        statement = parse_sql("CREATE UNIQUE INDEX ix_t_a ON t (a, b)")
        assert isinstance(statement, CreateIndex)
        assert statement.index.unique
        assert statement.index.columns == ("a", "b")

    def test_drop_table_if_exists(self):
        statement = parse_sql("DROP TABLE IF EXISTS t")
        assert statement.if_exists


class TestExpressionSemantics:
    def test_arithmetic_precedence(self):
        assert evaluate("1 + 2 * 3") == 7
        assert evaluate("(1 + 2) * 3") == 9

    def test_integer_division_exact(self):
        assert evaluate("6 / 3") == 2
        assert isinstance(evaluate("6 / 3"), int)
        assert evaluate("7 / 2") == 3.5

    def test_division_by_zero(self):
        with pytest.raises(QueryError, match="division by zero"):
            evaluate("1 / 0")

    def test_unary_minus(self):
        assert evaluate("-3 + 5") == 2

    def test_concat_operator(self):
        assert evaluate("'a' || 'b' || 'c'") == "abc"

    def test_concat_null_propagates(self):
        assert evaluate("'a' || NULL") is None

    def test_comparisons(self):
        assert evaluate("2 < 3") is True
        assert evaluate("2 >= 3") is False
        assert evaluate("'a' <> 'b'") is True

    def test_null_comparison_is_unknown(self):
        assert evaluate("NULL = NULL") is None
        assert evaluate("1 < NULL") is None

    def test_three_valued_and_or(self):
        assert evaluate("NULL AND FALSE") is False
        assert evaluate("NULL AND TRUE") is None
        assert evaluate("NULL OR TRUE") is True
        assert evaluate("NULL OR FALSE") is None
        assert evaluate("NOT NULL") is None

    def test_is_null(self):
        assert evaluate("NULL IS NULL") is True
        assert evaluate("1 IS NOT NULL") is True

    def test_in_list(self):
        assert evaluate("2 IN (1, 2, 3)") is True
        assert evaluate("5 IN (1, 2, 3)") is False
        assert evaluate("5 NOT IN (1, 2, 3)") is True

    def test_in_list_null_semantics(self):
        assert evaluate("5 IN (1, NULL)") is None
        assert evaluate("NULL IN (1, 2)") is None

    def test_like(self):
        assert evaluate("'WebRatio' LIKE 'Web%'") is True
        assert evaluate("'WebRatio' LIKE '_ebRatio'") is True
        assert evaluate("'WebRatio' NOT LIKE 'X%'") is True
        assert evaluate("'a%b' LIKE 'a\\%b'") is False  # no escape support: % is wild

    def test_between(self):
        assert evaluate("2 BETWEEN 1 AND 3") is True
        assert evaluate("0 NOT BETWEEN 1 AND 3") is True
        assert evaluate("NULL BETWEEN 1 AND 3") is None

    def test_scalar_functions(self):
        assert evaluate("UPPER('abc')") == "ABC"
        assert evaluate("LOWER('ABC')") == "abc"
        assert evaluate("LENGTH('abcd')") == 4
        assert evaluate("ABS(-5)") == 5
        assert evaluate("COALESCE(NULL, NULL, 7)") == 7
        assert evaluate("CONCAT('a', NULL, 'b')") == "ab"
        assert evaluate("SUBSTR('abcdef', 2, 3)") == "bcd"
        assert evaluate("ROUND(3.567, 1)") == 3.6

    def test_unknown_function(self):
        with pytest.raises(QueryError, match="unknown function"):
            evaluate("FROBNICATE(1)")

    def test_params_resolve(self):
        assert evaluate(":x + 1", params={"x": 41}) == 42

    def test_missing_param(self):
        with pytest.raises(QueryError, match="missing query parameter"):
            evaluate(":missing")

    def test_column_lookup(self):
        scope = _Scope(a=10, **{"t.b": 20})
        assert evaluate("a + t.b", scope=scope) == 30

    def test_string_number_comparison_rejected(self):
        with pytest.raises(QueryError, match="cannot compare"):
            evaluate("'a' < 1")

    def test_compare_values_mixed_numeric(self):
        assert compare_values(1, 1.0) == 0
        assert compare_values(2, 1.5) == 1

    def test_aggregate_outside_group_rejected(self):
        call = AggregateCall("SUM", Literal(1))
        with pytest.raises(QueryError, match="aggregate"):
            call.evaluate(_Scope(), {})

    def test_comparison_expr_column_refs(self):
        expr = Comparison("=", ColumnRef("t", "a"), ColumnRef(None, "b"))
        refs = expr.column_refs()
        assert {(r.table, r.column) for r in refs} == {("t", "a"), (None, "b")}


class TestExpressionEdgeCases:
    def test_scalar_function_arity_enforced(self):
        with pytest.raises(QueryError, match="exactly one argument"):
            evaluate("UPPER('a', 'b')")

    def test_round_arity(self):
        with pytest.raises(QueryError, match="one or two"):
            evaluate("ROUND(1, 2, 3)")

    def test_substr_arity(self):
        with pytest.raises(QueryError, match="two or three"):
            evaluate("SUBSTR('abc')")

    def test_negate_non_number(self):
        with pytest.raises(QueryError, match="cannot negate"):
            evaluate("-'abc'")

    def test_abs_non_number(self):
        with pytest.raises(QueryError, match="ABS needs a number"):
            evaluate("ABS('x')")

    def test_arithmetic_string_plus_string_concats(self):
        assert evaluate("'foo' + 'bar'") == "foobar"

    def test_arithmetic_mixed_types_rejected(self):
        with pytest.raises(QueryError, match="needs numbers"):
            evaluate("'foo' * 2")

    def test_modulo(self):
        assert evaluate("7 % 3") == 1
        with pytest.raises(QueryError, match="modulo by zero"):
            evaluate("7 % 0")

    def test_not_in_with_null_option_is_unknown(self):
        assert evaluate("5 NOT IN (1, NULL)") is None

    def test_concat_booleans_render_lowercase(self):
        assert evaluate("'is:' || TRUE") == "is:true"

    def test_like_dotall(self):
        # % must cross newlines (the engine uses DOTALL)
        scope = _Scope(body="line1\nline2")
        assert evaluate("body LIKE '%line2'", scope=scope) is True

    def test_between_negated(self):
        assert evaluate("5 NOT BETWEEN 1 AND 3") is True
        assert evaluate("2 NOT BETWEEN 1 AND 3") is False

    def test_nested_function_calls(self):
        assert evaluate("UPPER(SUBSTR('webratio', 1, 3))") == "WEB"

    def test_unary_plus_is_identity(self):
        assert evaluate("+5") == 5


class TestValueRulesAgreeWithSqlite:
    """Answers SQLite and PostgreSQL give too, pinned where the engine
    once differed (the grammar oracle, ``test_rdb_sql_grammar.py``,
    holds the rest)."""

    def test_integer_modulo_takes_the_dividends_sign(self):
        assert evaluate("-7 % 3") == -1
        assert evaluate("7 % -3") == 1
        assert evaluate("-7 % -3") == -1
        assert evaluate("6 % -3") == 0

    def test_substr_places_the_window_before_clamping(self):
        assert evaluate("SUBSTR('hello', 0, 2)") == "h"
        assert evaluate("SUBSTR('hello', -1, 3)") == "h"
        assert evaluate("SUBSTR('hello', -5, 2)") == ""
        assert evaluate("SUBSTR('hello', 0)") == "hello"
        assert evaluate("SUBSTR('hello', 4, 9)") == "lo"

    def test_substr_and_round_of_null_are_null(self):
        assert evaluate("SUBSTR('hello', NULL)") is None
        assert evaluate("SUBSTR('hello', 2, NULL)") is None
        assert evaluate("ROUND(2.5, NULL)") is None

    def test_substr_refuses_a_negative_length(self):
        with pytest.raises(QueryError, match="must not be negative"):
            evaluate("SUBSTR('hello', 2, -1)")

    def test_round_half_away_from_zero_like_sqlite(self):
        assert evaluate("ROUND(2.5)") == 3.0
        assert evaluate("ROUND(-2.5)") == -3.0
        assert evaluate("ROUND(0.125, 2)") == 0.13
        assert evaluate("ROUND(2.675, 2)") == 2.68
        assert evaluate("ROUND(123.4, -1)") == 123.0  # negative reads as 0
        assert isinstance(evaluate("ROUND(5)"), float)
