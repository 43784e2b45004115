"""SQL tokenizer and recursive-descent parser.

Produces statement ASTs consumed by :mod:`repro.rdb.database` (DDL/DML)
and :mod:`repro.rdb.planner` (SELECT).  The dialect is the subset the
code generators emit plus what a developer overriding a descriptor query
reasonably writes: SELECT with INNER/LEFT joins, WHERE, GROUP BY/HAVING,
ORDER BY, LIMIT/OFFSET, DISTINCT, aggregates, scalar functions, ``?`` and
``:name`` parameters; INSERT (multi-row), UPDATE, DELETE; CREATE TABLE
with PRIMARY KEY / FOREIGN KEY / UNIQUE / NOT NULL / AUTOINCREMENT;
CREATE [UNIQUE] INDEX; DROP TABLE.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SqlSyntaxError
from repro.rdb.expr import (
    AGGREGATE_NAMES,
    AggregateCall,
    And,
    Arithmetic,
    Between,
    ColumnRef,
    Comparison,
    Concat,
    Expr,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Literal,
    Negate,
    Not,
    Or,
    Param,
)
from repro.rdb.schema import Column, ForeignKey, Index, TableSchema
from repro.rdb.types import type_from_name

# ---------------------------------------------------------------------------
# Statement ASTs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectItem:
    """One projection: an expression with an optional alias, or a star."""

    expr: Expr | None  # None means star
    alias: str | None = None
    star_table: str | None = None  # for "t.*"; plain "*" has expr None too

    @property
    def is_star(self) -> bool:
        return self.expr is None


@dataclass(frozen=True)
class TableRef:
    table: str
    alias: str | None = None

    @property
    def binding(self) -> str:
        return self.alias or self.table


@dataclass(frozen=True)
class Join:
    kind: str  # "inner" | "left"
    table: TableRef
    condition: Expr


@dataclass(frozen=True)
class OrderItem:
    expr: Expr
    descending: bool = False


@dataclass(frozen=True)
class Select:
    items: tuple[SelectItem, ...]
    source: TableRef
    joins: tuple[Join, ...] = ()
    where: Expr | None = None
    group_by: tuple[Expr, ...] = ()
    having: Expr | None = None
    order_by: tuple[OrderItem, ...] = ()
    #: an integer literal, or a parameter resolved (and validated:
    #: non-negative integer) at every execution
    limit: int | Param | None = None
    offset: int | Param = 0
    distinct: bool = False


@dataclass(frozen=True)
class Insert:
    table: str
    columns: tuple[str, ...]
    rows: tuple[tuple[Expr, ...], ...]


@dataclass(frozen=True)
class Update:
    table: str
    assignments: tuple[tuple[str, Expr], ...]
    where: Expr | None = None


@dataclass(frozen=True)
class Delete:
    table: str
    where: Expr | None = None


@dataclass(frozen=True)
class CreateTable:
    schema: TableSchema


@dataclass(frozen=True)
class CreateIndex:
    index: Index
    table: str


@dataclass(frozen=True)
class DropTable:
    table: str
    if_exists: bool = False


@dataclass(frozen=True)
class Analyze:
    """``ANALYZE [table]`` — collect planner statistics; no table means
    every table."""

    table: str | None = None


Statement = (
    Select | Insert | Update | Delete | CreateTable | CreateIndex | DropTable
    | Analyze
)

# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_KEYWORDS = {
    "SELECT", "DISTINCT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER",
    "LIMIT", "OFFSET", "ASC", "DESC", "AS", "JOIN", "INNER", "LEFT", "OUTER",
    "ON", "AND", "OR", "NOT", "IN", "IS", "NULL", "LIKE", "BETWEEN", "INSERT",
    "INTO", "VALUES", "UPDATE", "SET", "DELETE", "CREATE", "TABLE", "INDEX",
    "UNIQUE", "PRIMARY", "KEY", "FOREIGN", "REFERENCES", "DROP", "IF",
    "EXISTS", "CASCADE", "RESTRICT", "AUTOINCREMENT", "TRUE", "FALSE",
    "ANALYZE", "ESCAPE",
}

_PUNCTUATION = ("||", "<=", ">=", "<>", "!=", "(", ")", ",", ".", "*", "+",
                "-", "/", "%", "=", "<", ">", "?")


@dataclass(frozen=True)
class _Token:
    kind: str  # keyword | name | number | string | punct | param | end
    value: str
    position: int


def tokenize(sql: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(sql)
    while i < n:
        ch = sql[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if sql.startswith("--", i):
            end = sql.find("\n", i)
            i = n if end < 0 else end + 1
            continue
        if ch == "'":
            j = i + 1
            pieces: list[str] = []
            while True:
                if j >= n:
                    raise SqlSyntaxError(f"unterminated string at offset {i}")
                if sql[j] == "'":
                    if j + 1 < n and sql[j + 1] == "'":
                        pieces.append("'")
                        j += 2
                        continue
                    break
                pieces.append(sql[j])
                j += 1
            tokens.append(_Token("string", "".join(pieces), i))
            i = j + 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and sql[i + 1].isdigit()):
            j = i
            saw_dot = False
            while j < n and (sql[j].isdigit() or (sql[j] == "." and not saw_dot)):
                if sql[j] == ".":
                    # a dot not followed by a digit is a qualifier, not a decimal
                    if j + 1 >= n or not sql[j + 1].isdigit():
                        break
                    saw_dot = True
                j += 1
            tokens.append(_Token("number", sql[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (sql[j].isalnum() or sql[j] == "_"):
                j += 1
            word = sql[i:j]
            kind = "keyword" if word.upper() in _KEYWORDS else "name"
            value = word.upper() if kind == "keyword" else word
            tokens.append(_Token(kind, value, i))
            i = j
            continue
        if ch == '"':
            end = sql.find('"', i + 1)
            if end < 0:
                raise SqlSyntaxError(f"unterminated quoted identifier at offset {i}")
            tokens.append(_Token("name", sql[i + 1 : end], i))
            i = end + 1
            continue
        if ch == ":":
            j = i + 1
            while j < n and (sql[j].isalnum() or sql[j] == "_"):
                j += 1
            if j == i + 1:
                raise SqlSyntaxError(f"bare ':' at offset {i}")
            tokens.append(_Token("param", sql[i + 1 : j], i))
            i = j
            continue
        for punct in _PUNCTUATION:
            if sql.startswith(punct, i):
                tokens.append(_Token("punct", punct, i))
                i += len(punct)
                break
        else:
            raise SqlSyntaxError(f"unexpected character {ch!r} at offset {i}")
    tokens.append(_Token("end", "", n))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, sql: str):
        self.sql = sql
        self.tokens = tokenize(sql)
        self.pos = 0
        self._positional_count = 0

    # -- token plumbing -----------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        if token.kind != "end":
            self.pos += 1
        return token

    def error(self, message: str) -> SqlSyntaxError:
        token = self.peek()
        near = token.value or "end of input"
        return SqlSyntaxError(f"{message} near {near!r} in: {self.sql.strip()!r}")

    def accept_keyword(self, *words: str) -> str | None:
        token = self.peek()
        if token.kind == "keyword" and token.value in words:
            self.advance()
            return token.value
        return None

    def expect_keyword(self, word: str) -> None:
        if not self.accept_keyword(word):
            raise self.error(f"expected {word}")

    def accept_punct(self, *values: str) -> str | None:
        token = self.peek()
        if token.kind == "punct" and token.value in values:
            self.advance()
            return token.value
        return None

    def expect_punct(self, value: str) -> None:
        if not self.accept_punct(value):
            raise self.error(f"expected {value!r}")

    def expect_name(self) -> str:
        token = self.peek()
        if token.kind == "name":
            self.advance()
            return token.value
        # Non-reserved use of keywords as identifiers is not supported;
        # the generators never emit such names.
        raise self.error("expected an identifier")

    # -- entry points ---------------------------------------------------------

    def parse_statement(self) -> Statement:
        token = self.peek()
        if token.kind != "keyword":
            raise self.error("expected a statement keyword")
        if token.value == "SELECT":
            statement = self.parse_select()
        elif token.value == "INSERT":
            statement = self.parse_insert()
        elif token.value == "UPDATE":
            statement = self.parse_update()
        elif token.value == "DELETE":
            statement = self.parse_delete()
        elif token.value == "CREATE":
            statement = self.parse_create()
        elif token.value == "DROP":
            statement = self.parse_drop()
        elif token.value == "ANALYZE":
            statement = self.parse_analyze()
        else:
            raise self.error(f"unsupported statement {token.value}")
        if self.peek().kind != "end":
            raise self.error("unexpected trailing input")
        return statement

    # -- SELECT ----------------------------------------------------------------

    def parse_select(self) -> Select:
        self.expect_keyword("SELECT")
        distinct = bool(self.accept_keyword("DISTINCT"))
        items = [self.parse_select_item()]
        while self.accept_punct(","):
            items.append(self.parse_select_item())
        self.expect_keyword("FROM")
        source = self.parse_table_ref()
        joins: list[Join] = []
        while True:
            kind = None
            if self.accept_keyword("JOIN") or self.accept_keyword("INNER"):
                if self.tokens[self.pos - 1].value == "INNER":
                    self.expect_keyword("JOIN")
                kind = "inner"
            elif self.accept_keyword("LEFT"):
                self.accept_keyword("OUTER")
                self.expect_keyword("JOIN")
                kind = "left"
            if kind is None:
                break
            table = self.parse_table_ref()
            self.expect_keyword("ON")
            condition = self.parse_expr()
            joins.append(Join(kind, table, condition))

        where = self.parse_expr() if self.accept_keyword("WHERE") else None
        group_by: list[Expr] = []
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            group_by.append(self.parse_expr())
            while self.accept_punct(","):
                group_by.append(self.parse_expr())
        having = self.parse_expr() if self.accept_keyword("HAVING") else None
        order_by: list[OrderItem] = []
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            order_by.append(self.parse_order_item())
            while self.accept_punct(","):
                order_by.append(self.parse_order_item())
        limit: int | Param | None = None
        offset: int | Param = 0
        if self.accept_keyword("LIMIT"):
            limit = self.parse_row_count("LIMIT")
            if self.accept_keyword("OFFSET"):
                offset = self.parse_row_count("OFFSET")
        return Select(
            items=tuple(items),
            source=source,
            joins=tuple(joins),
            where=where,
            group_by=tuple(group_by),
            having=having,
            order_by=tuple(order_by),
            limit=limit,
            offset=offset,
            distinct=distinct,
        )

    def parse_row_count(self, what: str) -> int | Param:
        """LIMIT / OFFSET operand: an integer literal or a parameter."""
        token = self.peek()
        if token.kind == "param" or (token.kind, token.value) == ("punct", "?"):
            return self.parse_primary()
        return self.parse_nonnegative_int(what)

    def parse_nonnegative_int(self, what: str) -> int:
        token = self.peek()
        if token.kind != "number" or "." in token.value:
            raise self.error(f"{what} expects an integer")
        self.advance()
        return int(token.value)

    def parse_select_item(self) -> SelectItem:
        if self.accept_punct("*"):
            return SelectItem(expr=None)
        # "table.*"
        token = self.peek()
        if (
            token.kind == "name"
            and self.tokens[self.pos + 1].value == "."
            and self.tokens[self.pos + 2].value == "*"
        ):
            table = self.expect_name()
            self.expect_punct(".")
            self.expect_punct("*")
            return SelectItem(expr=None, star_table=table)
        expr = self.parse_expr()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_name()
        elif self.peek().kind == "name":
            alias = self.expect_name()
        return SelectItem(expr=expr, alias=alias)

    def parse_table_ref(self) -> TableRef:
        table = self.expect_name()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_name()
        elif self.peek().kind == "name":
            alias = self.expect_name()
        return TableRef(table, alias)

    def parse_order_item(self) -> OrderItem:
        expr = self.parse_expr()
        descending = False
        if self.accept_keyword("DESC"):
            descending = True
        else:
            self.accept_keyword("ASC")
        return OrderItem(expr, descending)

    # -- DML ---------------------------------------------------------------------

    def parse_insert(self) -> Insert:
        self.expect_keyword("INSERT")
        self.expect_keyword("INTO")
        table = self.expect_name()
        self.expect_punct("(")
        columns = [self.expect_name()]
        while self.accept_punct(","):
            columns.append(self.expect_name())
        self.expect_punct(")")
        self.expect_keyword("VALUES")
        rows: list[tuple[Expr, ...]] = []
        while True:
            self.expect_punct("(")
            values = [self.parse_expr()]
            while self.accept_punct(","):
                values.append(self.parse_expr())
            self.expect_punct(")")
            if len(values) != len(columns):
                raise self.error(
                    f"INSERT has {len(columns)} columns but {len(values)} values"
                )
            rows.append(tuple(values))
            if not self.accept_punct(","):
                break
        return Insert(table, tuple(columns), tuple(rows))

    def parse_update(self) -> Update:
        self.expect_keyword("UPDATE")
        table = self.expect_name()
        self.expect_keyword("SET")
        assignments = [self.parse_assignment()]
        while self.accept_punct(","):
            assignments.append(self.parse_assignment())
        where = self.parse_expr() if self.accept_keyword("WHERE") else None
        return Update(table, tuple(assignments), where)

    def parse_assignment(self) -> tuple[str, Expr]:
        column = self.expect_name()
        self.expect_punct("=")
        return column, self.parse_expr()

    def parse_delete(self) -> Delete:
        self.expect_keyword("DELETE")
        self.expect_keyword("FROM")
        table = self.expect_name()
        where = self.parse_expr() if self.accept_keyword("WHERE") else None
        return Delete(table, where)

    # -- DDL ---------------------------------------------------------------------

    def parse_create(self) -> Statement:
        self.expect_keyword("CREATE")
        if self.accept_keyword("TABLE"):
            return self.parse_create_table()
        unique = bool(self.accept_keyword("UNIQUE"))
        if self.accept_keyword("INDEX"):
            return self.parse_create_index(unique)
        raise self.error("expected TABLE or INDEX after CREATE")

    def parse_create_table(self) -> CreateTable:
        name = self.expect_name()
        self.expect_punct("(")
        columns: list[Column] = []
        primary_key: tuple[str, ...] = ()
        foreign_keys: list[ForeignKey] = []
        uniques: list[tuple[str, ...]] = []
        while True:
            if self.accept_keyword("PRIMARY"):
                self.expect_keyword("KEY")
                if primary_key:
                    raise self.error("duplicate PRIMARY KEY clause")
                primary_key = tuple(self.parse_name_list())
            elif self.accept_keyword("FOREIGN"):
                self.expect_keyword("KEY")
                fk_columns = self.parse_name_list()
                self.expect_keyword("REFERENCES")
                target = self.expect_name()
                target_columns = self.parse_name_list()
                on_delete = "restrict"
                if self.accept_keyword("ON"):
                    self.expect_keyword("DELETE")
                    if self.accept_keyword("CASCADE"):
                        on_delete = "cascade"
                    elif self.accept_keyword("RESTRICT"):
                        on_delete = "restrict"
                    elif self.accept_keyword("SET"):
                        self.expect_keyword("NULL")
                        on_delete = "set_null"
                    else:
                        raise self.error("expected CASCADE, RESTRICT or SET NULL")
                foreign_keys.append(
                    ForeignKey(tuple(fk_columns), target, tuple(target_columns),
                               on_delete)
                )
            elif self.accept_keyword("UNIQUE"):
                uniques.append(tuple(self.parse_name_list()))
            else:
                columns.append(self.parse_column_def())
            if not self.accept_punct(","):
                break
        self.expect_punct(")")
        schema = TableSchema(
            name=name,
            columns=columns,
            primary_key=primary_key,
            foreign_keys=foreign_keys,
            unique_constraints=uniques,
        )
        return CreateTable(schema)

    def parse_column_def(self) -> Column:
        name = self.expect_name()
        type_token = self.peek()
        if type_token.kind != "name":
            raise self.error(f"expected a type for column {name!r}")
        self.advance()
        type_text = type_token.value
        if self.accept_punct("("):
            size = self.parse_nonnegative_int("type size")
            self.expect_punct(")")
            type_text = f"{type_text}({size})"
        sql_type = type_from_name(type_text)
        nullable = True
        auto_increment = False
        while True:
            if self.accept_keyword("NOT"):
                self.expect_keyword("NULL")
                nullable = False
            elif self.accept_keyword("AUTOINCREMENT"):
                auto_increment = True
            else:
                break
        return Column(name, sql_type, nullable=nullable, auto_increment=auto_increment)

    def parse_name_list(self) -> list[str]:
        self.expect_punct("(")
        names = [self.expect_name()]
        while self.accept_punct(","):
            names.append(self.expect_name())
        self.expect_punct(")")
        return names

    def parse_create_index(self, unique: bool) -> CreateIndex:
        name = self.expect_name()
        self.expect_keyword("ON")
        table = self.expect_name()
        columns = self.parse_name_list()
        return CreateIndex(Index(name, tuple(columns), unique=unique), table)

    def parse_analyze(self) -> Analyze:
        self.expect_keyword("ANALYZE")
        if self.peek().kind == "name":
            return Analyze(self.expect_name())
        return Analyze(None)

    def parse_drop(self) -> DropTable:
        self.expect_keyword("DROP")
        self.expect_keyword("TABLE")
        if_exists = False
        if self.accept_keyword("IF"):
            self.expect_keyword("EXISTS")
            if_exists = True
        return DropTable(self.expect_name(), if_exists)

    # -- expressions ----------------------------------------------------------
    # precedence: OR < AND < NOT < comparison/IS/IN/LIKE/BETWEEN < add < mul < unary

    def parse_expr(self) -> Expr:
        return self.parse_or()

    def parse_or(self) -> Expr:
        left = self.parse_and()
        while self.accept_keyword("OR"):
            left = Or(left, self.parse_and())
        return left

    def parse_and(self) -> Expr:
        left = self.parse_not()
        while self.accept_keyword("AND"):
            left = And(left, self.parse_not())
        return left

    def parse_not(self) -> Expr:
        if self.accept_keyword("NOT"):
            return Not(self.parse_not())
        return self.parse_predicate()

    def parse_predicate(self) -> Expr:
        left = self.parse_additive()
        token = self.peek()
        if token.kind == "punct" and token.value in ("=", "<>", "!=", "<", "<=", ">", ">="):
            self.advance()
            op = "<>" if token.value == "!=" else token.value
            return Comparison(op, left, self.parse_additive())
        if token.kind == "keyword":
            negated = False
            if token.value == "NOT":
                # NOT here only as part of IN/LIKE/BETWEEN (e.g. "x NOT IN")
                nxt = self.tokens[self.pos + 1]
                if nxt.kind == "keyword" and nxt.value in ("IN", "LIKE", "BETWEEN"):
                    self.advance()
                    negated = True
                    token = self.peek()
            if token.value == "IS":
                self.advance()
                is_negated = bool(self.accept_keyword("NOT"))
                self.expect_keyword("NULL")
                return IsNull(left, negated=is_negated)
            if token.value == "IN":
                self.advance()
                self.expect_punct("(")
                options = [self.parse_expr()]
                while self.accept_punct(","):
                    options.append(self.parse_expr())
                self.expect_punct(")")
                return InList(left, tuple(options), negated=negated)
            if token.value == "LIKE":
                self.advance()
                pattern, escape = self.parse_additive(), None
                if self.accept_keyword("ESCAPE"):
                    token = self.peek()
                    if token.kind != "string" or len(token.value) != 1:
                        raise self.error("ESCAPE takes a one-character string")
                    escape = self.advance().value
                return Like(left, pattern, negated=negated, escape=escape)
            if token.value == "BETWEEN":
                self.advance()
                low = self.parse_additive()
                self.expect_keyword("AND")
                high = self.parse_additive()
                return Between(left, low, high, negated=negated)
        return left

    def parse_additive(self) -> Expr:
        left = self.parse_multiplicative()
        while True:
            if self.accept_punct("||"):
                left = Concat(left, self.parse_multiplicative())
            elif self.accept_punct("+"):
                left = Arithmetic("+", left, self.parse_multiplicative())
            elif self.accept_punct("-"):
                left = Arithmetic("-", left, self.parse_multiplicative())
            else:
                return left

    def parse_multiplicative(self) -> Expr:
        left = self.parse_unary()
        while True:
            if self.accept_punct("*"):
                left = Arithmetic("*", left, self.parse_unary())
            elif self.accept_punct("/"):
                left = Arithmetic("/", left, self.parse_unary())
            elif self.accept_punct("%"):
                left = Arithmetic("%", left, self.parse_unary())
            else:
                return left

    def parse_unary(self) -> Expr:
        if self.accept_punct("-"):
            return Negate(self.parse_unary())
        if self.accept_punct("+"):
            return self.parse_unary()
        return self.parse_primary()

    def parse_primary(self) -> Expr:
        token = self.peek()
        if token.kind == "number":
            self.advance()
            if "." in token.value:
                return Literal(float(token.value))
            return Literal(int(token.value))
        if token.kind == "string":
            self.advance()
            return Literal(token.value)
        if token.kind == "param":
            self.advance()
            return Param(token.value)
        if token.kind == "punct" and token.value == "?":
            self.advance()
            self._positional_count += 1
            return Param(str(self._positional_count))
        if token.kind == "keyword" and token.value == "NULL":
            self.advance()
            return Literal(None)
        if token.kind == "keyword" and token.value in ("TRUE", "FALSE"):
            self.advance()
            return Literal(token.value == "TRUE")
        if token.kind == "punct" and token.value == "(":
            self.advance()
            expr = self.parse_expr()
            self.expect_punct(")")
            return expr
        if token.kind == "name":
            return self.parse_name_expression()
        raise self.error("expected an expression")

    def parse_name_expression(self) -> Expr:
        name = self.expect_name()
        # function call (scalar or aggregate)
        if self.peek().kind == "punct" and self.peek().value == "(":
            upper = name.upper()
            self.advance()  # consume "("
            if upper in AGGREGATE_NAMES:
                distinct = bool(self.accept_keyword("DISTINCT"))
                if self.accept_punct("*"):
                    if upper != "COUNT":
                        raise self.error(f"{upper}(*) is only valid for COUNT")
                    self.expect_punct(")")
                    return AggregateCall("COUNT", None, distinct=False)
                argument = self.parse_expr()
                self.expect_punct(")")
                return AggregateCall(upper, argument, distinct=distinct)
            args: list[Expr] = []
            if not self.accept_punct(")"):
                args.append(self.parse_expr())
                while self.accept_punct(","):
                    args.append(self.parse_expr())
                self.expect_punct(")")
            return FunctionCall(upper, tuple(args))
        # qualified column
        if self.accept_punct("."):
            column = self.expect_name()
            return ColumnRef(name, column)
        return ColumnRef(None, name)


def parse_sql(sql: str) -> Statement:
    """Parse one SQL statement; raises SqlSyntaxError on malformed input."""
    return _Parser(sql).parse_statement()


def parse_select(sql: str) -> Select:
    """Parse SQL that must be a SELECT (used by unit descriptors)."""
    statement = parse_sql(sql)
    if not isinstance(statement, Select):
        raise SqlSyntaxError(f"expected a SELECT statement, got: {sql.strip()!r}")
    return statement
