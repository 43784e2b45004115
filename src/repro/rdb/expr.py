"""SQL expression AST and evaluation.

Expressions evaluate against a *scope* (anything with a
``lookup(table, column)`` method) plus a parameter mapping.  SQL's
three-valued logic is honoured: ``None`` is NULL/UNKNOWN, comparisons
with NULL yield UNKNOWN, and WHERE keeps a row only when its predicate
is strictly True.

Each value rule — an operator, a predicate test, a scalar function — is
one function here, called by the ``evaluate`` methods, by the code
:mod:`repro.rdb.compile` generates and by :mod:`repro.rdb.columnar`'s
batch kernels alike.  SQLite is the reference it is held to
(``tests/test_rdb_sql_grammar.py``); where the answers differ on
purpose, DESIGN §8 ("Expression values") records the decision.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Context, Decimal

from repro.errors import QueryError


class Expr:
    """Base expression node."""

    def evaluate(self, scope, params):
        raise NotImplementedError

    def column_refs(self) -> list["ColumnRef"]:
        """All column references in this subtree (for planning)."""
        return []


@dataclass(frozen=True)
class Literal(Expr):
    value: object

    def evaluate(self, scope, params):
        return self.value


@dataclass(frozen=True)
class ColumnRef(Expr):
    """A possibly table-qualified column reference."""

    table: str | None
    column: str

    def evaluate(self, scope, params):
        return scope.lookup(self.table, self.column)

    def column_refs(self) -> list["ColumnRef"]:
        return [self]

    @property
    def display(self) -> str:
        return f"{self.table}.{self.column}" if self.table else self.column


@dataclass(frozen=True)
class Param(Expr):
    """A named ``:name`` or positional ``?`` parameter placeholder."""

    name: str  # positional placeholders are named "1", "2", ...

    def evaluate(self, scope, params):
        if self.name not in params:
            _missing_param(self.name)
        return params[self.name]


def _missing_param(name):
    raise QueryError(f"missing query parameter {name!r}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class Arithmetic(Expr):
    op: str  # + - * / %
    left: Expr
    right: Expr

    def evaluate(self, scope, params):
        return ARITHMETIC[self.op](
            self.left.evaluate(scope, params), self.right.evaluate(scope, params)
        )

    def column_refs(self):
        return self.left.column_refs() + self.right.column_refs()


@dataclass(frozen=True)
class Concat(Expr):
    """SQL ``||`` string concatenation."""

    left: Expr
    right: Expr

    def evaluate(self, scope, params):
        return _concat(
            self.left.evaluate(scope, params), self.right.evaluate(scope, params)
        )

    def column_refs(self):
        return self.left.column_refs() + self.right.column_refs()


def _as_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return value if isinstance(value, str) else str(value)


def compare_values(lhs, rhs) -> int | None:
    """SQL comparison: None means UNKNOWN (a NULL operand).

    Mixed numeric types compare numerically; otherwise operands must be
    mutually comparable Python values.
    """
    if lhs is None or rhs is None:
        return None
    if isinstance(lhs, bool) or isinstance(rhs, bool):
        if isinstance(lhs, bool) and isinstance(rhs, bool):
            return (lhs > rhs) - (lhs < rhs)
        raise QueryError(f"cannot compare {lhs!r} with {rhs!r}")
    if _is_number(lhs) and _is_number(rhs):
        return (lhs > rhs) - (lhs < rhs)
    if type(lhs) is not type(rhs):
        raise QueryError(f"cannot compare {lhs!r} with {rhs!r}")
    return (lhs > rhs) - (lhs < rhs)


# The value rules, one function per operator, each written once: the
# ``evaluate`` methods below, generated row code
# (:mod:`repro.rdb.compile`) and the batch kernels' generic arms
# (:mod:`repro.rdb.columnar`) call the same functions and differ only in
# how they fetch the operands.  ``tests/test_rdb_sql_grammar.py`` holds
# them to SQLite.


def _arith_add(lhs, rhs):
    if lhs is None or rhs is None:
        return None
    if isinstance(lhs, str) and isinstance(rhs, str):
        return lhs + rhs
    if not (_is_number(lhs) and _is_number(rhs)):
        raise QueryError(f"arithmetic '+' needs numbers, got {lhs!r} and {rhs!r}")
    return lhs + rhs


def _arith_sub(lhs, rhs):
    if lhs is None or rhs is None:
        return None
    if not (_is_number(lhs) and _is_number(rhs)):
        raise QueryError(f"arithmetic '-' needs numbers, got {lhs!r} and {rhs!r}")
    return lhs - rhs


def _arith_mul(lhs, rhs):
    if lhs is None or rhs is None:
        return None
    if not (_is_number(lhs) and _is_number(rhs)):
        raise QueryError(f"arithmetic '*' needs numbers, got {lhs!r} and {rhs!r}")
    return lhs * rhs


def _arith_div(lhs, rhs):
    if lhs is None or rhs is None:
        return None
    if not (_is_number(lhs) and _is_number(rhs)):
        raise QueryError(f"arithmetic '/' needs numbers, got {lhs!r} and {rhs!r}")
    if rhs == 0:
        raise QueryError("division by zero")
    result = lhs / rhs
    # Integer division stays integral when exact, matching the engine's
    # INTEGER/FLOAT split.
    if isinstance(lhs, int) and isinstance(rhs, int) and result == int(result):
        return int(result)
    return result


def _arith_mod(lhs, rhs):
    """The remainder takes the dividend's sign (``-7 % 3`` is -1), as in
    the standard's MOD, PostgreSQL and SQLite."""
    if lhs is None or rhs is None:
        return None
    if not (_is_number(lhs) and _is_number(rhs)):
        raise QueryError(f"arithmetic '%' needs numbers, got {lhs!r} and {rhs!r}")
    if rhs == 0:
        raise QueryError("modulo by zero")
    if isinstance(lhs, int) and isinstance(rhs, int):
        remainder = abs(lhs) % abs(rhs)
        return -remainder if lhs < 0 else remainder
    return math.fmod(lhs, rhs)


#: arithmetic operator -> ``op(lhs, rhs)``
ARITHMETIC = {
    "+": _arith_add,
    "-": _arith_sub,
    "*": _arith_mul,
    "/": _arith_div,
    "%": _arith_mod,
}


def _concat(lhs, rhs):
    if lhs is None or rhs is None:
        return None
    return _as_text(lhs) + _as_text(rhs)


def _negate(value):
    if value is None:
        return None
    if not _is_number(value):
        raise QueryError(f"cannot negate {value!r}")
    return -value


def _sign_test(accepted: tuple):
    def test(lhs, rhs):
        sign = compare_values(lhs, rhs)
        return None if sign is None else sign in accepted
    return test


#: comparison operator -> ``test(lhs, rhs)``
COMPARISON_TESTS = {
    "=": _sign_test((0,)),
    "<>": _sign_test((-1, 1)),
    "<": _sign_test((-1,)),
    "<=": _sign_test((-1, 0)),
    ">": _sign_test((1,)),
    ">=": _sign_test((0, 1)),
}


def between_test(value, low, high, negated):
    """``low <= value AND value <= high`` in 3VL: one known-false side
    decides, so ``5 NOT BETWEEN 7 AND NULL`` is TRUE."""
    low_sign = compare_values(value, low)
    high_sign = compare_values(value, high)
    if low_sign is not None and low_sign < 0 \
            or high_sign is not None and high_sign > 0:
        return negated
    if low_sign is None or high_sign is None:
        return None
    return not negated


def in_test(value, candidates, negated, *env):
    """``candidates`` are the option values — or, given ``env``, the
    callables producing them as ``candidate(*env)``, called only as far
    as the first match: a lazy caller evaluates no option the
    interpreter would not."""
    if value is None:
        return None
    saw_null = False
    for candidate in candidates:
        if env:
            candidate = candidate(*env)
        if candidate is None:
            saw_null = True
        elif compare_values(value, candidate) == 0:
            return not negated
    return None if saw_null else negated


def like_test(value, match, negated):
    """``match`` is the pattern's :func:`like_matcher` (the pattern was
    not NULL)."""
    if value is None:
        return None
    matched = bool(match(str(value)))
    return not matched if negated else matched


def _like_dyn(value, pattern, negated, escape):
    """LIKE against a pattern evaluated per row: the matcher is looked
    up (one LRU probe) and handed to the shared test."""
    if value is None or pattern is None:
        return None
    return like_test(value, like_matcher(str(pattern), escape)[0], negated)


@dataclass(frozen=True)
class Comparison(Expr):
    op: str  # = <> < <= > >=
    left: Expr
    right: Expr

    def evaluate(self, scope, params):
        return COMPARISON_TESTS[self.op](
            self.left.evaluate(scope, params), self.right.evaluate(scope, params)
        )

    def column_refs(self):
        return self.left.column_refs() + self.right.column_refs()


@dataclass(frozen=True)
class And(Expr):
    left: Expr
    right: Expr

    def evaluate(self, scope, params):
        lhs = self.left.evaluate(scope, params)
        if lhs is False:
            return False
        rhs = self.right.evaluate(scope, params)
        if rhs is False:
            return False
        if lhs is None or rhs is None:
            return None
        return True

    def column_refs(self):
        return self.left.column_refs() + self.right.column_refs()


def conjuncts(expr: Expr | None) -> list[Expr]:
    """``expr`` flattened along its AND tree (``None`` has none)."""
    if expr is None:
        return []
    if isinstance(expr, And):
        return conjuncts(expr.left) + conjuncts(expr.right)
    return [expr]


def and_all(parts) -> Expr | None:
    """The inverse of :func:`conjuncts`: ``parts`` joined left-deep by
    AND (``None`` when there are none)."""
    combined = None
    for part in parts:
        combined = part if combined is None else And(combined, part)
    return combined


@dataclass(frozen=True)
class Or(Expr):
    left: Expr
    right: Expr

    def evaluate(self, scope, params):
        lhs = self.left.evaluate(scope, params)
        if lhs is True:
            return True
        rhs = self.right.evaluate(scope, params)
        if rhs is True:
            return True
        if lhs is None or rhs is None:
            return None
        return False

    def column_refs(self):
        return self.left.column_refs() + self.right.column_refs()


@dataclass(frozen=True)
class Not(Expr):
    operand: Expr

    def evaluate(self, scope, params):
        value = self.operand.evaluate(scope, params)
        if value is None:
            return None
        return not value

    def column_refs(self):
        return self.operand.column_refs()


@dataclass(frozen=True)
class Negate(Expr):
    operand: Expr

    def evaluate(self, scope, params):
        return _negate(self.operand.evaluate(scope, params))

    def column_refs(self):
        return self.operand.column_refs()


@dataclass(frozen=True)
class IsNull(Expr):
    operand: Expr
    negated: bool = False

    def evaluate(self, scope, params):
        value = self.operand.evaluate(scope, params)
        result = value is None
        return not result if self.negated else result

    def column_refs(self):
        return self.operand.column_refs()


@dataclass(frozen=True)
class InList(Expr):
    operand: Expr
    options: tuple[Expr, ...]
    negated: bool = False

    def evaluate(self, scope, params):
        return in_test(
            self.operand.evaluate(scope, params),
            [option.evaluate for option in self.options], self.negated,
            scope, params,
        )

    def column_refs(self):
        refs = self.operand.column_refs()
        for option in self.options:
            refs += option.column_refs()
        return refs


@dataclass(frozen=True)
class Like(Expr):
    """SQL LIKE with ``%`` and ``_`` wildcards (case-sensitive); after
    ``escape``, the next pattern character stands for itself."""

    operand: Expr
    pattern: Expr
    negated: bool = False
    escape: str | None = None

    def evaluate(self, scope, params):
        return _like_dyn(
            self.operand.evaluate(scope, params),
            self.pattern.evaluate(scope, params), self.negated, self.escape,
        )

    def column_refs(self):
        return self.operand.column_refs() + self.pattern.column_refs()


def _like_to_regex(pattern: str, escape: str | None = None) -> re.Pattern:
    out = []
    chars = iter(pattern)
    for ch in chars:
        if ch == escape:
            ch = next(chars, None)
            # a pattern ending in its escape character matches nothing
            out.append("(?!)" if ch is None else re.escape(ch))
        elif ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("^" + "".join(out) + r"\Z", re.DOTALL)


@functools.lru_cache(maxsize=512)
def like_matcher(pattern: str, escape: str | None = None):
    """``(match, runs)`` for one LIKE pattern, classified once for every
    lowered form (generated row code, batch kernels): ``match(text)`` is
    truthy iff ``text`` matches, and ``runs`` are the literal stretches
    between wildcards — each a substring of every match, which is what
    the column store's trigram postings are probed with.  A pattern of
    one run needs no regex: no wildcard is ``==``, ``%run%`` is ``in``,
    ``run%`` / ``%run`` are ``startswith`` / ``endswith``."""
    runs, wildcards = [""], ""
    chars = iter(pattern)
    for ch in chars:
        if ch == escape:
            ch = next(chars, None)
            if ch is None:
                return _like_to_regex(pattern, escape).match, ()
            runs[-1] += ch
        elif ch in "%_":
            wildcards += ch
            runs.append("")
        else:
            runs[-1] += ch
    literal = "".join(runs)  # the one non-empty run of the shapes below
    if not wildcards:
        match = literal.__eq__
    elif wildcards == "%%" and runs[0] == runs[2] == "":
        match = lambda text: literal in text
    elif wildcards == "%" and runs[1] == "":
        match = lambda text: text.startswith(literal)
    elif wildcards == "%" and runs[0] == "":
        match = lambda text: text.endswith(literal)
    else:
        match = _like_to_regex(pattern, escape).match
    return match, tuple(runs)


@dataclass(frozen=True)
class Between(Expr):
    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False

    def evaluate(self, scope, params):
        return between_test(
            self.operand.evaluate(scope, params),
            self.low.evaluate(scope, params),
            self.high.evaluate(scope, params), self.negated,
        )

    def column_refs(self):
        return (
            self.operand.column_refs()
            + self.low.column_refs()
            + self.high.column_refs()
        )


@dataclass(frozen=True)
class Sarg:
    """One predicate conjunct classified as ``subject ⟨op⟩ operands``.

    ``kind`` is ``cmp`` / ``between`` / ``in`` / ``like`` / ``null``;
    ``op`` is a comparison's operator *with the subject on the left*
    (None for the other kinds), ``operands`` the right-hand expressions
    (bound, bounds, options, pattern; none for ``null``).  ``column`` /
    ``table`` name the subject when it is a plain column reference — a
    comparison's only one — and are None when it is computed
    (``UPPER(title) LIKE …``, ``a = b``): the predicate's shape is then
    all a reader can use.  ``constant``: every operand is free of column
    references, so it can be evaluated once per execution."""

    kind: str
    column: str | None
    table: str | None
    op: str | None
    operands: tuple[Expr, ...]
    constant: bool
    negated: bool
    #: LIKE's escape character
    escape: str | None


#: a comparison operator as read from the other side
_FLIPPED_OP = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def sarg(conjunct: Expr) -> Sarg | None:
    """The one recogniser of ``column ⟨op⟩ operands``: access-path
    choice, the cost model and the batch kernels all read the record it returns instead of matching node
    shapes themselves.  None for anything else (OR, NOT, a bare boolean
    …).  Classified once per node — the record rides the immutable AST
    node it describes."""
    memo = conjunct.__dict__
    if "_sarg" not in memo:
        memo["_sarg"] = _classify(conjunct)
    return memo["_sarg"]


def _classify(conjunct: Expr) -> Sarg | None:
    op = escape = None
    negated = False
    if isinstance(conjunct, Comparison):
        kind, op = "cmp", conjunct.op
        subject, operands = conjunct.left, (conjunct.right,)
        if op not in _FLIPPED_OP:
            return None
        if isinstance(conjunct.right, ColumnRef):
            if isinstance(subject, ColumnRef):
                subject = None  # column against column: neither is "the" one
            else:
                subject, operands = conjunct.right, (conjunct.left,)
                op = _FLIPPED_OP[op]
    elif isinstance(conjunct, Between):
        kind, subject = "between", conjunct.operand
        operands, negated = (conjunct.low, conjunct.high), conjunct.negated
    elif isinstance(conjunct, InList):
        kind, subject = "in", conjunct.operand
        operands, negated = conjunct.options, conjunct.negated
    elif isinstance(conjunct, Like):
        kind, subject = "like", conjunct.operand
        operands, negated = (conjunct.pattern,), conjunct.negated
        escape = conjunct.escape
    elif isinstance(conjunct, IsNull):
        kind, subject, operands = "null", conjunct.operand, ()
        negated = conjunct.negated
    else:
        return None
    plain = isinstance(subject, ColumnRef)
    return Sarg(
        kind, subject.column if plain else None,
        subject.table if plain else None, op, operands,
        not any(operand.column_refs() for operand in operands),
        negated, escape,
    )


_SCALAR_FUNCTIONS = {}
#: scalar functions whose arity is not pinned to one
VARIADIC_FUNCTIONS = ("COALESCE", "CONCAT", "ROUND", "SUBSTR")


def _scalar(name):
    def register(func):
        _SCALAR_FUNCTIONS[name] = func
        return func
    return register


@_scalar("UPPER")
def _fn_upper(args):
    (value,) = args
    return None if value is None else str(value).upper()


@_scalar("LOWER")
def _fn_lower(args):
    (value,) = args
    return None if value is None else str(value).lower()


@_scalar("LENGTH")
def _fn_length(args):
    (value,) = args
    return None if value is None else len(str(value))


@_scalar("ABS")
def _fn_abs(args):
    (value,) = args
    if value is None:
        return None
    if not _is_number(value):
        raise QueryError(f"ABS needs a number, got {value!r}")
    return abs(value)


#: wide enough to quantize any double below 2**52 to 30 places
_ROUND_CONTEXT = Context(prec=64)


@_scalar("ROUND")
def _fn_round(args):
    """ROUND as SQLite reads it: the value's shortest decimal form
    rounded half away from zero (``ROUND(2.5)`` is 3.0, ``ROUND(2.675,
    2)`` 2.68) to 0..30 places (a negative count reads as 0), always a
    float.  SQLite's own printf rounding differs a few ulps below a half
    (DESIGN §8)."""
    if len(args) not in (1, 2):
        raise QueryError("ROUND takes one or two arguments")
    if None in args:
        return None
    value = args[0]
    if not _is_number(value):
        raise QueryError(f"ROUND needs a number, got {value!r}")
    if not -2 ** 52 < value < 2 ** 52:  # no fraction left (or not finite)
        return float(value)
    places = min(max(int(args[1]), 0), 30) if len(args) == 2 else 0
    return float(Decimal(repr(value)).quantize(
        Decimal(1).scaleb(-places), ROUND_HALF_UP, _ROUND_CONTEXT))


@_scalar("COALESCE")
def _fn_coalesce(args):
    for value in args:
        if value is not None:
            return value
    return None


@_scalar("CONCAT")
def _fn_concat(args):
    return "".join(_as_text(a) for a in args if a is not None)


@_scalar("SUBSTR")
def _fn_substr(args):
    """The 1-based window ``[start, start + length)``, clamped to the
    text only after it is placed: ``SUBSTR('hello', 0, 2)`` is ``'h'``.
    A start below 1 does not count from the end, and a negative length
    raises (both as in PostgreSQL)."""
    if len(args) not in (2, 3):
        raise QueryError("SUBSTR takes two or three arguments")
    if None in args:
        return None
    start = int(args[1])
    end = None
    if len(args) == 3:
        length = int(args[2])
        if length < 0:
            raise QueryError(f"SUBSTR length must not be negative, got {length}")
        end = max(start - 1 + length, 0)
    return str(args[0])[max(start - 1, 0):end]


@dataclass(frozen=True)
class FunctionCall(Expr):
    name: str
    args: tuple[Expr, ...]

    def evaluate(self, scope, params):
        func = _SCALAR_FUNCTIONS.get(self.name.upper())
        if func is None:
            raise QueryError(f"unknown function {self.name!r}")
        values = [arg.evaluate(scope, params) for arg in self.args]
        if self.name.upper() not in VARIADIC_FUNCTIONS and len(values) != 1:
            raise QueryError(f"{self.name} takes exactly one argument")
        return func(values)

    def column_refs(self):
        refs: list[ColumnRef] = []
        for arg in self.args:
            refs += arg.column_refs()
        return refs


AGGREGATE_NAMES = ("COUNT", "SUM", "AVG", "MIN", "MAX")


@dataclass(frozen=True)
class AggregateCall(Expr):
    """``COUNT(*)``, ``SUM(expr)``... — only valid in SELECT/HAVING.

    Evaluation happens in the executor's grouping operator; evaluating an
    aggregate as a plain scalar is an error the planner reports earlier,
    but guard here too.
    """

    func: str
    argument: Expr | None  # None means COUNT(*)
    distinct: bool = False

    def evaluate(self, scope, params):
        raise QueryError(
            f"aggregate {self.func} used outside SELECT/HAVING of a grouped query"
        )

    def column_refs(self):
        return [] if self.argument is None else self.argument.column_refs()
