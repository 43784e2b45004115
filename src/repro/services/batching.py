"""Batched data access for unit services.

The generated unit queries are *per-instance*: a hierarchical index
fetches the children of each parent with one ``:parent`` query, and an
index fed a multichoice selection runs one query per chosen oid.  That
is the classic N+1 pattern — correct, but it pays the per-query wire
latency N times.

This module rewrites such queries at the AST level: the single
``column = :param`` conjunct becomes ``column IN (:param__0, ...,
:param__k)`` and the equality column is projected as ``__parent`` so
the caller can regroup the flat result by parent.  Parameter lists are
padded to power-of-two bucket sizes so the rdb plan cache sees only a
handful of distinct statements per descriptor query instead of one per
batch width.

The rewrite refuses anything it cannot regroup faithfully (DISTINCT,
GROUP BY, aggregates, LIMIT/OFFSET, params used more than once); the
caller then falls back to the per-instance loop, so batching is always
an optimisation, never a semantics change.

Invariants the rewrite preserves (preconditions checked per statement):

- the batch parameter appears in exactly one ``X = :param`` equality
  conjunct and nowhere else, so substituting the IN-list cannot change
  any other predicate;
- the statement has no DISTINCT, grouping, aggregates, or LIMIT/OFFSET
  — any of those make per-parent results depend on the *set* of rows
  fetched, which an IN-list over many parents would merge;
- padding repeats the last key, which is harmless because duplicate
  IN-list members match the same rows exactly once;
- regrouping by the projected ``__parent`` column reproduces the rows
  each per-parent query would have returned, in the same relative
  order within a parent.

Observed savings (per-parent queries avoided) are counted into the
``services.batch.saved_queries`` metric when observability is on.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache

from repro.rdb.expr import (
    Comparison,
    Expr,
    InList,
    Param,
    and_all,
    conjuncts,
)
from repro.rdb.executor import collect_aggregates
from repro.rdb.sqlparser import Select, SelectItem, parse_select

#: alias under which the rewritten query exposes the parent key.
PARENT_COLUMN = "__parent"

#: largest IN-list a single batched query carries; wider parent sets
#: are chunked so bucket sizes stay bounded (1, 2, 4, ..., 64).
MAX_BATCH_SIZE = 64


def _subexpressions(expr: Expr):
    """``expr`` and every expression nested inside it."""
    yield expr
    if not dataclasses.is_dataclass(expr):
        return
    for field in dataclasses.fields(expr):
        value = getattr(expr, field.name)
        if isinstance(value, Expr):
            yield from _subexpressions(value)
        elif isinstance(value, tuple):
            for item in value:
                if isinstance(item, Expr):
                    yield from _subexpressions(item)


def _params_in(expr: Expr | None) -> list[str]:
    if expr is None:
        return []
    return [
        node.name for node in _subexpressions(expr) if isinstance(node, Param)
    ]


def _select_expressions(select: Select):
    """Every expression the statement evaluates (for param accounting)."""
    for item in select.items:
        if item.expr is not None:
            yield item.expr
    for join in select.joins:
        yield join.condition
    if select.where is not None:
        yield select.where
    yield from select.group_by
    if select.having is not None:
        yield select.having
    for order in select.order_by:
        yield order.expr


def select_params(select: Select) -> set[str]:
    """All named parameters the statement references."""
    names: set[str] = set()
    for expr in _select_expressions(select):
        names.update(_params_in(expr))
    return names


def _match_eq_param(conjunct: Expr, param: str) -> Expr | None:
    """The column-side expression of ``X = :param`` (either side)."""
    if not isinstance(conjunct, Comparison) or conjunct.op != "=":
        return None
    for key_side, other in (
        (conjunct.left, conjunct.right),
        (conjunct.right, conjunct.left),
    ):
        if (
            isinstance(other, Param)
            and other.name == param
            and key_side.column_refs()
            and not _params_in(key_side)
        ):
            return key_side
    return None


def bucket_size(count: int) -> int:
    """Smallest power of two ≥ ``count``, capped at MAX_BATCH_SIZE."""
    size = 1
    while size < count and size < MAX_BATCH_SIZE:
        size *= 2
    return size


@lru_cache(maxsize=256)
def batched_select(sql: str, param: str, size: int) -> Select | None:
    """Rewrite ``sql`` so ``X = :param`` becomes an IN-list of ``size``
    placeholders and ``X`` is projected as ``__parent``.

    Returns ``None`` when the statement cannot be batched faithfully.
    Cached because the same descriptor query is rewritten on every
    request for only a handful of bucket sizes.
    """
    select = parse_select(sql)
    if (
        select.distinct
        or select.group_by
        or select.having is not None
        or select.limit is not None
        or select.offset
    ):
        return None
    if any(
        item.expr is not None and collect_aggregates(item.expr)
        for item in select.items
    ):
        return None

    key_expr = None
    rest: list[Expr] = []
    for conjunct in conjuncts(select.where):
        matched = _match_eq_param(conjunct, param) if key_expr is None else None
        if matched is not None:
            key_expr = matched
        else:
            rest.append(conjunct)
    if key_expr is None:
        return None
    # The param may appear exactly once — anywhere else and substituting
    # an IN-list would change the meaning of the other occurrence.
    all_params = []
    for expr in _select_expressions(select):
        all_params.extend(_params_in(expr))
    if all_params.count(param) != 1:
        return None

    placeholders = tuple(Param(f"{param}__{i}") for i in range(size))
    in_conjunct = InList(key_expr, placeholders)
    new_where = and_all(rest + [in_conjunct])
    new_items = select.items + (
        SelectItem(expr=key_expr, alias=PARENT_COLUMN),
    )
    return dataclasses.replace(select, items=new_items, where=new_where)


def batch_params(param: str, values: list, size: int) -> dict:
    """Placeholder bindings for one bucket, padded by repeating the
    last value (duplicate IN-list members select no extra rows)."""
    padded = list(values) + [values[-1]] * (size - len(values))
    return {f"{param}__{i}": padded[i] for i in range(size)}


def _chunks(values: list, width: int):
    for start in range(0, len(values), width):
        yield values[start:start + width]


def _distinct_keys(values) -> list:
    """Order-preserving dedup, Nones dropped (NULL never equi-matches)."""
    seen = set()
    out = []
    for value in values:
        if value is None or value in seen:
            continue
        seen.add(value)
        out.append(value)
    return out


def load_grouped(ctx, sql: str, param: str, parents) -> dict | None:
    """Fetch ``sql`` for every parent key in one IN-list query per
    bucket and regroup the rows by parent.

    Returns ``{parent: [row, ...]}`` (parents with no rows absent), or
    ``None`` when the query cannot be batched — callers keep their
    per-parent loop as the fallback path.
    """
    keys = _distinct_keys(parents)
    if not keys:
        return {}
    grouped: dict = {}
    queries_run = 0
    for chunk in _chunks(keys, MAX_BATCH_SIZE):
        size = bucket_size(len(chunk))
        select = batched_select(sql, param, size)
        if select is None:
            return None
        cache_key = f"__batch__:{param}:{size}:{sql}"
        result = ctx.query_statement(
            select, batch_params(param, chunk, size), cache_key
        )
        queries_run += 1
        for row in result:
            grouped.setdefault(row[PARENT_COLUMN], []).append(row)
    saved = len(keys) - queries_run
    obs = getattr(ctx, "obs", None)
    if saved > 0 and obs is not None and obs.enabled:
        obs.metrics.counter("services.batch.saved_queries").inc(saved)
    return grouped


def query_list_param(ctx, sql: str, params: dict) -> list | None:
    """Run ``sql`` once per batch for a list-valued parameter.

    When exactly one parameter the statement references holds a list,
    the rows matching *any* of its values are fetched with IN-list
    queries (or a per-value loop if the rewrite is refused) and
    returned flat.  Returns ``None`` when no referenced parameter is
    list-valued — the caller runs its normal single query.
    """
    if not any(isinstance(value, (list, tuple)) for value in params.values()):
        return None  # no input is a list: nothing to batch, no AST walk
    select = _parsed(sql)
    listy = [
        name
        for name in sorted(select_params(select))
        if isinstance(params.get(name), (list, tuple))
    ]
    if len(listy) != 1:
        return None
    param = listy[0]
    values = _distinct_keys(params[param])
    if not values:
        return []
    grouped = load_grouped(ctx, sql, param, values)
    if grouped is not None:
        return [row for value in values for row in grouped.get(value, [])]
    rows: list = []
    for value in values:
        rows.extend(ctx.query(sql, {**params, param: value}))
    return rows


@lru_cache(maxsize=256)
def _parsed(sql: str) -> Select:
    return parse_select(sql)
