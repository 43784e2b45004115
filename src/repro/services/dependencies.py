"""A unit's dependency keys, read from the statements it runs.

The keys are those a commit publishes (:class:`repro.er.mapping.
TableKeys`), by DESIGN §12's rules.  Per statement:

- an ``=`` / ``IN`` conjunct binding a parameter to a column the table
  keys list holds ``(name, bound value)`` and makes its table *keyed*
  (a row moving into or out of the match publishes that key);
- a table joined by its ``oid`` to a keyed table holds each returned
  row's oid — or its names whole under a further conjunct (one in
  ``ON`` counts, and so does an equality of two columns neither of
  which is an ``oid``) or a ``LIMIT`` / ``OFFSET``;
- every other table read holds its names whole.

So a hand-optimized query (§1) is held by what it reads.  A plan is
read once per deployed descriptor version
(:meth:`repro.services.base.RuntimeContext.key_plan`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.rdb.expr import ColumnRef, Comparison, Param, conjuncts, sarg
from repro.rdb.sqlparser import parse_select

#: the key column of every mapped entity table
ROW_KEY = "oid"


def block_statement(query: str) -> str:
    """The one statement a scroller runs per block: block size and
    offset are parameters, so every block shares one plan."""
    return f"{query} LIMIT :_block_size OFFSET :_block_offset"


@dataclass(frozen=True)
class StatementKeys:
    """What one statement's result depends on: each ``(name,
    parameter)`` of ``bound`` is held at the values bound to the
    parameter, each ``(name, bean property)`` of ``rows`` at the
    returned rows' values, each name of ``whole`` whole.  Depth 0 binds
    the unit's inputs and returns the bean's rows; hierarchy level ``d``
    binds ``:parent`` to the oids at depth ``d - 1``."""

    depth: int = 0
    bound: tuple = ()
    rows: tuple = ()
    whole: tuple = ()


def key_plan(descriptor, table_keys: dict) -> tuple[StatementKeys, ...]:
    """One :class:`StatementKeys` per statement the unit's service runs.
    A descriptor without SQL, or run by a custom service or a plug-in's
    (whose statements are their own, not its SQL), holds its
    ``<dependsOn>`` names whole."""
    # a local import: repro.services.units imports this module
    from repro.services.units import CONTENT_UNIT_SERVICES

    names = (*descriptor.depends_on_entities, *descriptor.depends_on_roles)
    if descriptor.custom_service or not descriptor.query \
            or descriptor.kind not in CONTENT_UNIT_SERVICES:
        return (StatementKeys(whole=names),)
    query = descriptor.query
    if descriptor.kind == "scroller":
        query = block_statement(query)
    statements = [(query, 0, descriptor.properties)]
    if descriptor.count_query:
        statements.append((descriptor.count_query, 0, ()))
    statements += [(level.query, depth, level.properties)
                   for depth, level in enumerate(descriptor.levels, 1)]
    return tuple(statement_keys(sql, depth, properties, table_keys, names)
                 for sql, depth, properties in statements)


def held_keys(plan, bean, inputs: dict) -> tuple:
    """The keys ``bean``, computed from ``inputs``, holds by ``plan``."""
    held: dict = {}  # an ordered set
    depths = [[bean.current] if bean.current is not None else bean.rows]
    for statement in plan:
        while len(depths) <= statement.depth:
            depths.append([child for row in depths[-1]
                           for child in row.get("_children", ())])
        params = inputs if not statement.depth else {
            "parent": [row.get(ROW_KEY) for row in depths[statement.depth - 1]]}
        for name, param in statement.bound:
            value = params.get(param)
            for one in value if isinstance(value, (list, tuple)) else (value,):
                if one is not None:
                    held[(name, one)] = None
        for name, prop in statement.rows:
            held.update(((name, row[prop]), None)
                        for row in depths[statement.depth]
                        if row.get(prop) is not None)
        held.update(dict.fromkeys(statement.whole))
    return tuple(held)


def statement_keys(sql: str, depth: int, properties, table_keys: dict,
                   preferred=()) -> StatementKeys:
    """The module's rules for one statement.  Of the names one column
    publishes — a write publishes them all from the same row — the
    first in ``preferred`` (the ``<dependsOn>`` names) is held, else the
    table's first."""
    select = parse_select(sql)
    tables = {ref.binding: ref.table
              for ref in (select.source, *(j.table for j in select.joins))}

    def name_of(alias: str, column: str) -> str | None:
        keys = table_keys.get(tables[alias])
        names = [n for n, col in keys.pairs if col == column] if keys else []
        return next((n for n in names if n in preferred),
                    names[0] if names else None)

    bound, keyed, links = [], set(), []
    further = select.limit is not None or select.offset != 0 \
        or any(join.kind != "inner" for join in select.joins)
    for conjunct in [c for join in select.joins
                     for c in conjuncts(join.condition)] \
            + conjuncts(select.where):
        if isinstance(conjunct, Comparison) and conjunct.op == "=" \
                and isinstance(conjunct.left, ColumnRef) \
                and isinstance(conjunct.right, ColumnRef) \
                and conjunct.left.table != conjunct.right.table \
                and {conjunct.left.table, conjunct.right.table} \
                <= set(tables) \
                and ROW_KEY in (conjunct.left.column, conjunct.right.column):
            links.append((conjunct.left, conjunct.right))
            continue
        classified, name = sarg(conjunct), None
        if classified is not None and classified.column is not None \
                and not classified.negated \
                and (classified.kind == "in" or classified.op == "=") \
                and all(isinstance(o, Param) for o in classified.operands):
            alias = classified.table or (
                next(iter(tables)) if len(tables) == 1 else None)
            if alias in tables:
                name = name_of(alias, classified.column)
        if name is None:
            further = True
            continue
        bound += [(name, operand.name) for operand in classified.operands]
        keyed.add(alias)

    outputs = {prop.column: prop.name for prop in properties}
    rows, whole = [], []
    for alias, table in tables.items():
        if alias in keyed:
            continue
        joined = any(side == ColumnRef(alias, ROW_KEY) and other.table in keyed
                     for link in links for side, other in (link, link[::-1]))
        prop = next((outputs.get(item.alias or ROW_KEY)
                     for item in select.items
                     if item.expr == ColumnRef(alias, ROW_KEY)
                     or len(tables) == 1
                     and item.expr == ColumnRef(None, ROW_KEY)), None)
        name = name_of(alias, ROW_KEY)
        if joined and not further and prop is not None and name:
            rows.append((name, prop))
        elif name:
            whole.append(name)
        else:  # a bridge's names, or a table no mapping names
            keys = table_keys.get(table)
            whole += keys.names if keys is not None else [table]
    return StatementKeys(depth, tuple(bound), tuple(rows), tuple(whole))
