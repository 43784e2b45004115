"""Selectivity and cost estimation for the SELECT planner.

A deliberately small Selinger-style model: every predicate conjunct gets
a selectivity in (0, 1], access paths and joins get a scalar cost, and
the planner picks the cheapest alternative.  Estimates prefer ANALYZE
statistics (:mod:`repro.rdb.statistics`) when a table has them, then
what the declared schema implies, and fall back to the classic fixed
constants otherwise.  Base cardinality always comes from the *live*
row count — it is free to read and never stale — while distributions
(distinct counts, min/max) come from the snapshot.

Only plan *shape* depends on these numbers; results never do, because
every scan re-checks the predicate it consumed.

Assumptions the model rests on (the classic Selinger simplifications):

- **uniformity** — values are spread evenly across a column's range,
  so equality selects ``1/distinct`` and a range predicate selects the
  covered fraction of ``[min, max]``;
- **independence** — conjunct selectivities multiply; correlated
  predicates (e.g. ``year = 2002 AND volume = 36``) are over-filtered
  and their plans look cheaper than they run;
- **statistics are what the last ANALYZE saw** — distributions come
  from that snapshot and nothing refreshes it: re-run ANALYZE after a
  bulk load.  Base cardinality is always the live row count, so a
  growing table degrades estimate *detail*, never its scale;
- **the schema is knowledge** — without statistics a column's distinct
  count comes from a unique index (the table's live rows) or a
  single-column foreign key (the referenced table's live rows, while
  it has any); only a column neither describes takes the fixed
  constants;
- **costs are abstract units** (rows touched plus per-structure
  constants), meaningful only relative to each other — the planner
  compares alternatives, it never predicts wall-clock time.

When an estimate misleads the planner, the damage is a slower plan,
never a wrong result; the slow-query log (``repro.obs``) records the
chosen access path precisely so such plans can be spotted and the
descriptor query or its indexes tuned.
"""

from __future__ import annotations

import math

from repro.rdb.expr import (
    Expr,
    Literal,
    Not,
    Or,
    sarg,
)

#: fixed fallback selectivities (System R's famous magic numbers)
DEFAULT_EQ_SELECTIVITY = 0.1
DEFAULT_RANGE_SELECTIVITY = 0.3
DEFAULT_LIKE_SELECTIVITY = 0.25
DEFAULT_SELECTIVITY = 0.5

#: cost units: reading one row during a scan costs 1; an index probe
#: pays a small constant before touching its matching rows
INDEX_PROBE_COST = 1.0
#: building one hash-table entry / probing it
HASH_BUILD_COST = 1.0
HASH_PROBE_COST = 1.0

#: columnar batch execution (repro.rdb.columnar): binding kernels and
#: consulting the column store costs a flat setup fee, after which each
#: row is touched through a C-speed comprehension — a fraction of the
#: unit cost a row-at-a-time scan pays per row
COLUMNAR_SETUP_COST = 64.0
COLUMNAR_ROW_COST = 0.25

#: a full sort pays this per row and doubling of the input (its
#: NULL-aware, type-checking keys compare in Python); a top-N pays one
#: key and cut-off comparison per row and sorts only what gets past
SORT_LEVEL_COST = 0.5
TOP_N_ROW_COST = 0.75
#: an index-ordered walk fetches each row through the heap by id and
#: checks it — dearer than a streamed heap row — but passes over an
#: entry it need not fetch (an unfiltered OFFSET) for next to nothing
ORDERED_ROW_COST = 2.0
ORDERED_SKIP_COST = 0.02
#: the share of the table a LIMIT / OFFSET *parameter* is priced at
DEFAULT_WINDOW_SHARE = 0.1
#: the rows an empty (typically not-yet-seeded) table is priced at
EMPTY_TABLE_ROWS = 10

_MIN_SELECTIVITY = 1e-4


def clamp(selectivity: float) -> float:
    return max(_MIN_SELECTIVITY, min(1.0, selectivity))


def live_rows(store) -> int:
    """The row count every estimate prices ``store`` at: its live rows,
    or :data:`EMPTY_TABLE_ROWS` while it has none — so a plan cached
    before the bulk load already has the shape it will want afterwards,
    on every table of the statement alike."""
    return len(store.rows) or EMPTY_TABLE_ROWS


def columnar_scan_cost(live_rows: int) -> float:
    """Estimated cost of scanning ``live_rows`` through batch kernels."""
    return COLUMNAR_SETUP_COST + live_rows * COLUMNAR_ROW_COST


def sort_cost(rows: float, keep: float | None = None) -> float:
    """Estimated cost of ordering ``rows`` rows: a full sort, or a
    top-N holding ``keep`` of them — cheap while most arrivals fail the
    cut-off, the sort itself once the window covers the input."""
    full = rows * SORT_LEVEL_COST * math.log2(rows + 2.0)
    if keep is None or keep >= rows:
        return full
    held = max(1.0, keep)
    admitted = held * (1.0 + math.log(rows / held))
    return min(full, rows * TOP_N_ROW_COST
               + admitted * SORT_LEVEL_COST * math.log2(held + 2.0))


def ordered_walk(segment: float, passing: float, offset: float,
                 limit: float | None, filtered: bool) -> tuple[float, float]:
    """(rows produced, cost) of walking ``segment`` index entries in key
    order, ``passing`` of which satisfy the predicate, until ``offset``
    / ``limit`` is served.  Unfiltered, the offset is passed over on
    entries and only the window fetched; filtered, every entry is
    fetched and checked until ``offset + limit`` rows passed — behind a
    selective filter the whole segment, where scan + top-N wins."""
    if not filtered:
        skipped = min(offset, segment)
        fetched = segment - skipped if limit is None \
            else min(segment - skipped, limit)
        return fetched, (INDEX_PROBE_COST + skipped * ORDERED_SKIP_COST
                         + fetched * ORDERED_ROW_COST)
    if limit is None:
        return passing, INDEX_PROBE_COST + segment * ORDERED_ROW_COST
    wanted = min(passing, offset + limit)
    examined = min(segment, wanted * segment / max(passing, _MIN_SELECTIVITY))
    return wanted, INDEX_PROBE_COST + examined * ORDERED_ROW_COST


def _literal_value(expr: Expr):
    """The plan-time value of a constant expression, or None when it is
    parameter-dependent (plans are reused across parameter sets)."""
    return expr.value if isinstance(expr, Literal) else None


def _unique_on(store, column: str) -> bool:
    for _name, index in store.iter_indexes():
        if index.unique and index.columns == (column,):
            return True
    return False


def _distinct(store, column: str) -> int | None:
    """Distinct count for ``column``: statistics first, then the schema —
    a unique index (the table's live rows), then a single-column foreign
    key (the referenced table's live rows, while it has any)."""
    stats = store.statistics
    if stats is not None:
        column_stats = stats.column(column)
        if column_stats is not None:
            return max(1, column_stats.distinct)
    if _unique_on(store, column):
        return live_rows(store)
    target = store.fk_targets.get(column)
    if target is not None and target.rows:
        return len(target.rows)
    return None


def equality_selectivity(store, column: str | None) -> float:
    if column is not None:
        distinct = _distinct(store, column)
        if distinct is not None:
            return clamp(1.0 / distinct)
    return DEFAULT_EQ_SELECTIVITY


def _interpolate(column_stats, low, high, low_inclusive, high_inclusive) -> float | None:
    """Fraction of the [min, max] span covered by [low, high]; None when
    the bounds are not numeric or no statistics apply."""
    if column_stats is None or not column_stats.has_range:
        return None
    minimum, maximum = column_stats.minimum, column_stats.maximum
    values = [v for v in (minimum, maximum, low, high) if v is not None]
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in values):
        return None
    span = maximum - minimum
    if span <= 0:
        # single-valued column: the range either covers it or not
        covered = ((low is None or low <= minimum)
                   and (high is None or high >= maximum))
        return 1.0 if covered else _MIN_SELECTIVITY
    effective_low = minimum if low is None else max(low, minimum)
    effective_high = maximum if high is None else min(high, maximum)
    if effective_high < effective_low:
        return _MIN_SELECTIVITY
    return clamp((effective_high - effective_low) / span)


def range_selectivity(store, column: str | None, low, high,
                      low_inclusive: bool = True,
                      high_inclusive: bool = True) -> float:
    """Selectivity of ``low <= column <= high`` (either bound optional).
    Plan-time constants interpolate against ANALYZE min/max; parameter
    bounds fall back to the fixed range constant."""
    if column is not None and store.statistics is not None:
        fraction = _interpolate(
            store.statistics.column(column), low, high,
            low_inclusive, high_inclusive,
        )
        if fraction is not None:
            return fraction
    return DEFAULT_RANGE_SELECTIVITY


def null_selectivity(store, column: str | None, negated: bool) -> float:
    stats = store.statistics
    if column is not None and stats is not None and stats.row_count > 0:
        column_stats = stats.column(column)
        if column_stats is not None:
            fraction = clamp(column_stats.null_count / stats.row_count)
            return clamp(1.0 - fraction) if negated else fraction
    return DEFAULT_EQ_SELECTIVITY


def conjunct_selectivity(store, conjunct: Expr) -> float:
    """Selectivity of one predicate conjunct against ``store``'s rows.

    The conjunct is assumed to reference only this table; multi-table
    conjuncts are estimated by their structure alone.  The structure is
    read off the conjunct's :func:`~repro.rdb.expr.sarg`, a computed
    subject (``column`` None) getting the fixed constants.
    """
    if isinstance(conjunct, Not):
        return clamp(1.0 - conjunct_selectivity(store, conjunct.operand))
    if isinstance(conjunct, Or):
        left = conjunct_selectivity(store, conjunct.left)
        right = conjunct_selectivity(store, conjunct.right)
        return clamp(left + right - left * right)
    if isinstance(conjunct, Literal):
        return 1.0 if conjunct.value is True else _MIN_SELECTIVITY
    classified = sarg(conjunct)
    if classified is None:
        return DEFAULT_SELECTIVITY
    kind, column = classified.kind, classified.column
    if kind == "null":
        return null_selectivity(store, column, classified.negated)
    if kind == "cmp":
        if classified.op == "=":
            return equality_selectivity(store, column)
        if classified.op == "<>":
            return clamp(1.0 - equality_selectivity(store, column))
        bound = _literal_value(classified.operands[0])
        low, high = (None, bound) if classified.op in ("<", "<=") \
            else (bound, None)
        return range_selectivity(store, column, low, high)
    if kind == "between":
        low, high = map(_literal_value, classified.operands)
        selectivity = range_selectivity(store, column, low, high)
    elif kind == "in":
        selectivity = clamp(
            equality_selectivity(store, column) * len(classified.operands)
        )
    else:
        selectivity = DEFAULT_LIKE_SELECTIVITY
    return clamp(1.0 - selectivity) if classified.negated else selectivity


def conjuncts_selectivity(store, conjuncts) -> float:
    """Independence-assumption product over a conjunct list."""
    selectivity = 1.0
    for conjunct in conjuncts:
        selectivity *= conjunct_selectivity(store, conjunct)
    return clamp(selectivity)


def join_distinct(store, columns: tuple[str, ...]) -> float:
    """Estimated distinct key count on the build side of an equi-join."""
    row_count = live_rows(store)
    for _name, index in store.iter_indexes():
        if index.unique and index.columns == tuple(columns):
            return float(row_count)
    estimates = [_distinct(store, column) for column in columns]
    known = [e for e in estimates if e is not None]
    if known:
        return float(min(row_count, max(known)))
    return float(max(1, row_count // 10))
