"""Selectivity and cost estimation for the SELECT planner.

A deliberately small Selinger-style model: every predicate conjunct gets
a selectivity in (0, 1], access paths and joins get a scalar cost, and
the planner picks the cheapest alternative.  Estimates prefer ANALYZE
statistics (:mod:`repro.rdb.statistics`) when a table has them and fall
back to the classic fixed constants otherwise.  Base cardinality always
comes from the *live* row count — it is free to read and never stale —
while distributions (distinct counts, min/max) come from the snapshot.

Only plan *shape* depends on these numbers; results never do, because
every scan re-checks the predicate it consumed.

Assumptions the model rests on (the classic Selinger simplifications):

- **uniformity** — values are spread evenly across a column's range,
  so equality selects ``1/distinct`` and a range predicate selects the
  covered fraction of ``[min, max]``;
- **independence** — conjunct selectivities multiply; correlated
  predicates (e.g. ``year = 2002 AND volume = 36``) are over-filtered
  and their plans look cheaper than they run;
- **staleness is bounded** — distributions come from the last ANALYZE
  snapshot, but base cardinality is always the live row count, so a
  growing table degrades estimate *detail*, never its scale;
- **costs are abstract units** (rows touched plus per-structure
  constants), meaningful only relative to each other — the planner
  compares alternatives, it never predicts wall-clock time.

When an estimate misleads the planner, the damage is a slower plan,
never a wrong result; the slow-query log (``repro.obs``) records the
chosen access path precisely so such plans can be spotted and the
descriptor query or its indexes tuned.

Every selectivity entry point also accepts an optional ``feedback``
object (the :class:`repro.rdb.adaptive.SelectivityMemory` duck type:
``selectivity(table, key) -> float | None`` and
``join_distinct(table, columns) -> float | None``).  Learned, observed
selectivities are consulted *before* the statistics fall-backs above —
this is how execution feedback repairs exactly the estimates the
uniformity and independence assumptions get wrong (skewed values,
correlated conjuncts).  ``feedback=None`` keeps the model pure.
"""

from __future__ import annotations

import math

from repro.rdb.expr import (
    Expr,
    Literal,
    Not,
    Or,
    conjunct_fingerprint,
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

_MIN_SELECTIVITY = 1e-4


def clamp(selectivity: float) -> float:
    return max(_MIN_SELECTIVITY, min(1.0, selectivity))


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
    """Distinct count for ``column``: statistics first, unique indexes
    as a structural fallback."""
    stats = store.statistics
    if stats is not None:
        column_stats = stats.column(column)
        if column_stats is not None:
            return max(1, column_stats.distinct)
    if _unique_on(store, column):
        return max(1, len(store.rows))
    return None


def _learned(feedback, store, key: tuple) -> float | None:
    """A learned selectivity for ``key`` on ``store``'s table, if the
    feedback memory holds one."""
    if feedback is None:
        return None
    return feedback.selectivity(store.schema.name, key)


def equality_selectivity(store, column: str | None, feedback=None) -> float:
    if column is not None:
        learned = _learned(feedback, store, ("eq", column))
        if learned is not None:
            return learned
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
                      high_inclusive: bool = True, *,
                      feedback=None) -> float:
    """Selectivity of ``low <= column <= high`` (either bound optional).
    Learned per-column range selectivity wins; plan-time constants
    interpolate against ANALYZE min/max; parameter bounds fall back to
    the fixed range constant."""
    if column is not None:
        learned = _learned(feedback, store, ("range", column))
        if learned is not None:
            return learned
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


def conjunct_selectivity(store, conjunct: Expr, feedback=None) -> float:
    """Selectivity of one predicate conjunct against ``store``'s rows.

    The conjunct is assumed to reference only this table; multi-table
    conjuncts are estimated by their structure alone.  A learned
    whole-conjunct observation (keyed by the conjunct's fingerprint)
    beats any structural estimate; the structure is read off the
    conjunct's :func:`~repro.rdb.expr.sarg`, a computed subject
    (``column`` None) getting the fixed constants.
    """
    if feedback is not None:  # no fingerprint taken for nobody to look up
        learned = feedback.selectivity(
            store.schema.name, ("conj", conjunct_fingerprint(conjunct))
        )
        if learned is not None:
            return learned
    if isinstance(conjunct, Not):
        return clamp(
            1.0 - conjunct_selectivity(store, conjunct.operand, feedback)
        )
    if isinstance(conjunct, Or):
        left = conjunct_selectivity(store, conjunct.left, feedback)
        right = conjunct_selectivity(store, conjunct.right, feedback)
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
            return equality_selectivity(store, column, feedback)
        if classified.op == "<>":
            return clamp(1.0 - equality_selectivity(store, column, feedback))
        bound = _literal_value(classified.operands[0])
        low, high = (None, bound) if classified.op in ("<", "<=") \
            else (bound, None)
        return range_selectivity(store, column, low, high, feedback=feedback)
    if kind == "between":
        low, high = map(_literal_value, classified.operands)
        selectivity = range_selectivity(
            store, column, low, high, feedback=feedback
        )
    elif kind == "in":
        selectivity = clamp(
            equality_selectivity(store, column, feedback)
            * len(classified.operands)
        )
    else:
        selectivity = DEFAULT_LIKE_SELECTIVITY
    return clamp(1.0 - selectivity) if classified.negated else selectivity


def conjunct_set_key(conjuncts) -> tuple:
    """Feedback key for a whole pushed-down conjunct set.  Set-level
    entries capture *correlation* between conjuncts — the classic case
    the independence assumption cannot price."""
    return ("set", tuple(sorted(map(conjunct_fingerprint, conjuncts))))


def conjuncts_selectivity(store, conjuncts, feedback=None) -> float:
    """Independence-assumption product over a conjunct list.

    When feedback holds a *set-level* observation for exactly this
    conjunct set, it wins outright — set entries are the one place
    correlation between conjuncts (which independence cannot price) is
    representable.
    """
    conjuncts = list(conjuncts)
    if feedback is not None and len(conjuncts) > 1:
        learned = _learned(feedback, store, conjunct_set_key(conjuncts))
        if learned is not None:
            return learned
    selectivity = 1.0
    for conjunct in conjuncts:
        selectivity *= conjunct_selectivity(store, conjunct, feedback)
    return clamp(selectivity)


def join_distinct(store, columns: tuple[str, ...],
                  feedback=None) -> float:
    """Estimated distinct key count on the build side of an equi-join.
    A learned *effective* distinct count (solved from observed join
    fan-out) beats the structural estimates below."""
    row_count = max(1, len(store.rows))
    if feedback is not None:
        learned = feedback.join_distinct(store.schema.name, tuple(columns))
        if learned is not None:
            return learned
    for _name, index in store.iter_indexes():
        if index.unique and index.columns == tuple(columns):
            return float(row_count)
    estimates = [_distinct(store, column) for column in columns]
    known = [e for e in estimates if e is not None]
    if known:
        return float(min(row_count, max(known)))
    return float(max(1, row_count // 10))
