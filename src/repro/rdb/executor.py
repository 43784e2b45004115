"""Query execution operators.

A plan is a tree of operators, each yielding *binding maps*: dicts from
table binding (alias or table name) to a stored row dict, or ``None``
for the null-padded side of a LEFT JOIN.  :class:`RowScope` adapts a
binding map to the expression layer's ``lookup`` protocol.

Operators are mode-blind: every expression they run per row is a
``*_fn`` slot holding one callable, filled in by
:func:`repro.rdb.compile.compile_plan` with generated code or with a
closure over ``Expr.evaluate`` — the operator calls it either way.  A
slot is ``None`` only when its expression is (no predicate, no
prefilter, no residual).
"""

from __future__ import annotations

import functools
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

from repro.errors import QueryError
from repro.rdb.columnar import select_positions
from repro.rdb.expr import (
    AggregateCall,
    ColumnRef,
    Expr,
    Literal,
    compare_values,
    conjuncts,
    sarg,
)
from repro.rdb.storage import TableStore

Bindings = dict[str, dict | None]


class RowScope:
    """Expression scope over one binding map.

    ``columns_by_binding`` gives each binding's column names so that an
    unqualified column can be resolved (and ambiguity detected) even for
    null-padded LEFT JOIN rows.
    """

    def __init__(self, bindings: Bindings, columns_by_binding: dict[str, list[str]]):
        self.bindings = bindings
        self.columns_by_binding = columns_by_binding

    def lookup(self, table: str | None, column: str):
        if table is not None:
            if table not in self.columns_by_binding:
                raise QueryError(f"unknown table or alias {table!r}")
            if column not in self.columns_by_binding[table]:
                raise QueryError(f"no column {column!r} in {table!r}")
            row = self.bindings.get(table)
            return None if row is None else row[column]
        owners = [
            binding
            for binding, columns in self.columns_by_binding.items()
            if column in columns
        ]
        if not owners:
            raise QueryError(f"unknown column {column!r}")
        if len(owners) > 1:
            raise QueryError(
                f"ambiguous column {column!r} (in {', '.join(sorted(owners))})"
            )
        row = self.bindings.get(owners[0])
        return None if row is None else row[column]


class Operator:
    """Base plan operator."""

    #: planner cost-model annotations shown by EXPLAIN (None when the
    #: plan was built without estimation, e.g. naive mode)
    est_rows: float | None = None
    est_cost: float | None = None
    #: rows produced by the most recent execution (set in a finally so
    #: a generator abandoned early — LIMIT — still records its partial
    #: count); feeds adaptive cardinality feedback and EXPLAIN ANALYZE
    actual_rows: int | None = None
    #: what that execution read: heap rows fetched (a join's build side
    #: too) plus index entries an ordered walk stepped over
    scanned = 0

    def rows(self, params: dict) -> Iterator[Bindings]:
        raise NotImplementedError

    def describe(self) -> str:
        """One-line EXPLAIN label for this operator."""
        return type(self).__name__

    def children(self) -> list["Operator"]:
        return []


def walk_operators(root: Operator) -> Iterator[Operator]:
    """Every operator of the tree under ``root``."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children())


@dataclass
class AccessPath:
    """How a scan reaches its rows.

    ``kind`` is one of:

    - ``seq``: walk the heap;
    - ``columnar``: sweep the table's column arrays with the scan's
      batch kernels (:mod:`repro.rdb.columnar`) and fetch only the rows
      at surviving positions — same rows, same order as ``seq``;
    - ``eq``: probe an index with equality values for the leading
      ``columns`` (full-width probes hash, shorter ones walk the sorted
      prefix segment);
    - ``range``: equality on a (possibly empty) prefix plus an interval
      on the next index column;
    - ``in``: equality prefix plus an ``IN``-list on the next column,
      one probe per list element;
    - ``ordered``: equality prefix, then the index walked in key order
      (``descending``: reversed) — the rows arrive in ORDER BY order, so
      the plan runs no sort and a LIMIT stops the walk;
    - ``count``: no rows at all — an unfiltered ``COUNT(*)`` reads the
      live row count.

    All value expressions are constant at row time (literals and
    parameters), evaluated once per execution.
    """

    kind: str = "seq"
    index: object | None = None
    index_name: str | None = None
    columns: tuple[str, ...] = ()
    eq_exprs: tuple[Expr, ...] = ()
    low: Expr | None = None
    low_inclusive: bool = True
    high: Expr | None = None
    high_inclusive: bool = True
    in_exprs: tuple[Expr, ...] = field(default_factory=tuple)
    descending: bool = False


_SEQ = AccessPath()
_INDEX_LABELS = {"eq": "IndexLookup", "range": "IndexRange", "in": "IndexIn",
                 "ordered": "IndexOrderScan"}


class ScanOp(Operator):
    """Table scan through an :class:`AccessPath`, re-checking any
    predicate conjuncts the planner pushed down.

    Index paths may return a *superset* of the qualifying rows (prefix
    segments include trailing NULLs, bisection is estimate-free); the
    pushed ``predicate`` re-check is what keeps every path honest, and
    a ``None`` answer from the index degrades to a heap walk.

    ``predicate_fn`` is ``predicate`` lowered to row mode,
    ``fn(row, params)``; a ``columnar`` path runs ``kernels`` instead,
    one bind function per conjunct, in run order.
    """

    def __init__(
        self,
        store: TableStore,
        binding: str,
        access: AccessPath | None = None,
        predicate: Expr | None = None,
    ):
        self.store = store
        self.binding = binding
        self.access = access or _SEQ
        self.predicate = predicate
        #: the pushed conjuncts and their classification (a
        #: :class:`~repro.rdb.expr.Sarg` or None each): what the kernel
        #: builder and adaptive's correction keys read
        self.conjuncts = tuple(conjuncts(predicate))
        self.sargs = tuple(map(sarg, self.conjuncts))
        self.predicate_fn = None
        self.kernels: tuple = ()
        #: memo of :func:`repro.rdb.adaptive.scan_correction_keys`
        self.correction_keys: list | None = None
        self._scope_columns = {binding: list(store.schema.column_names)}

    @property
    def eq_columns(self) -> tuple[str, ...]:
        """The probed index columns of an equality path (compatibility
        surface for plan introspection)."""
        return self.access.columns if self.access.kind == "eq" else ()

    def describe(self) -> str:
        name = f"{self.store.schema.name} AS {self.binding}"
        access = self.access
        if access.kind in _INDEX_LABELS:
            keys = ", ".join(access.columns)
            if access.descending:
                keys += " DESC"
            return f"{_INDEX_LABELS[access.kind]}({name} ON {keys})"
        return f"{'RowCount' if access.kind == 'count' else 'SeqScan'}({name})"

    def _candidate_row_ids(self, params: dict, skip: int = 0):
        """Row ids selected by the access path — a set, or for an
        ordered path an iterator in key order; None means scan the
        heap."""
        access = self.access
        if access.kind == "seq":
            return None
        scope = RowScope({}, {})
        prefix = tuple(
            expr.evaluate(scope, params) for expr in access.eq_exprs
        )
        if any(value is None for value in prefix):
            return set()  # an equality with NULL never matches
        if access.kind == "eq":
            return access.index.scan_prefix(prefix)
        if access.kind == "ordered":
            # None (no ordered view) means a probe of the wrong type: the
            # heap scan's predicate re-check then fails or passes no row
            return access.index.walk(prefix, access.descending, skip,
                                     self.store.scan_order)
        if access.kind == "range":
            low = high = None
            if access.low is not None:
                low = access.low.evaluate(scope, params)
                if low is None:
                    return set()  # col > NULL is UNKNOWN everywhere
            if access.high is not None:
                high = access.high.evaluate(scope, params)
                if high is None:
                    return set()
            return access.index.scan_range(prefix, (
                low, access.low_inclusive, high, access.high_inclusive
            ))
        # IN-list: one probe per distinct non-NULL element
        matches: set[int] = set()
        for expr in access.in_exprs:
            value = expr.evaluate(scope, params)
            if value is None:
                continue
            found = access.index.scan_prefix(prefix + (value,))
            if found is None:
                return None
            matches |= found
        return matches

    def positions(self, params: dict):
        """A ``columnar`` path's selection: the synced column store and
        the ascending positions every kernel keeps.  The counts are
        exact here, however much of the row stream is consumed."""
        column_store = self.store.column_store.ensure_synced()
        survivors, self.scanned = select_positions(
            column_store, self.kernels, params
        )
        self.actual_rows = len(survivors)
        return column_store, survivors

    def matching(self, params: dict,
                 skip: int = 0) -> Iterator[tuple[int, dict]]:
        """``(row_id, row)`` for every row the scan selects — the one
        loop under SELECT's row stream and UPDATE / DELETE's row ids.
        ``skip`` is the OFFSET an ordered path may take on index entries
        (the planner passes it only when no predicate filters rows)."""
        if self.access.kind == "columnar":
            column_store, survivors = self.positions(params)
            rows, row_ids = self.store.rows, column_store.row_ids
            for position in survivors:
                row_id = row_ids[position]
                yield row_id, rows[row_id]
            return
        produced = fetched = 0
        try:
            row_ids = self._candidate_row_ids(params, skip)
            if row_ids is None:
                # Iterate over a snapshot of ids so DML during iteration
                # is safe.
                candidates = list(self.store.rows)
            elif isinstance(row_ids, set):
                # heap-scan order, whichever path found the rows
                candidates = sorted(row_ids, key=self.store.scan_order)
            else:
                candidates = row_ids
            lookup = self.store.rows
            predicate = self.predicate_fn
            if predicate is None:
                for fetched, row_id in enumerate(candidates, 1):
                    row = lookup.get(row_id)
                    if row is not None:
                        produced += 1
                        yield row_id, row
                return
            for fetched, row_id in enumerate(candidates, 1):
                row = lookup.get(row_id)
                if row is not None and predicate(row, params) is True:
                    produced += 1
                    yield row_id, row
        finally:
            self.actual_rows = produced
            self.scanned = fetched
            if skip and self.access.index.repeats:
                self.scanned += skip  # stepped over; unique keys are jumped

    def rows(self, params: dict) -> Iterator[Bindings]:
        binding = self.binding
        for _row_id, row in self.matching(params):
            yield {binding: row}


class FilterOp(Operator):
    """``predicate_fn`` is ``predicate`` lowered to bindings mode,
    ``fn(bindings, params)``."""

    def __init__(self, child: Operator, predicate: Expr,
                 columns_by_binding: dict[str, list[str]]):
        self.child = child
        self.predicate = predicate
        self.predicate_fn = None
        self.columns_by_binding = columns_by_binding

    def describe(self) -> str:
        return "Filter"

    def children(self) -> list[Operator]:
        return [self.child]

    def rows(self, params: dict) -> Iterator[Bindings]:
        produced = 0
        try:
            predicate = self.predicate_fn
            for bindings in self.child.rows(params):
                if predicate(bindings, params) is True:
                    produced += 1
                    yield bindings
        finally:
            self.actual_rows = produced


class NestedLoopJoinOp(Operator):
    """Fallback join for non-equi ON conditions.  A ``prefilter`` (the
    planner-pushed conjuncts local to the new table) shrinks the inner
    relation once per execution instead of once per outer row.

    Slots: row-mode ``prefilter_fn``, bindings-mode ``condition_fn``."""

    def __init__(
        self,
        left: Operator,
        store: TableStore,
        binding: str,
        condition: Expr,
        kind: str,
        columns_by_binding: dict[str, list[str]],
        prefilter: Expr | None = None,
    ):
        self.left = left
        self.store = store
        self.binding = binding
        self.condition = condition
        self.kind = kind
        self.columns_by_binding = columns_by_binding
        self.prefilter = prefilter
        self.prefilter_fn = None
        self.condition_fn = None
        self._own_columns = {binding: list(store.schema.column_names)}

    def describe(self) -> str:
        return (f"NestedLoopJoin({self.kind} {self.store.schema.name} "
                f"AS {self.binding})")

    def children(self) -> list[Operator]:
        return [self.left]

    def _inner_rows(self, params: dict) -> list[dict]:
        rows = list(self.store.rows.values())
        prefilter = self.prefilter_fn
        if prefilter is None:
            return rows
        return [row for row in rows if prefilter(row, params) is True]

    def rows(self, params: dict) -> Iterator[Bindings]:
        produced = 0
        try:
            self.scanned = len(self.store.rows)
            right_rows = self._inner_rows(params)
            condition = self.condition_fn
            for bindings in self.left.rows(params):
                matched = False
                for row in right_rows:
                    candidate = dict(bindings)
                    candidate[self.binding] = row
                    if condition(candidate, params) is True:
                        matched = True
                        produced += 1
                        yield candidate
                if not matched and self.kind == "left":
                    padded = dict(bindings)
                    padded[self.binding] = None
                    produced += 1
                    yield padded
        finally:
            self.actual_rows = produced


class HashJoinOp(Operator):
    """Equi-join: build a hash table on the new table's key columns and
    probe with each incoming binding map.  ``residual`` carries any extra
    non-equi conjuncts of the ON condition.

    Slots: row-mode ``prefilter_fn`` and ``build_key_fn(row)``,
    bindings-mode ``probe_fn`` (the key tuple) and ``residual_fn``."""

    def __init__(
        self,
        left: Operator,
        store: TableStore,
        binding: str,
        probe_exprs: tuple[Expr, ...],   # evaluated against incoming bindings
        build_columns: tuple[str, ...],  # columns of the new table
        residual: Expr | None,
        kind: str,
        columns_by_binding: dict[str, list[str]],
        prefilter: Expr | None = None,
    ):
        self.left = left
        self.store = store
        self.binding = binding
        self.probe_exprs = probe_exprs
        self.build_columns = build_columns
        self.residual = residual
        self.kind = kind
        self.columns_by_binding = columns_by_binding
        self.prefilter = prefilter
        self.prefilter_fn = None
        self.build_key_fn = None
        self.probe_fn = None
        self.residual_fn = None
        self._own_columns = {binding: list(store.schema.column_names)}

    def describe(self) -> str:
        keys = ", ".join(self.build_columns)
        return (f"HashJoin({self.kind} {self.store.schema.name} "
                f"AS {self.binding} ON {keys})")

    def children(self) -> list[Operator]:
        return [self.left]

    def rows(self, params: dict) -> Iterator[Bindings]:
        produced = 0
        try:
            table: dict[tuple, list[dict]] = {}
            prefilter = self.prefilter_fn
            build_key = self.build_key_fn
            self.scanned = len(self.store.rows)
            for row in self.store.rows.values():
                if prefilter is not None \
                        and prefilter(row, params) is not True:
                    continue
                key = build_key(row)
                if any(v is None for v in key):
                    continue
                table.setdefault(key, []).append(row)
            probe = self.probe_fn
            residual = self.residual_fn
            for bindings in self.left.rows(params):
                key = probe(bindings, params)
                matched = False
                if not any(v is None for v in key):
                    for row in table.get(key, ()):
                        candidate = dict(bindings)
                        candidate[self.binding] = row
                        if residual is not None \
                                and residual(candidate, params) is not True:
                            continue
                        matched = True
                        produced += 1
                        yield candidate
                if not matched and self.kind == "left":
                    padded = dict(bindings)
                    padded[self.binding] = None
                    produced += 1
                    yield padded
        finally:
            self.actual_rows = produced


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def collect_aggregates(expr: Expr | None) -> list[AggregateCall]:
    """All AggregateCall nodes in ``expr`` (document order, with dups)."""
    if expr is None:
        return []
    found: list[AggregateCall] = []

    def walk(node: Expr) -> None:
        if isinstance(node, AggregateCall):
            found.append(node)
            return
        for attr in ("left", "right", "operand", "pattern", "low", "high",
                     "argument"):
            child = getattr(node, attr, None)
            if isinstance(child, Expr):
                walk(child)
        for attr in ("args", "options"):
            children = getattr(node, attr, None)
            if children:
                for child in children:
                    walk(child)

    walk(expr)
    return found


def substitute_aggregates(expr: Expr, values: dict[AggregateCall, object]) -> Expr:
    """Rebuild ``expr`` with every AggregateCall replaced by its computed
    value (as a Literal)."""
    if isinstance(expr, AggregateCall):
        return Literal(values[expr])
    replacements = {}
    for attr in ("left", "right", "operand", "pattern", "low", "high", "argument"):
        child = getattr(expr, attr, None)
        if isinstance(child, Expr):
            replacements[attr] = substitute_aggregates(child, values)
    for attr in ("args", "options"):
        children = getattr(expr, attr, None)
        if children:
            replacements[attr] = tuple(
                substitute_aggregates(c, values) for c in children
            )
    if not replacements:
        return expr
    return replace(expr, **replacements)


def compute_aggregate(
    call: AggregateCall, group: list[Bindings], params: dict, extractor
):
    """Evaluate one aggregate over a group of binding maps.

    ``extractor`` is ``call.argument`` lowered to bindings mode,
    ``fn(bindings, params)`` (unused for ``COUNT(*)``).
    """
    if call.argument is None:  # COUNT(*)
        return len(group)
    values = []
    for bindings in group:
        value = extractor(bindings, params)
        if value is not None:
            values.append(value)
    return reduce_aggregate(call.func, call.distinct, values)


def reduce_aggregate(func: str, distinct: bool, values: list):
    """Fold gathered non-NULL aggregate inputs into the final value.

    Shared by row execution (above) and the columnar gatherers
    (:mod:`repro.rdb.columnar`), so DISTINCT semantics and the reduce
    order cannot diverge between execution modes.
    """
    if distinct:
        seen = []
        for value in values:
            if not any(compare_values(value, s) == 0 for s in seen):
                seen.append(value)
        values = seen
    if func == "COUNT":
        return len(values)
    if not values:
        return None
    if func == "SUM":
        return functools.reduce(lambda a, b: a + b, values)
    if func == "AVG":
        return functools.reduce(lambda a, b: a + b, values) / len(values)
    if func == "MIN":
        return min(values)
    if func == "MAX":
        return max(values)
    raise QueryError(f"unknown aggregate {func!r}")


# ---------------------------------------------------------------------------
# Sorting helpers
# ---------------------------------------------------------------------------


@functools.total_ordering
class SortKey:
    """Comparable wrapper implementing SQL NULLS FIRST ordering."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        sign = self._compare(other)
        return sign == 0

    def __lt__(self, other):
        return self._compare(other) < 0

    def _compare(self, other: "SortKey") -> int:
        if self.value is None and other.value is None:
            return 0
        if self.value is None:
            return -1
        if other.value is None:
            return 1
        sign = compare_values(self.value, other.value)
        assert sign is not None
        return sign


class DescendingKey(SortKey):
    """A :class:`SortKey` with the comparison inverted — DESC order in a
    single lexicographic sort, without ``reverse=True`` (which cannot be
    applied per key once keys are composite).  NULLs, being "smallest"
    ascending, land last under DESC — the same placement the seed's
    per-key ``reverse=True`` passes produced."""

    __slots__ = ()

    def __lt__(self, other):
        return self._compare(other) > 0


def ordering_key(order_by):
    """The sort key over ``(row, keys)`` pairs for the ORDER BY items:
    composite ``(SortKey | DescendingKey, ...)`` tuples, shared by the
    full sort and the bounded top-N."""
    wrappers = tuple(
        DescendingKey if item.descending else SortKey for item in order_by
    )
    if len(wrappers) == 1:
        wrap = wrappers[0]
        return lambda pair: wrap(pair[1][0])
    return lambda pair: tuple(
        wrap(value) for wrap, value in zip(wrappers, pair[1])
    )


def top_rows(rows_with_keys, order_by, keep: int) -> list:
    """The first ``keep`` of the ``(row, keys)`` pairs in ORDER BY order
    — what sorting them all and slicing gives, tie order included —
    holding at most ``2 * keep``: an arrival not below the cut-off is
    dropped on one comparison (an equal key that arrived later sorts
    after the cut), the rest are sorted in when the buffer fills."""
    key = ordering_key(order_by)
    held, cut = [], None
    for pair in rows_with_keys if keep else ():
        if cut is None or key(pair) < cut:
            held.append(pair)
            if len(held) >= 2 * keep:
                held.sort(key=key)
                del held[keep:]
                cut = key(held[-1])
    held.sort(key=key)
    return held[:keep]


def sort_rows_with_keys(rows_with_keys: list, order_by) -> None:
    """Sort ``(row, keys)`` pairs in place by the ORDER BY items.

    One stable pass over :func:`ordering_key` — mathematically identical
    to the seed's last-to-first stable-pass loop, but with one sort call
    and, crucially, *shared by the compiled and interpreted execution
    modes*, so NULL-heavy and mixed-type orderings cannot diverge
    between them: equal keys keep input order in both, and incomparable
    values raise the same :class:`~repro.errors.QueryError` from
    ``compare_values`` in both.
    """
    if order_by:
        rows_with_keys.sort(key=ordering_key(order_by))


@dataclass
class ResultSet:
    """Materialized query result: ordered column names + dict rows."""

    columns: list[str]
    rows: list[dict]

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def first(self) -> dict | None:
        return self.rows[0] if self.rows else None

    def scalar(self):
        """The single value of a one-column result's first row."""
        if not self.rows:
            return None
        return self.rows[0][self.columns[0]]

    def as_tuples(self) -> list[tuple]:
        return [tuple(row[c] for c in self.columns) for row in self.rows]
