"""SELECT planning and evaluation.

:class:`SelectPlan` compiles a parsed SELECT into an operator tree once;
``execute(params)`` then runs it against current table contents.  Plans
are reusable across requests — the generic unit services compile each
descriptor's query a single time and re-execute it per request.

Planning is cost-based (:mod:`repro.rdb.cost`):

- the WHERE clause and inner-join ON conditions are split into
  conjuncts, each resolved to the set of table bindings it references;
- single-table conjuncts are pushed down: onto the base scan (where
  they also select an access path — heap walk, row-at-a-time or as a
  columnar sweep, exact index lookup, sorted range scan, or ``IN``-list
  probe, whichever the cost model prices cheapest; what a conjunct
  says about which column is read off its :func:`~repro.rdb.expr.sarg`)
  and onto join build sides as prefilters;
- inner joins are greedily reordered by estimated cardinality
  (smallest filtered table first, then the cheapest connected
  extension), falling back to the declared order when the join graph
  has no connecting equi-condition;
- every pushed conjunct is re-checked where it lands, so index paths
  may safely return supersets and estimation errors can never change
  results — only plan shape;
- LEFT JOIN queries keep the declared order and only take the
  semantically safe pushdowns (base-scan conjuncts, build-side
  prefilters from conjuncts local to the joined table).

``mode`` (:data:`MODES`) is the one execution knob: it picks the plan
shape (``"seed"`` rebuilds the seed's naive plan — full scans except
exact-equality index matches, declared join order, one final WHERE
filter — which E14 uses as its baseline), the lowering back-end
(:mod:`repro.rdb.compile`) and whether a scan is offered the columnar
access path.  Operators never see it.

Two optional inputs refine cost-based planning without touching
semantics: ``feedback`` (a :class:`repro.rdb.adaptive.SelectivityMemory`)
lets every selectivity estimate consult observed execution counts before
statistics, and ``features`` (:class:`PlannerFeatures`) switches
individual planner decisions off — the plan-space scanner uses it to
measure what each decision is worth and where the cost model lies.
"""

from __future__ import annotations

import itertools
import time
from collections.abc import Mapping
from dataclasses import dataclass

from repro.errors import QueryError
from repro.rdb import cost
from repro.rdb.compile import INTERPRETED_MODES, compile_plan
from repro.rdb.executor import (
    AccessPath,
    Bindings,
    FilterOp,
    HashJoinOp,
    NestedLoopJoinOp,
    Operator,
    ResultSet,
    RowScope,
    ScanOp,
    collect_aggregates,
    compute_aggregate,
    sort_rows_with_keys,
    substitute_aggregates,
    top_rows,
    walk_operators,
)
from repro.rdb.expr import (
    AggregateCall,
    And,
    ColumnRef,
    Comparison,
    Expr,
    Literal,
    Param,
    conjuncts as _conjuncts,
    sarg,
)
from repro.rdb.sqlparser import Delete, Select, SelectItem, TableRef, Update
from repro.rdb.storage import TableStore
from repro.util import unique_name

#: execution modes: plan shape · lowering back-end · scan access kinds
#: (DESIGN.md §8 has the table).  ``None`` is the cost-based default
#: and the only cached one; the rest pin one choice for baselines,
#: oracles and the plan scanner.
MODES = (None, "columnar", "compiled", "interpreted", "seed")


def _and_all(parts: list[Expr]) -> Expr | None:
    if not parts:
        return None
    combined = parts[0]
    for part in parts[1:]:
        combined = And(combined, part)
    return combined


def _range_bounds(column: str, sargs):
    """(low, low_inclusive, high, high_inclusive) on ``column``: the
    first lower and the first upper bound among ``sargs``."""
    low = high = None
    low_inclusive = high_inclusive = True
    for classified in sargs:
        if classified.column != column or classified.negated:
            continue
        if classified.kind == "between":
            bounds = ((">=", classified.operands[0]),
                      ("<=", classified.operands[1]))
        elif classified.kind == "cmp":
            bounds = ((classified.op, classified.operands[0]),)
        else:
            continue
        for op, bound in bounds:
            if op in (">", ">=") and low is None:
                low, low_inclusive = bound, op == ">="
            elif op in ("<", "<=") and high is None:
                high, high_inclusive = bound, op == "<="
    return low, low_inclusive, high, high_inclusive


def _row_count(what: str, value, params: dict):
    """A LIMIT / OFFSET operand at execution: a parameter is resolved
    and held to what the grammar demands of a literal."""
    if isinstance(value, Param):
        value = value.evaluate(None, params)
        if type(value) is not int or value < 0:
            raise QueryError(
                f"{what} expects a non-negative integer, got {value!r}"
            )
    return value


@dataclass(frozen=True)
class PlannerFeatures:
    """Individually defeatable planner decisions.

    All on by default.  Turning one off never changes results (every
    conjunct is still checked somewhere); it changes plan shape, which
    is exactly what the plan-space scanner measures.
    """

    #: greedy cardinality-driven join reordering (off: declared order)
    join_reorder: bool = True
    #: index access-path selection (off: every scan walks the heap)
    access_paths: bool = True
    #: single-table predicate pushdown from WHERE/ON onto scans and
    #: build-side prefilters (off: one final filter; LEFT-join ON
    #: prefilters keep their placement — that is semantics, not tuning)
    pushdown: bool = True


DEFAULT_FEATURES = PlannerFeatures()


class SelectPlan:
    def __init__(self, select: Select, stores: Mapping[str, TableStore],
                 mode: str | None = None, feedback=None,
                 features: PlannerFeatures | None = None):
        if mode not in MODES:
            raise QueryError(f"unknown execution mode {mode!r}")
        self.select = select
        self.stores = stores
        self.mode = mode
        cost_based = mode != "seed"
        #: adaptive selectivity memory consulted by every cost estimate;
        #: the naive seed plan stays feedback-blind so it remains a
        #: stable byte-identity oracle
        self.feedback = feedback if cost_based else None
        self.features = features if features is not None else DEFAULT_FEATURES
        #: adaptive feedback records this plan's executions: cost-based
        #: plans without LIMIT (abandoned generators under-count actuals)
        self.feedback_eligible = cost_based and select.limit is None
        self.columns_by_binding: dict[str, list[str]] = {}
        self._binding_order: list[str] = []
        self._table_by_binding: dict[str, str] = {}
        self._register_binding(select.source.binding, select.source.table)
        for join in select.joins:
            self._register_binding(join.table.binding, join.table.table)
        #: the real table names this plan reads — scoped plan-cache
        #: invalidation drops exactly the plans whose set intersects a
        #: DDL/ANALYZE statement's target
        self.tables = frozenset(self._table_by_binding.values())
        self.needed_columns = self._compute_needed_columns()
        #: grouped execution computed once: GROUP BY or any aggregate
        self.grouped = bool(select.group_by) or self._has_aggregates()
        self._wanted_aggregates = self._collect_wanted_aggregates()
        #: (offset, limit) as priced: a parameter, unknown when the
        #: statement is planned, counts as a fixed share of the table
        self._priced_window = select.offset, select.limit
        if any(isinstance(v, Param) for v in self._priced_window):
            self._priced_window = 0, max(1, int(
                len(self._store(select.source.table).rows)
                * cost.DEFAULT_WINDOW_SHARE
            ))
        #: the index-ordered walk's price, taken or not (None: no index
        #: serves the ORDER BY) — the plan-space scanner checks it
        self.walk_cost: float | None = None
        if cost_based:
            self.root = self._build_tree()
        else:
            self.root = self._build_tree_naive()
        self.output_columns, self._projection = self._build_projection()
        root = self.root
        #: every operator of the tree, for per-execution bookkeeping
        self.operators = tuple(walk_operators(root))
        access_kind = root.access.kind if isinstance(root, ScanOp) else None
        #: the scan walks an index in ORDER BY order: no sort step, and
        #: OFFSET / LIMIT skip and stop the walk itself
        self.ordered = access_kind == "ordered"
        #: an unfiltered COUNT(*): answered from the live row count
        self.counts_rows = access_kind == "count"
        #: ORDER BY … LIMIT keeps a bounded top-N instead of sorting all
        #: rows (DISTINCT and the seed plan keep the full sort)
        self.top_n = cost_based and bool(select.order_by) \
            and not self.ordered and select.limit is not None \
            and not select.distinct
        #: the whole plan's estimate: operator tree plus sort / top-N
        self.est_cost = root.est_cost
        if root.est_cost is not None and not self.ordered:
            self.est_cost += self._sort_cost(root.est_rows)
        # The tail's expression slots, filled — like the operators' —
        # by compile_plan: ``emit_fn`` for plain plans (row mode over
        # the scan's raw rows when ``fused``, else bindings mode); for
        # grouped ones the group key and aggregate arguments of the row
        # tail, or the column-gather ``group_tail`` in its place.
        self.emit_fn = None
        self.fused = False
        self.group_key_fn = None
        self.agg_arg_fns: dict[AggregateCall, object] = {}
        self.group_tail = self._execute_grouped
        started = time.perf_counter()
        self.compile_stats = compile_plan(self)
        if mode in INTERPRETED_MODES:
            self.exec_mode = "interpreted"
        elif any(isinstance(op, ScanOp) and op.access.kind == "columnar"
                 for op in self.operators):
            # the (single) scan sweeps column arrays, whatever its tail
            self.exec_mode = "columnar"
        elif self.compile_stats["interpreted"] == 0:
            self.exec_mode = "compiled"
        else:
            self.exec_mode = "mixed"
        self.compile_seconds = time.perf_counter() - started

    def _collect_wanted_aggregates(self) -> list[AggregateCall]:
        """Every aggregate any clause needs, in evaluation order."""
        wanted: list[AggregateCall] = []
        for item in self.select.items:
            if item.expr is not None:
                wanted.extend(collect_aggregates(item.expr))
        wanted.extend(collect_aggregates(self.select.having))
        for order_item in self.select.order_by:
            wanted.extend(collect_aggregates(order_item.expr))
        return wanted

    def _store(self, table: str) -> TableStore:
        if table not in self.stores:
            raise QueryError(f"unknown table {table!r}")
        return self.stores[table]

    def _register_binding(self, binding: str, table: str) -> None:
        if binding in self.columns_by_binding:
            raise QueryError(f"duplicate table binding {binding!r}")
        store = self._store(table)
        self.columns_by_binding[binding] = list(store.schema.column_names)
        self._binding_order.append(binding)
        self._table_by_binding[binding] = table

    def _binding_store(self, binding: str) -> TableStore:
        return self.stores[self._table_by_binding[binding]]

    # -- conjunct analysis ---------------------------------------------------

    def _conjunct_bindings(self, conjunct: Expr) -> frozenset[str] | None:
        """The bindings ``conjunct`` references, or None when a reference
        is unknown or ambiguous — such conjuncts stay in the final filter
        so execution raises the same error the evaluator always did."""
        bindings: set[str] = set()
        for ref in conjunct.column_refs():
            if ref.table is not None:
                columns = self.columns_by_binding.get(ref.table)
                if columns is None or ref.column not in columns:
                    return None
                bindings.add(ref.table)
            else:
                owners = [
                    binding
                    for binding, columns in self.columns_by_binding.items()
                    if ref.column in columns
                ]
                if len(owners) != 1:
                    return None
                bindings.add(owners[0])
        return frozenset(bindings)

    def _column_binding(self, ref: ColumnRef) -> str | None:
        if ref.table is not None:
            return ref.table if ref.table in self.columns_by_binding else None
        owners = [
            binding
            for binding, columns in self.columns_by_binding.items()
            if ref.column in columns
        ]
        return owners[0] if len(owners) == 1 else None

    def _equi_split(
        self, conjunct: Expr, new_binding: str, available: set[str]
    ) -> tuple[Expr, str] | None:
        """Match ``new.col = <expr over available bindings>`` (either
        side) and return (probe expr, build column)."""
        if not isinstance(conjunct, Comparison) or conjunct.op != "=":
            return None
        for col_side, probe_side in (
            (conjunct.left, conjunct.right),
            (conjunct.right, conjunct.left),
        ):
            if not isinstance(col_side, ColumnRef):
                continue
            if self._column_binding(col_side) != new_binding:
                continue
            probe_bindings = self._conjunct_bindings(probe_side)
            if probe_bindings is None or not probe_bindings:
                continue
            if probe_bindings <= available:
                return probe_side, col_side.column
        return None

    # -- access-path selection ------------------------------------------------

    def _choose_access_path(
        self, store: TableStore, conjuncts: list[Expr]
    ) -> tuple[AccessPath, float, float]:
        """The cheapest access path for a scan with ``conjuncts`` pushed
        onto it; returns (path, estimated output rows, estimated cost).

        An empty (typically not-yet-seeded) table is costed as if it had
        a few rows, so a plan cached before the bulk load still picks
        the index it will want afterwards."""
        live = len(store.rows) or 10
        output = live * cost.conjuncts_selectivity(
            store, conjuncts, self.feedback
        )
        walk, walk_cost = AccessPath(), float(live)
        if len(self._binding_order) == 1 and self.mode in (None, "columnar"):
            # The heap walk's batch form, open to the one scan of a
            # join-free plan: a flat setup fee, then a fraction of a
            # row's cost per row — taken by price, or because the mode
            # pins it.  Pricing it is also the lever that lets a learned
            # low-selectivity correction beat an index probe that must
            # still touch most of the table row-at-a-time.
            batch_cost = cost.columnar_scan_cost(live)
            if self.mode == "columnar" or batch_cost < walk_cost:
                walk, walk_cost = AccessPath(kind="columnar"), batch_cost
        found = None
        if self.features.access_paths:
            # a pinned layout still competes at the cheaper walk's price:
            # "columnar" changes how the heap is walked, not whether
            found = self._index_path(
                store, conjuncts, live, output, min(float(live), walk_cost)
            )
        return found or (walk, output, walk_cost)

    def _index_path(self, store: TableStore, conjuncts: list[Expr],
                    live: int, output: float, best_cost: float):
        """The index path (or row-count answer) cheaper than a heap walk
        priced ``best_cost``, as ``_choose_access_path`` returns it, or
        None when the walk stands."""
        feedback = self.feedback
        best_path = None
        select = self.select
        if (self.grouped and not select.group_by and select.where is None
                and not select.joins
                and not any(self.needed_columns.values())
                and all(c.argument is None for c in self._wanted_aggregates)):
            # COUNT(*) of a whole table, nothing else read: the live row
            # count answers it, no scan runs
            return AccessPath(kind="count"), 0.0, cost.INDEX_PROBE_COST
        # what the pushed conjuncts say about single columns, constant
        # operands only (an index is probed once per execution)
        sargs = [
            classified for classified in map(sarg, conjuncts)
            if classified is not None and classified.constant
            and store.schema.has_column(classified.column)
        ]
        equalities: dict[str, Expr] = {}
        for classified in sargs:
            if classified.kind == "cmp" and classified.op == "=":
                equalities.setdefault(
                    classified.column, classified.operands[0]
                )
        order_columns = self._walkable_order(store)
        ordered = None
        for name, index in store.iter_indexes():
            prefix_exprs: list[Expr] = []
            prefix_selectivity = 1.0
            for column in index.columns:
                expr = equalities.get(column)
                if expr is None:
                    break
                prefix_exprs.append(expr)
                prefix_selectivity *= cost.equality_selectivity(
                    store, column, feedback
                )
            width = len(prefix_exprs)
            if width:
                matching = live * prefix_selectivity
                candidate_cost = cost.INDEX_PROBE_COST + matching
                if candidate_cost < best_cost:
                    best_cost = candidate_cost
                    best_path = AccessPath(
                        kind="eq", index=index, index_name=name,
                        columns=index.columns[:width],
                        eq_exprs=tuple(prefix_exprs),
                    )
            # The index-ordered alternative to scan + sort: equality-
            # bound columns, then *exactly* the ORDER BY columns (a longer
            # index would order ties by its extra columns, not by scan
            # order as the sort does).
            lead = len(index.columns) - len(order_columns)
            if order_columns and 0 <= lead <= width \
                    and index.columns[lead:] == order_columns:
                segment = float(live)
                for column in index.columns[:lead]:
                    segment *= cost.equality_selectivity(
                        store, column, feedback
                    )
                rows, walk_cost = cost.ordered_walk(
                    max(segment, output), output, *self._priced_window,
                    bool(conjuncts),
                )
                if ordered is None or walk_cost < ordered[2]:
                    ordered = AccessPath(
                        kind="ordered", index=index, index_name=name,
                        columns=index.columns,
                        eq_exprs=tuple(prefix_exprs[:lead]),
                        descending=self.select.order_by[0].descending,
                    ), rows, walk_cost
            if width >= len(index.columns):
                continue
            next_column = index.columns[width]
            low, low_inc, high, high_inc = _range_bounds(next_column, sargs)
            if low is not None or high is not None:
                range_selectivity = cost.range_selectivity(
                    store, next_column,
                    low.value if isinstance(low, Literal) else None,
                    high.value if isinstance(high, Literal) else None,
                    low_inc, high_inc, feedback=feedback,
                )
                matching = live * prefix_selectivity * range_selectivity
                candidate_cost = cost.INDEX_PROBE_COST + matching
                if candidate_cost < best_cost:
                    best_cost = candidate_cost
                    best_path = AccessPath(
                        kind="range", index=index, index_name=name,
                        columns=index.columns[: width + 1],
                        eq_exprs=tuple(prefix_exprs),
                        low=low, low_inclusive=low_inc,
                        high=high, high_inclusive=high_inc,
                    )
            in_options = next((
                classified.operands for classified in sargs
                if classified.kind == "in" and not classified.negated
                and classified.column == next_column
            ), None)
            if in_options:
                per_value = cost.equality_selectivity(
                    store, next_column, feedback
                )
                selectivity = cost.clamp(
                    prefix_selectivity * per_value * len(in_options)
                )
                matching = live * selectivity
                candidate_cost = (
                    len(in_options) * cost.INDEX_PROBE_COST + matching
                )
                if candidate_cost < best_cost:
                    best_cost = candidate_cost
                    best_path = AccessPath(
                        kind="in", index=index, index_name=name,
                        columns=index.columns[: width + 1],
                        eq_exprs=tuple(prefix_exprs),
                        in_exprs=tuple(in_options),
                    )
        if ordered is not None:
            self.walk_cost = ordered[2]
            if ordered[2] < best_cost + self._sort_cost(output):
                return ordered
        if best_path is None:
            return None
        return best_path, output, best_cost

    def _sort_cost(self, rows: float) -> float:
        """What ordering ``rows`` scanned rows costs this plan's tail:
        nothing without ORDER BY, a bounded top-N under a LIMIT."""
        if not self.select.order_by:
            return 0.0
        offset, limit = self._priced_window
        bounded = limit is not None and not self.select.distinct
        return cost.sort_cost(rows, offset + limit if bounded else None)

    def _walkable_order(self, store: TableStore) -> tuple[str, ...]:
        """The ORDER BY as columns of ``store`` an index walk could
        serve, or () when the plan shape rules the walk out: joins,
        grouping, DISTINCT, a filter above the scan, computed or
        mixed-direction sort keys."""
        select = self.select
        order = select.order_by
        if (len(self._binding_order) > 1 or select.distinct or self.grouped
                or not self.features.pushdown
                or any(item.descending != order[0].descending
                       or not isinstance(item.expr, ColumnRef)
                       or item.expr.table not in (None, self._binding_order[0])
                       or not store.schema.has_column(item.expr.column)
                       for item in order)):
            return ()
        return tuple(item.expr.column for item in order)

    # -- operator tree (cost-based) -------------------------------------------

    def _build_tree(self) -> Operator:
        select = self.select
        if any(join.kind != "inner" for join in select.joins):
            return self._build_tree_mixed()
        return self._build_tree_inner()

    def _classify(self, conjuncts: list[Expr]):
        """Split conjuncts into per-binding local lists, multi-binding
        pairs, and unresolvable leftovers."""
        local: dict[str, list[Expr]] = {b: [] for b in self._binding_order}
        multi: list[tuple[Expr, frozenset[str]]] = []
        leftover: list[Expr] = []
        for conjunct in conjuncts:
            bindings = self._conjunct_bindings(conjunct)
            if bindings is None:
                leftover.append(conjunct)
            elif len(bindings) == 1:
                local[next(iter(bindings))].append(conjunct)
            elif len(bindings) == 0:
                # parameter-only conjunct: evaluate it at the base scan
                local[self._binding_order[0]].append(conjunct)
            else:
                multi.append((conjunct, bindings))
        return local, multi, leftover

    def _local_estimates(self, local: dict[str, list[Expr]]) -> dict[str, float]:
        estimates = {}
        for binding in self._binding_order:
            store = self._binding_store(binding)
            estimates[binding] = len(store.rows) * cost.conjuncts_selectivity(
                store, local[binding], self.feedback
            )
        return estimates

    def _greedy_order(
        self,
        local: dict[str, list[Expr]],
        multi: list[tuple[Expr, frozenset[str]]],
    ) -> list[str] | None:
        """Selinger-lite greedy join order: start from the smallest
        filtered table, repeatedly add the equi-connected table with the
        cheapest estimated join output.  None when the graph disconnects
        (then the declared order stands)."""
        estimates = self._local_estimates(local)
        position = {b: i for i, b in enumerate(self._binding_order)}
        start = min(self._binding_order,
                    key=lambda b: (estimates[b], position[b]))
        order = [start]
        joined = {start}
        cardinality = max(estimates[start], cost.clamp(0.0))
        remaining = [b for b in self._binding_order if b != start]
        while remaining:
            best = None
            for candidate in remaining:
                build_columns = []
                for conjunct, bindings in multi:
                    if candidate not in bindings:
                        continue
                    if not bindings <= joined | {candidate}:
                        continue
                    pair = self._equi_split(conjunct, candidate, joined)
                    if pair is not None:
                        build_columns.append(pair[1])
                if not build_columns:
                    continue
                store = self._binding_store(candidate)
                distinct = cost.join_distinct(
                    store, tuple(build_columns), self.feedback
                )
                output = cardinality * estimates[candidate] / max(distinct, 1.0)
                key = (output, position[candidate])
                if best is None or key < best[0]:
                    best = (key, candidate, output)
            if best is None:
                return None  # disconnected: keep the declared order
            _, chosen, output = best
            order.append(chosen)
            joined.add(chosen)
            cardinality = output
            remaining.remove(chosen)
        return order

    def _build_tree_inner(self) -> Operator:
        select = self.select
        pool = _conjuncts(select.where)
        for join in select.joins:
            pool.extend(_conjuncts(join.condition))
        local, multi, leftover = self._classify(pool)
        if not self.features.pushdown:
            # Single-table conjuncts stay in the final filter instead of
            # riding down to scans and build sides (parameter-only ones
            # included — inner-join semantics make the move safe).
            for binding in self._binding_order:
                leftover.extend(local[binding])
                local[binding] = []

        order = self._binding_order
        if len(order) > 1 and self.features.join_reorder:
            greedy = self._greedy_order(local, multi)
            if greedy is not None:
                order = greedy

        base = order[0]
        base_store = self._binding_store(base)
        base_conjuncts = local[base]
        if base != self._binding_order[0]:
            # parameter-only conjuncts were filed under the declared
            # base; keep them with whatever scan now runs first
            moved = [c for c in local[self._binding_order[0]]
                     if not c.column_refs()]
            base_conjuncts = base_conjuncts + moved
            local[self._binding_order[0]] = [
                c for c in local[self._binding_order[0]] if c.column_refs()
            ]
        access, est_rows, est_cost = self._choose_access_path(
            base_store, base_conjuncts
        )
        root: Operator = ScanOp(
            base_store, base, access, _and_all(base_conjuncts)
        )
        root.est_rows, root.est_cost = est_rows, est_cost

        available = {base}
        cardinality, total_cost = est_rows, est_cost
        unplaced = list(multi)
        for binding in order[1:]:
            store = self._binding_store(binding)
            here: list[tuple[Expr, frozenset[str]]] = []
            rest_pool: list[tuple[Expr, frozenset[str]]] = []
            for conjunct, bindings in unplaced:
                if bindings <= available | {binding}:
                    here.append((conjunct, bindings))
                else:
                    rest_pool.append((conjunct, bindings))
            unplaced = rest_pool
            probe_exprs: list[Expr] = []
            build_columns: list[str] = []
            residual: list[Expr] = []
            for conjunct, _bindings in here:
                pair = self._equi_split(conjunct, binding, available)
                if pair is not None:
                    probe_exprs.append(pair[0])
                    build_columns.append(pair[1])
                else:
                    residual.append(conjunct)
            prefilter = _and_all(local[binding])
            build_est = len(store.rows) * cost.conjuncts_selectivity(
                store, local[binding], self.feedback
            )
            residual_selectivity = cost.conjuncts_selectivity(
                store, residual, self.feedback
            )
            if probe_exprs:
                root = HashJoinOp(
                    root, store, binding, tuple(probe_exprs),
                    tuple(build_columns), _and_all(residual), "inner",
                    self.columns_by_binding, prefilter,
                )
                distinct = cost.join_distinct(
                    store, tuple(build_columns), self.feedback
                )
                output = (cardinality * build_est / max(distinct, 1.0)
                          * residual_selectivity)
                step_cost = (
                    len(store.rows) * cost.HASH_BUILD_COST
                    + cardinality * cost.HASH_PROBE_COST + output
                )
            else:
                condition = _and_all(residual) or Literal(True)
                root = NestedLoopJoinOp(
                    root, store, binding, condition, "inner",
                    self.columns_by_binding, prefilter,
                )
                output = cardinality * build_est * residual_selectivity
                step_cost = len(store.rows) + cardinality * build_est
            total_cost += step_cost
            cardinality = output
            root.est_rows, root.est_cost = cardinality, total_cost
            available.add(binding)

        final = [conjunct for conjunct, _ in unplaced] + leftover
        if final:
            root = FilterOp(root, _and_all(final), self.columns_by_binding)
            root.est_rows, root.est_cost = cardinality, total_cost
        return root

    def _build_tree_mixed(self) -> Operator:
        """Declared-order plan for queries with LEFT joins: only the
        provably safe pushdowns are taken.  A WHERE conjunct touching a
        left-joined binding must see the null-padded row, so it stays in
        the final filter; a LEFT join's ON conjuncts never leave the
        join except as build-side prefilters (they decide matching, not
        row survival)."""
        select = self.select
        left_bindings = {
            join.table.binding for join in select.joins if join.kind == "left"
        }
        local, multi, leftover = self._classify(_conjuncts(select.where))
        final: list[Expr] = list(leftover)
        for binding in left_bindings:
            final.extend(local.pop(binding, []))
            local[binding] = []
        if not self.features.pushdown:
            # WHERE conjuncts stay in the final filter; LEFT-join ON
            # prefilters below keep their placement (semantics, not a
            # tunable decision).
            for binding in self._binding_order:
                final.extend(local[binding])
                local[binding] = []
        placed_multi: list[tuple[Expr, frozenset[str]]] = []
        for conjunct, bindings in multi:
            if bindings & left_bindings:
                final.append(conjunct)
            else:
                placed_multi.append((conjunct, bindings))

        base = self._binding_order[0]
        base_store = self._binding_store(base)
        access, est_rows, est_cost = self._choose_access_path(
            base_store, local[base]
        )
        root: Operator = ScanOp(base_store, base, access, _and_all(local[base]))
        root.est_rows, root.est_cost = est_rows, est_cost

        available = {base}
        cardinality, total_cost = est_rows, est_cost
        unplaced = list(placed_multi)
        for join in select.joins:
            binding = join.table.binding
            store = self._binding_store(binding)
            probe_exprs: list[Expr] = []
            build_columns: list[str] = []
            residual: list[Expr] = []
            prefilter_parts: list[Expr] = []
            for conjunct in _conjuncts(join.condition):
                bindings = self._conjunct_bindings(conjunct)
                if bindings == frozenset({binding}):
                    prefilter_parts.append(conjunct)
                    continue
                pair = self._equi_split(conjunct, binding, available)
                if pair is not None:
                    probe_exprs.append(pair[0])
                    build_columns.append(pair[1])
                else:
                    residual.append(conjunct)
            if join.kind == "inner":
                # WHERE conjuncts local to this inner table prefilter the
                # build side; covered multi-binding WHERE conjuncts join
                # the residual (inner residual == filter semantics)
                prefilter_parts.extend(local[binding])
                still: list[tuple[Expr, frozenset[str]]] = []
                for conjunct, bindings in unplaced:
                    if bindings <= available | {binding}:
                        residual.append(conjunct)
                    else:
                        still.append((conjunct, bindings))
                unplaced = still
            prefilter = _and_all(prefilter_parts)
            build_est = len(store.rows) * cost.conjuncts_selectivity(
                store, prefilter_parts, self.feedback
            )
            if probe_exprs:
                root = HashJoinOp(
                    root, store, binding, tuple(probe_exprs),
                    tuple(build_columns), _and_all(residual), join.kind,
                    self.columns_by_binding, prefilter,
                )
                distinct = cost.join_distinct(
                    store, tuple(build_columns), self.feedback
                )
                output = cardinality * build_est / max(distinct, 1.0)
                step_cost = (
                    len(store.rows) * cost.HASH_BUILD_COST
                    + cardinality * cost.HASH_PROBE_COST + output
                )
            else:
                condition = _and_all(residual) or Literal(True)
                root = NestedLoopJoinOp(
                    root, store, binding, condition, join.kind,
                    self.columns_by_binding, prefilter,
                )
                output = cardinality * build_est
                step_cost = len(store.rows) + cardinality * build_est
            if join.kind == "left":
                output = max(output, cardinality)  # left joins keep every row
            total_cost += step_cost
            cardinality = output
            root.est_rows, root.est_cost = cardinality, total_cost
            available.add(binding)

        final.extend(conjunct for conjunct, _ in unplaced)
        if final:
            root = FilterOp(root, _and_all(final), self.columns_by_binding)
            root.est_rows, root.est_cost = cardinality, total_cost
        return root

    # -- operator tree (naive baseline) ---------------------------------------

    def _build_tree_naive(self) -> Operator:
        """The pre-cost-model plan shape: exact-equality index lookups
        only, declared join order, no pushdown, one final WHERE filter."""
        select = self.select
        source_binding = select.source.binding
        source_store = self._store(select.source.table)

        eq_columns: list[str] = []
        eq_exprs: list[Expr] = []
        if not select.joins:
            for conjunct in _conjuncts(select.where):
                # ``source.col = <constant expr>``, either way round
                classified = sarg(conjunct)
                if (classified is not None and classified.kind == "cmp"
                        and classified.op == "=" and classified.constant
                        and classified.table in (None, source_binding)
                        and source_store.schema.has_column(classified.column)):
                    eq_columns.append(classified.column)
                    eq_exprs.append(classified.operands[0])
        # Only use the lookup path when an index matches exactly.
        root: Operator
        use_lookup: tuple[str, ...] = ()
        for width in range(len(eq_columns), 0, -1):
            candidate = tuple(eq_columns[:width])
            if source_store.index_on(candidate) is not None:
                use_lookup = candidate
                break
        if use_lookup:
            index = source_store.index_on(use_lookup)
            root = ScanOp(
                source_store,
                source_binding,
                AccessPath(
                    kind="eq", index=index, columns=use_lookup,
                    eq_exprs=tuple(eq_exprs[: len(use_lookup)]),
                ),
            )
        else:
            root = ScanOp(source_store, source_binding)

        joined = {source_binding}
        for join in select.joins:
            store = self._store(join.table.table)
            binding = join.table.binding
            probe_exprs: list[Expr] = []
            build_columns: list[str] = []
            residual: list[Expr] = []
            for conjunct in _conjuncts(join.condition):
                pair = self._equi_condition(conjunct, binding, joined)
                if pair is not None:
                    probe_exprs.append(pair[0])
                    build_columns.append(pair[1])
                else:
                    residual.append(conjunct)
            if probe_exprs:
                root = HashJoinOp(
                    root, store, binding, tuple(probe_exprs),
                    tuple(build_columns), _and_all(residual), join.kind,
                    self.columns_by_binding,
                )
            else:
                root = NestedLoopJoinOp(
                    root, store, binding, join.condition, join.kind,
                    self.columns_by_binding,
                )
            joined.add(binding)

        if select.where is not None:
            root = FilterOp(root, select.where, self.columns_by_binding)
        return root

    def _equi_condition(
        self, conjunct: Expr, new_binding: str, joined: set[str]
    ) -> tuple[Expr, str] | None:
        """Match ``new.col = old.col`` and return (probe expr, build column)."""
        if not isinstance(conjunct, Comparison) or conjunct.op != "=":
            return None
        left, right = conjunct.left, conjunct.right
        if not (isinstance(left, ColumnRef) and isinstance(right, ColumnRef)):
            return None
        if left.table is None or right.table is None:
            return None
        if left.table == new_binding and right.table in joined:
            return right, left.column
        if right.table == new_binding and left.table in joined:
            return left, right.column
        return None

    # -- projection pushdown ---------------------------------------------------

    def _compute_needed_columns(self) -> dict[str, tuple[str, ...]]:
        """Per binding, the columns any clause of this query can touch.

        Rows flow through the tree by reference, so narrowing them would
        cost a copy; the value of the analysis is (a) EXPLAIN shows what
        each scan actually feeds upward and (b) callers shipping rows
        across a wire (the service tier's row shaping) know the minimal
        column set.
        """
        select = self.select
        needed: dict[str, set[str]] = {b: set() for b in self._binding_order}

        def visit(expr: Expr | None) -> None:
            if expr is None:
                return
            for ref in expr.column_refs():
                binding = self._column_binding(ref)
                if binding is not None:
                    needed[binding].add(ref.column)

        for item in select.items:
            if item.is_star:
                bindings = (
                    [item.star_table] if item.star_table else self._binding_order
                )
                for binding in bindings:
                    if binding in needed:
                        needed[binding].update(self.columns_by_binding[binding])
                continue
            visit(item.expr)
        visit(select.where)
        for join in select.joins:
            visit(join.condition)
        for expr in select.group_by:
            visit(expr)
        visit(select.having)
        for item in select.order_by:
            visit(item.expr)
        return {
            binding: tuple(
                column for column in self.columns_by_binding[binding]
                if column in columns
            )
            for binding, columns in needed.items()
        }

    # -- projection -----------------------------------------------------------

    def _build_projection(self) -> tuple[list[str], list[tuple[str, Expr | None, str | None]]]:
        """Returns output column names plus per-item evaluation specs.

        Each spec is ``(output_name, expr, star_binding_column)``:
        exactly one of ``expr`` / star source is set.
        """
        names: list[str] = []
        specs: list[tuple[str, Expr | None, tuple[str, str] | None]] = []
        taken: set[str] = set()

        def claim(base: str) -> str:
            return unique_name(base, taken)

        for position, item in enumerate(self.select.items):
            if item.is_star:
                bindings = (
                    [item.star_table] if item.star_table else self._binding_order
                )
                for binding in bindings:
                    if binding not in self.columns_by_binding:
                        raise QueryError(f"unknown table or alias {binding!r}")
                    for column in self.columns_by_binding[binding]:
                        name = claim(
                            column if column not in taken else f"{binding}.{column}"
                        )
                        specs.append((name, None, (binding, column)))
                        names.append(name)
                continue
            if item.alias:
                base = item.alias
            elif isinstance(item.expr, ColumnRef):
                base = item.expr.column
            else:
                base = f"col{position + 1}"
            name = claim(base)
            specs.append((name, item.expr, None))
            names.append(name)
        return names, specs

    # -- EXPLAIN ---------------------------------------------------------------

    def access_summary(self) -> str:
        """A compact rendition of the chosen access paths, for trace
        spans and the slow-query log: one ``kind:table(columns)`` item
        per scan, e.g. ``eq:issue(oid)+seq:paper``.  Computed once and
        cached on the plan (plans are shared via the plan cache, so the
        cost amortizes to nothing)."""
        summary = getattr(self, "_access_summary", None)
        if summary is None:
            parts = []
            for node in self.operators:
                if isinstance(node, ScanOp):
                    item = f"{node.access.kind}:{node.store.schema.name}"
                    if node.access.columns:
                        item += f"({','.join(node.access.columns)})"
                    parts.append(item)
            summary = "+".join(sorted(parts)) or "const"
            self._access_summary = summary
        return summary

    def explain(self, analyze: bool = False) -> str:
        """A textual plan tree: the executor's post-processing steps
        (limit/sort/distinct/grouping) wrap the operator tree, which is
        printed root-first with children indented below.  Cost-based
        plans annotate each operator with estimated rows/cost and each
        scan with the columns the query needs from it.

        ``analyze=True`` adds each operator's ``actual=`` row count from
        the most recent execution and, where an estimate exists, the
        ``q=`` error factor (``max(actual/est, est/actual)``) — the
        caller is expected to have executed the plan first."""
        select = self.select
        lines: list[str] = []
        post = []
        limit, offset = (
            f":{v.name}" if isinstance(v, Param) else v
            for v in (select.limit, select.offset)
        )
        if select.limit is not None or select.offset:
            post.append(f"Limit(limit={limit}, offset={offset})")
        keys = f"{len(select.order_by)} keys"
        if self.top_n:
            post.append(f"TopN({limit} + {offset}, {keys})")
        elif select.order_by and not self.ordered:
            post.append(f"Sort({keys})")
        if select.distinct:
            post.append("Distinct")
        if select.group_by or self._has_aggregates():
            post.append("GroupAggregate")
        for depth, label in enumerate(post):
            lines.append("  " * depth + label)
        self._explain_node(self.root, len(post), lines, root=True,
                           analyze=analyze)
        return "\n".join(lines)

    def _explain_node(self, node, depth: int, lines: list[str],
                      root: bool = False, analyze: bool = False) -> None:
        label = node.describe()
        annotations = []
        if isinstance(node, ScanOp):
            columns = self.needed_columns.get(node.binding)
            if columns is not None and self.mode != "seed":
                annotations.append(f"cols={','.join(columns) or '-'}")
        if node.est_rows is not None:
            annotations.append(f"rows~{node.est_rows:.1f}")
            annotations.append(f"cost~{node.est_cost:.1f}")
        if analyze and node.actual_rows is not None:
            annotations.append(f"actual={node.actual_rows}")
            if isinstance(node, ScanOp):
                annotations.append(f"scanned={node.scanned}")
            if node.est_rows is not None:
                est = max(float(node.est_rows), 1.0)
                act = max(float(node.actual_rows), 1.0)
                annotations.append(f"q={max(act / est, est / act):.1f}")
        if root:
            # execution mode is a plan-wide property; it annotates the
            # root operator (never a separate line, so line-positional
            # consumers of EXPLAIN output keep working)
            annotations.append(f"exec={self.exec_mode}")
            if self.fused:
                annotations.append("fused")
        if annotations:
            label += f"  [{' '.join(annotations)}]"
        lines.append("  " * depth + label)
        for child in node.children():
            self._explain_node(child, depth + 1, lines, analyze=analyze)

    def _has_aggregates(self) -> bool:
        if collect_aggregates(self.select.having):
            return True
        return any(
            collect_aggregates(item.expr)
            for item in self.select.items
            if item.expr is not None
        )

    # -- execution --------------------------------------------------------------

    def execute(self, params: dict | None = None) -> ResultSet:
        params = dict(params or {})
        select = self.select
        offset, limit = select.offset, select.limit
        if isinstance(offset, Param) or isinstance(limit, Param):
            offset = _row_count("OFFSET", offset, params)
            limit = _row_count("LIMIT", limit, params)
        stop = None if limit is None else offset + limit
        root = self.root

        if self.ordered:
            # the walk takes an unfiltered OFFSET on index entries; the
            # rest of the window counts rows that passed the predicate
            skip = offset if root.predicate is None else 0
            stream = root.matching(params, skip)
            emit, binding = self.emit_fn, root.binding
            rows = [
                emit(row if self.fused else {binding: row}, params)[0]
                for _row_id, row in itertools.islice(
                    stream, offset - skip,
                    None if stop is None else stop - skip,
                )
            ]
            stream.close()  # LIMIT reached: stop the scan where it stands
            return ResultSet(list(self.output_columns), rows)
        if self.counts_rows:
            produced = self._emit_group(
                dict.fromkeys(self.columns_by_binding),
                dict.fromkeys(self._wanted_aggregates, len(root.store.rows)),
                params,
            )
        elif self.grouped:
            produced = self.group_tail(params)
        else:
            produced = self._execute_plain(params)

        if select.distinct:
            seen: set[tuple] = set()
            unique_rows = []
            for row, keys in produced:
                fingerprint = tuple(row[c] for c in self.output_columns)
                try:
                    new = fingerprint not in seen
                    if new:
                        seen.add(fingerprint)
                except TypeError:  # unhashable value; fall back to linear scan
                    new = all(
                        fingerprint != tuple(r[c] for c in self.output_columns)
                        for r, _ in unique_rows
                    )
                if new:
                    unique_rows.append((row, keys))
            produced = unique_rows

        if self.top_n:
            rows_with_keys = top_rows(produced, select.order_by, stop)
        else:
            rows_with_keys = list(produced)
            sort_rows_with_keys(rows_with_keys, select.order_by)
        if offset or stop is not None:
            rows_with_keys = rows_with_keys[offset:stop]
        return ResultSet(
            list(self.output_columns), [row for row, _ in rows_with_keys]
        )

    def _order_keys(
        self, scope: RowScope, out_row: dict, params: dict,
        aggregate_values: dict | None = None,
    ) -> list:
        keys = []
        for item in self.select.order_by:
            expr = item.expr
            if aggregate_values is not None and collect_aggregates(expr):
                expr = substitute_aggregates(expr, aggregate_values)
            try:
                keys.append(expr.evaluate(scope, params))
            except QueryError:
                # ORDER BY may name a projected alias not visible in scope.
                if isinstance(expr, ColumnRef) and expr.table is None \
                        and expr.column in out_row:
                    keys.append(out_row[expr.column])
                else:
                    raise
        return keys

    def _project_row(self, scope: RowScope, bindings: Bindings, params: dict,
                     aggregate_values: dict | None = None) -> dict:
        out: dict = {}
        for name, expr, star_source in self._projection:
            if star_source is not None:
                binding, column = star_source
                row = bindings.get(binding)
                out[name] = None if row is None else row[column]
            else:
                assert expr is not None
                if aggregate_values is not None and collect_aggregates(expr):
                    expr = substitute_aggregates(expr, aggregate_values)
                out[name] = expr.evaluate(scope, params)
        return out

    def _execute_plain(self, params: dict):
        """Operator tree → emit.  ``fused`` (generated single-scan
        plans) is the scan→filter→project pipeline: the scan's matching
        rows feed a row-mode emit directly — no binding map, no
        per-operator handoff."""
        emit = self.emit_fn
        if self.fused:
            for _row_id, row in self.root.matching(params):
                yield emit(row, params)
        else:
            for bindings in self.root.rows(params):
                yield emit(bindings, params)

    def _execute_grouped(self, params: dict):
        select = self.select
        groups: dict[tuple, list[Bindings]] = {}
        order: list[tuple] = []
        group_key = self.group_key_fn
        for bindings in self.root.rows(params):
            key = group_key(bindings, params)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(bindings)
        if not select.group_by and not groups:
            # Aggregates over an empty table still produce one row.
            groups[()] = []
            order.append(())

        wanted = self._wanted_aggregates
        extractors = self.agg_arg_fns
        for key in order:
            group = groups[key]
            aggregate_values: dict[AggregateCall, object] = {}
            for call in wanted:
                if call not in aggregate_values:
                    aggregate_values[call] = compute_aggregate(
                        call, group, params, extractors.get(call)
                    )
            representative: Bindings = (
                group[0] if group
                else {b: None for b in self.columns_by_binding}
            )
            yield from self._emit_group(representative, aggregate_values, params)

    def _emit_group(self, representative: Bindings,
                    aggregate_values: dict, params: dict):
        """The per-group tail shared by row and columnar grouped
        execution: HAVING verdict, projection, ORDER BY keys.  Yields
        zero or one ``(out_row, keys)`` pairs."""
        select = self.select
        scope = RowScope(representative, self.columns_by_binding)
        if select.having is not None:
            verdict = substitute_aggregates(
                select.having, aggregate_values
            ).evaluate(scope, params)
            if verdict is not True:
                return
        out_row = self._project_row(
            scope, representative, params, aggregate_values
        )
        yield out_row, self._order_keys(scope, out_row, params, aggregate_values)


class DmlPlan:
    """What an UPDATE / DELETE keeps in the plan cache: the parsed
    statement (a repeat skips ``parse_sql``) and the scan that finds
    its rows — ``SELECT * FROM table WHERE where`` through the same
    pushdown and access-path choice as any SELECT, lowered in row mode.
    It runs under the write lock, so no batch kernels and no adaptive
    feedback."""

    def __init__(self, statement: Update | Delete,
                 stores: Mapping[str, TableStore]):
        self.statement = statement
        self.match = SelectPlan(
            Select((SelectItem(None),), TableRef(statement.table),
                   where=statement.where),
            stores, mode="compiled",
        )
        self.tables = self.match.tables
        root = self.match.root
        if isinstance(root, FilterOp):
            # Only a conjunct naming an unresolvable column stays out of
            # a single-table scan; report it as evaluating it would.
            scope = RowScope({}, self.match.columns_by_binding)
            for ref in root.predicate.column_refs():
                scope.lookup(ref.table, ref.column)

    def row_ids(self, params: dict) -> list[int]:
        """Every matching row id, collected in full so the caller's
        mutations cannot disturb the scan."""
        return [row_id for row_id, _row in self.match.root.matching(params)]
