"""Lowering: planned ``Expr`` trees to the callables operators run.

Operators never look at an expression; they call one ``fn(env,
params)`` per slot.  :func:`compile_plan` fills every slot of a plan
with one of two back-ends, chosen by the plan's mode:

- **interpreter closures** (:data:`INTERPRETED_MODES`): each slot closes
  over ``Expr.evaluate`` — a Python call per AST node plus a
  :class:`RowScope` allocation and a linear owner search per
  unqualified column, per row, per operator.  No source is generated
  for these plans; they are the plan-shape reference (E14 / E17's
  baselines) and the per-slot fallback below.
- **generated source** (every other mode) removes that tax: each
  expression is translated *once* into Python source, compiled with
  :func:`compile` and executed into a namespace of small runtime
  helpers; the functions live on the plan (and therefore in the plan
  cache, whose table-scoped invalidation already forces re-lowering
  after DDL/ANALYZE).

Safety argument, in three rules:

1. **One copy of each value rule.**  Generated code calls the function
   objects the ``evaluate`` methods call — :mod:`repro.rdb.expr`'s
   ``ARITHMETIC`` / ``COMPARISON_TESTS`` maps, ``between_test``,
   ``in_test``, the LIKE matcher, the scalar function registry — so it
   raises the same :class:`~repro.errors.QueryError` messages; what is
   generated is only operand fetching, SQL three-valued AND / OR / NOT
   with the interpreter's short-circuit order, and lazy ``IN``-list
   option evaluation.
2. **Fallback, never failure.**  Anything the generator cannot translate
   faithfully (aggregates in scalar position, unknown functions, wrong
   arity, unresolvable or ambiguous columns) raises :class:`CompileError`
   internally and that slot gets its interpreter closure instead — so a
   compiled plan never behaves differently, it is at worst partially
   interpreted ("mixed" mode, counted in ``compile_fallback_exprs``).
3. **Oracles.**  Both back-ends fill the same slots of the same
   operators, so modes can only disagree through a lowered expression;
   the four-way oracle executes every mode against random queries and
   requires identical rows and ordering, and the grammar oracle
   (``tests/test_rdb_sql_grammar.py``) holds every mode's answer to
   SQLite's.

Two calling conventions are lowered:

- **row mode** ``fn(row, params)`` for expressions over a single table
  binding whose row is a real dict (scan predicates, join build-side
  prefilters and key extractors, the fused scan→filter→project
  pipeline): columns become direct ``row['col']`` subscripts.
- **bindings mode** ``fn(bindings, params)`` for expressions over a
  binding map that may hold ``None`` rows (LEFT JOIN padding): each
  referenced binding is fetched once per call and every column access
  is guarded with ``None if row is None else row['col']``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from repro.rdb import columnar, cost
from repro.rdb.executor import (
    FilterOp,
    HashJoinOp,
    NestedLoopJoinOp,
    RowScope,
    ScanOp,
    reduce_aggregate,
)
from repro.rdb.expr import (
    _SCALAR_FUNCTIONS,
    ARITHMETIC,
    COMPARISON_TESTS,
    VARIADIC_FUNCTIONS,
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
    _concat,
    _like_dyn,
    _missing_param,
    _negate,
    between_test,
    in_test,
    like_matcher,
    like_test,
)

#: the modes lowered to interpreter closures — the references the
#: oracles compare generated code against
INTERPRETED_MODES = ("interpreted", "seed")


class CompileError(Exception):
    """Internal signal: this expression cannot be compiled faithfully.

    Never escapes the module — every public entry point catches it and
    returns an interpreter-closure fallback instead.
    """


_CMP_HELPERS = {
    "=": "_cmp_eq",
    "<>": "_cmp_ne",
    "<": "_cmp_lt",
    "<=": "_cmp_le",
    ">": "_cmp_gt",
    ">=": "_cmp_ge",
}

_ARITH_HELPERS = {
    "+": "_arith_add",
    "-": "_arith_sub",
    "*": "_arith_mul",
    "/": "_arith_div",
    "%": "_arith_mod",
}

#: shared globals of every generated function: :mod:`repro.rdb.expr`'s
#: value rules — the functions the ``evaluate`` methods and the batch
#: kernels call; only how the operands arrive differs
_RUNTIME = {
    "_missing_param": _missing_param,
    **{name: COMPARISON_TESTS[op] for op, name in _CMP_HELPERS.items()},
    **{name: ARITHMETIC[op] for op, name in _ARITH_HELPERS.items()},
    "_concat": _concat,
    "_negate": _negate,
    "_between": between_test,
    "_like_dyn": _like_dyn,
    "_like_rx": like_test,
    "_in_list": in_test,
}


# ---------------------------------------------------------------------------
# Code generation
# ---------------------------------------------------------------------------


class _Codegen:
    """Statement-oriented emitter for one generated function.

    Expressions compile to *atoms* (local variable names, inline
    constants, or ``row['col']`` subscripts); anything with control flow
    or a helper call is emitted as statements assigning a fresh local.
    Statement order preserves the interpreter's evaluation order, so a
    compiled expression raises exactly when the interpreter would.
    """

    def __init__(self, columns_by_binding: dict, mode: str):
        self.columns = columns_by_binding
        self.mode = mode  # "row" | "bindings"
        self.ns: dict = {}
        self.lines: list[str] = []
        #: binding-row fetches hoisted to the top of the function
        self.preamble: list[str] = []
        self.indent = 1
        self._counter = 0
        self._row_vars: dict[str, str] = {}

    def fresh(self, prefix: str = "v") -> str:
        self._counter += 1
        return f"_{prefix}{self._counter}"

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def checkpoint(self) -> tuple[int, int]:
        return len(self.lines), self.indent

    def rollback(self, mark: tuple[int, int]) -> None:
        del self.lines[mark[0]:]
        self.indent = mark[1]

    def const(self, value) -> str:
        """An atom for a Python constant, inlined when its repr
        round-trips (ints, finite floats, strs, bools, None)."""
        if value is None or value is True or value is False:
            return repr(value)
        if isinstance(value, (int, str)) and not isinstance(value, bool):
            return repr(value)
        if isinstance(value, float) and math.isfinite(value):
            return repr(value)
        name = self.fresh("c")
        self.ns[name] = value
        return name

    def as_local(self, atom: str) -> str:
        """Pin an atom to a local so it can be referenced repeatedly."""
        if atom.isidentifier():
            return atom
        out = self.fresh()
        self.emit(f"{out} = {atom}")
        return out

    # -- column resolution --------------------------------------------------

    def resolve(self, ref: ColumnRef) -> str:
        """The binding owning ``ref``; mirrors :meth:`RowScope.lookup`'s
        static resolution, failing compilation where lookup would raise."""
        if ref.table is not None:
            columns = self.columns.get(ref.table)
            if columns is None or ref.column not in columns:
                raise CompileError(f"unresolvable column {ref.display!r}")
            return ref.table
        owners = [
            binding
            for binding, columns in self.columns.items()
            if ref.column in columns
        ]
        if len(owners) != 1:
            raise CompileError(f"unresolvable column {ref.column!r}")
        return owners[0]

    def _row_var(self, binding: str) -> str:
        var = self._row_vars.get(binding)
        if var is None:
            var = f"_row{len(self._row_vars)}"
            self._row_vars[binding] = var
            self.preamble.append(f"    {var} = _env.get({binding!r})")
        return var

    def column_atom(self, ref: ColumnRef) -> str:
        binding = self.resolve(ref)
        if self.mode == "row":
            return f"_env[{ref.column!r}]"
        var = self._row_var(binding)
        out = self.fresh()
        self.emit(f"{out} = None if {var} is None else {var}[{ref.column!r}]")
        return out

    # -- expression dispatch ------------------------------------------------

    def compile(self, node: Expr) -> str:
        if isinstance(node, Literal):
            return self.const(node.value)
        if isinstance(node, ColumnRef):
            return self.column_atom(node)
        if isinstance(node, Param):
            out = self.fresh()
            name = node.name
            self.emit(
                f"{out} = _p[{name!r}] if {name!r} in _p "
                f"else _missing_param({name!r})"
            )
            return out
        if isinstance(node, Comparison):
            lhs = self.compile(node.left)
            rhs = self.compile(node.right)
            out = self.fresh()
            self.emit(f"{out} = {_CMP_HELPERS[node.op]}({lhs}, {rhs})")
            return out
        if isinstance(node, Arithmetic):
            lhs = self.compile(node.left)
            rhs = self.compile(node.right)
            out = self.fresh()
            self.emit(f"{out} = {_ARITH_HELPERS[node.op]}({lhs}, {rhs})")
            return out
        if isinstance(node, Concat):
            lhs = self.compile(node.left)
            rhs = self.compile(node.right)
            out = self.fresh()
            self.emit(f"{out} = _concat({lhs}, {rhs})")
            return out
        if isinstance(node, And):
            return self._compile_and_or(node, short_value=False)
        if isinstance(node, Or):
            return self._compile_and_or(node, short_value=True)
        if isinstance(node, Not):
            value = self.as_local(self.compile(node.operand))
            out = self.fresh()
            self.emit(f"{out} = None if {value} is None else (not {value})")
            return out
        if isinstance(node, Negate):
            value = self.compile(node.operand)
            out = self.fresh()
            self.emit(f"{out} = _negate({value})")
            return out
        if isinstance(node, IsNull):
            value = self.compile(node.operand)
            if isinstance(node.operand, Literal):
                value = self.as_local(value)  # ``'a' is None`` warns
            out = self.fresh()
            test = "is not None" if node.negated else "is None"
            self.emit(f"{out} = {value} {test}")
            return out
        if isinstance(node, InList):
            return self._compile_in_list(node)
        if isinstance(node, Like):
            return self._compile_like(node)
        if isinstance(node, Between):
            value = self.compile(node.operand)
            low = self.compile(node.low)
            high = self.compile(node.high)
            out = self.fresh()
            self.emit(
                f"{out} = _between({value}, {low}, {high}, {node.negated!r})"
            )
            return out
        if isinstance(node, FunctionCall):
            return self._compile_function(node)
        if isinstance(node, AggregateCall):
            raise CompileError("aggregate in scalar position")
        raise CompileError(f"unsupported expression node {type(node).__name__}")

    def _compile_and_or(self, node, short_value: bool) -> str:
        """AND/OR with the interpreter's 3VL short-circuit: the right
        operand is not evaluated when the left already decides."""
        decided = repr(short_value)
        out = self.fresh()
        lhs = self.as_local(self.compile(node.left))
        self.emit(f"if {lhs} is {decided}:")
        self.indent += 1
        self.emit(f"{out} = {short_value!r}")
        self.indent -= 1
        self.emit("else:")
        self.indent += 1
        rhs = self.as_local(self.compile(node.right))
        self.emit(f"if {rhs} is {decided}:")
        self.indent += 1
        self.emit(f"{out} = {short_value!r}")
        self.indent -= 1
        self.emit(f"elif {lhs} is None or {rhs} is None:")
        self.indent += 1
        self.emit(f"{out} = None")
        self.indent -= 1
        self.emit("else:")
        self.indent += 1
        self.emit(f"{out} = {(not short_value)!r}")
        self.indent -= 2
        return out

    def _compile_in_list(self, node: InList) -> str:
        value = self.compile(node.operand)
        options = tuple(
            _compile_subfunction(option, self.columns, self.mode)
            for option in node.options
        )
        name = self.fresh("opts")
        self.ns[name] = options
        out = self.fresh()
        self.emit(
            f"{out} = _in_list({value}, {name}, {node.negated!r}, _env, _p)"
        )
        return out

    def _compile_like(self, node: Like) -> str:
        value = self.compile(node.operand)
        out = self.fresh()
        if isinstance(node.pattern, Literal) and node.pattern.value is not None:
            name = self.fresh("rx")
            self.ns[name] = like_matcher(
                str(node.pattern.value), node.escape)[0]
            self.emit(f"{out} = _like_rx({value}, {name}, {node.negated!r})")
            return out
        pattern = self.compile(node.pattern)
        self.emit(f"{out} = _like_dyn({value}, {pattern}, {node.negated!r},"
                  f" {node.escape!r})")
        return out

    def _compile_function(self, node: FunctionCall) -> str:
        func = _SCALAR_FUNCTIONS.get(node.name.upper())
        if func is None:
            raise CompileError(f"unknown function {node.name!r}")
        if node.name.upper() not in VARIADIC_FUNCTIONS and len(node.args) != 1:
            raise CompileError(f"{node.name} arity")
        args = [self.compile(arg) for arg in node.args]
        name = self.fresh("fn")
        self.ns[name] = func
        out = self.fresh()
        self.emit(f"{out} = {name}([{', '.join(args)}])")
        return out


def _assemble(cg: _Codegen, label: str):
    """exec() the collected statements into a callable."""
    body = cg.preamble + cg.lines
    source = "def _compiled(_env, _p):\n" + "\n".join(body)
    namespace = dict(_RUNTIME)
    namespace.update(cg.ns)
    code = compile(source, f"<rdb-compiled:{label}>", "exec")
    exec(code, namespace)  # noqa: S102 - trusted, self-generated source
    return namespace["_compiled"], source


def _compile_subfunction(expr: Expr, columns: dict, mode: str):
    """A standalone compiled callable for one sub-expression (IN-list
    options, which the interpreter evaluates lazily per row)."""
    cg = _Codegen(columns, mode)
    result = cg.compile(expr)
    cg.emit(f"return {result}")
    fn, _ = _assemble(cg, "in-option")
    return fn


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


@dataclass
class CompiledExpr:
    """A callable form of one expression.

    ``fn(env, params)`` where ``env`` is a row dict (row mode) or a
    binding map (bindings mode).  ``compiled`` is False when the
    callable is an interpreter closure; ``source`` carries the
    generated text for debugging (None for closures).
    """

    fn: object
    compiled: bool
    source: str | None = None


def _interpreted(body, columns: dict, mode: str):
    """``body(scope, params)`` as an ``fn(env, params)`` slot callable:
    the one place the interpreter back-end builds its per-call
    :class:`RowScope`."""
    if mode == "row":
        (binding,) = columns
        return lambda env, params: body(
            RowScope({binding: env}, columns), params
        )
    return lambda env, params: body(RowScope(env, columns), params)


def interpret_scalar(
    expr: Expr, columns: dict, mode: str = "bindings", label: str = "expr"
) -> CompiledExpr:
    """``expr`` as a closure over the tree interpreter.  Shares
    :func:`compile_scalar`'s signature so either back-end can fill a
    slot (``label`` only names generated source)."""
    return CompiledExpr(_interpreted(expr.evaluate, columns, mode), False)


def interpret_tuple(
    exprs, columns: dict, mode: str = "bindings", label: str = "tuple"
) -> CompiledExpr:
    """:func:`compile_tuple`'s interpreter twin."""
    exprs = tuple(exprs)
    return CompiledExpr(_interpreted(
        lambda scope, params: tuple(
            expr.evaluate(scope, params) for expr in exprs
        ),
        columns, mode,
    ), False)


def interpret_emit(plan, columns: dict) -> CompiledExpr:
    """The plan's per-row tail — project + order keys — over the plan's
    own interpreting ``_project_row`` / ``_order_keys``."""
    def emit(scope, params):
        out_row = plan._project_row(scope, scope.bindings, params)
        return out_row, plan._order_keys(scope, out_row, params)

    return CompiledExpr(_interpreted(emit, columns, "bindings"), False)


def compile_scalar(
    expr: Expr, columns: dict, mode: str = "bindings", label: str = "expr"
) -> CompiledExpr:
    """Compile one expression to ``fn(env, params)``; interpreter
    closure on any :class:`CompileError`."""
    try:
        cg = _Codegen(columns, mode)
        result = cg.compile(expr)
        cg.emit(f"return {result}")
        fn, source = _assemble(cg, label)
        return CompiledExpr(fn, True, source)
    except CompileError:
        return interpret_scalar(expr, columns, mode)


def compile_tuple(
    exprs, columns: dict, mode: str = "bindings", label: str = "tuple"
) -> CompiledExpr:
    """Compile ``fn(env, params) -> tuple`` over several expressions
    (hash-join probe keys, GROUP BY keys)."""
    exprs = tuple(exprs)
    try:
        cg = _Codegen(columns, mode)
        atoms = [cg.compile(expr) for expr in exprs]
        trailing = "," if len(atoms) == 1 else ""
        cg.emit(f"return ({', '.join(atoms)}{trailing})")
        fn, source = _assemble(cg, label)
        return CompiledExpr(fn, True, source)
    except CompileError:
        return interpret_tuple(exprs, columns, mode)


def compile_row_key(columns: tuple):
    """``fn(row) -> tuple`` over plain column names — the hash-join
    build-side key extractor, generated form.  Always compilable."""
    atoms = ", ".join(f"_env[{column!r}]" for column in columns)
    trailing = "," if len(columns) == 1 else ""
    source = f"def _compiled(_env):\n    return ({atoms}{trailing})"
    namespace: dict = {}
    exec(compile(source, "<rdb-compiled:build-key>", "exec"), namespace)
    return namespace["_compiled"]


def compile_emit(
    projection,
    order_by,
    output_columns,
    columns: dict,
    mode: str = "bindings",
) -> CompiledExpr | None:
    """Compile the plan's per-row tail — project + order keys — into one
    ``fn(env, params) -> (out_row, order_keys)`` call.

    Replicates ``_order_keys``'s alias fallback at compile time: an
    ORDER BY column that does not resolve in scope but names an output
    column reads the projected row instead.  Returns ``None`` when any
    part resists compilation; the caller lowers the tail with
    :func:`interpret_emit` instead (all-or-nothing, so a plan's emit
    path is never half compiled).
    """
    try:
        cg = _Codegen(columns, mode)
        items: list[tuple[str, str]] = []
        for name, expr, star_source in projection:
            if star_source is not None:
                binding, column = star_source
                if binding not in columns or column not in columns[binding]:
                    raise CompileError(f"unresolvable star column {column!r}")
                if mode == "row":
                    items.append((name, f"_env[{column!r}]"))
                else:
                    var = cg._row_var(binding)
                    out = cg.fresh()
                    cg.emit(
                        f"{out} = None if {var} is None else {var}[{column!r}]"
                    )
                    items.append((name, out))
            else:
                items.append((name, cg.compile(expr)))
        pairs = ", ".join(f"{name!r}: {atom}" for name, atom in items)
        cg.emit(f"_out = {{{pairs}}}")
        keys: list[str] = []
        for item in order_by:
            expr = item.expr
            mark = cg.checkpoint()
            try:
                keys.append(cg.as_local(cg.compile(expr)))
            except CompileError:
                cg.rollback(mark)
                if (
                    isinstance(expr, ColumnRef)
                    and expr.table is None
                    and expr.column in output_columns
                ):
                    keys.append(f"_out[{expr.column!r}]")
                else:
                    raise
        cg.emit(f"return (_out, [{', '.join(keys)}])")
        fn, source = _assemble(cg, "emit")
        return CompiledExpr(fn, True, source)
    except CompileError:
        return None


def _scan_kernels(scan: ScanOp) -> tuple:
    """A columnar scan's batch kernels — one bind function per pushed
    conjunct, from the classification the scan carries — in run order:
    most selective first, the per-row fallbacks (a conjunct's generated
    row predicate over the surviving positions) after every vectorized
    kernel, whose survivors they cost the most on."""
    schema = scan.store.schema
    ranked = []
    for conjunct, classified in zip(scan.conjuncts, scan.sargs):
        bind = columnar.vector_bind(conjunct, classified, schema)
        vectorized = bind is not None
        if not vectorized:
            bind = columnar.fallback_bind(compile_scalar(
                conjunct, scan._scope_columns, "row", "columnar-fallback"
            ).fn)
        ranked.append((
            not vectorized,
            cost.conjunct_selectivity(scan.store, conjunct),
            bind,
        ))
    ranked.sort(key=lambda entry: entry[:2])
    return tuple(bind for _fallback, _selectivity, bind in ranked)


def _column_gathers(plan, note):
    """``(group columns, [(call, gather)])`` for the column-gather
    grouped tail, or None when the plan groups rows: the tail needs a
    columnar root scan to hand it positions, and every GROUP BY key a
    plain column to partition them by.  Aggregate arguments may be
    anything — a computed one gathers through its row-mode lowering."""
    scan = plan.root
    if not isinstance(scan, ScanOp) or scan.access.kind != "columnar":
        return None
    schema = scan.store.schema
    group_columns = [
        columnar.column_of(expr, scan.binding, schema)
        for expr in plan.select.group_by
    ]
    if None in group_columns:
        return None
    gathers = []
    for call in dict.fromkeys(plan._wanted_aggregates):
        if call.argument is None:
            gather = columnar.count_star_gather
        else:
            name = columnar.column_of(call.argument, scan.binding, schema)
            if name is not None:
                gather = columnar.column_gather(
                    name, call, schema.column(name).sql_type, reduce_aggregate
                )
            else:
                gather = columnar.row_gather(note(compile_scalar(
                    call.argument, scan._scope_columns, "row",
                    "aggregate-argument",
                )), call, reduce_aggregate)
        gathers.append((call, gather))
    return group_columns, gathers


def compile_plan(plan) -> dict:
    """Fill every expression slot of ``plan`` with the back-end
    ``plan.mode`` names.

    Walks the operator tree lowering scan/filter predicates (and a
    columnar scan's kernels), join probe keys, build-key extractors,
    prefilters, residuals and nested-loop conditions; then the
    plan-level tail: for a grouped query the column-gather tail where
    the root scan can feed it, else the GROUP BY key and
    aggregate-argument extractors of the row-grouped one; otherwise the
    project + order-key ``emit_fn`` (fused row mode for a generated
    single-scan plan, bindings mode otherwise).  Returns
    ``{"compiled": n, "interpreted": m}`` counting slots by what fills
    them; in a generated plan ``m > 0`` means "mixed" mode.
    """
    codegen = plan.mode not in INTERPRETED_MODES
    lower_scalar, lower_tuple = (
        (compile_scalar, compile_tuple) if codegen
        else (interpret_scalar, interpret_tuple)
    )
    stats = {"compiled": 0, "interpreted": 0}

    def note(lowered: CompiledExpr):
        stats["compiled" if lowered.compiled else "interpreted"] += 1
        return lowered.fn

    columns = plan.columns_by_binding
    stack = [plan.root]
    while stack:
        op = stack.pop()
        stack.extend(op.children())
        if isinstance(op, ScanOp):
            if op.predicate is not None:
                # one slot: the unproved rest is a sub-conjunction of the
                # whole predicate, lowered by the same back-end
                op.heap_predicate_fn = op.predicate_fn = note(lower_scalar(
                    op.predicate, op._scope_columns, "row", "scan-predicate"
                ))
                if op.residual is not op.predicate:
                    op.predicate_fn = None if op.residual is None \
                        else lower_scalar(op.residual, op._scope_columns,
                                          "row", "scan-residual").fn
            if op.access.kind == "columnar":
                op.kernels = _scan_kernels(op)
        elif isinstance(op, FilterOp):
            op.predicate_fn = note(lower_scalar(
                op.predicate, op.columns_by_binding, "bindings", "filter"
            ))
        elif isinstance(op, HashJoinOp):
            op.probe_fn = note(lower_tuple(
                op.probe_exprs, op.columns_by_binding, "bindings", "probe-key"
            ))
            op.build_key_fn = (
                compile_row_key(op.build_columns) if codegen
                else lambda row, _c=op.build_columns: tuple(row[c] for c in _c)
            )
            if op.prefilter is not None:
                op.prefilter_fn = note(lower_scalar(
                    op.prefilter, op._own_columns, "row", "prefilter"
                ))
            if op.residual is not None:
                op.residual_fn = note(lower_scalar(
                    op.residual, op.columns_by_binding, "bindings", "residual"
                ))
        elif isinstance(op, NestedLoopJoinOp):
            op.condition_fn = note(lower_scalar(
                op.condition, op.columns_by_binding, "bindings", "join-on"
            ))
            if op.prefilter is not None:
                op.prefilter_fn = note(lower_scalar(
                    op.prefilter, op._own_columns, "row", "prefilter"
                ))

    select = plan.select
    if plan.grouped:
        gather = _column_gathers(plan, note)
        if gather is not None:
            plan.group_tail = functools.partial(
                columnar.gather_groups, plan, plan.root, *gather
            )
            return stats
        plan.group_key_fn = note(lower_tuple(
            select.group_by, columns, "bindings", "group-key"
        ))
        for call in plan._wanted_aggregates:
            if call.argument is not None and call not in plan.agg_arg_fns:
                plan.agg_arg_fns[call] = note(lower_scalar(
                    call.argument, columns, "bindings", "aggregate-argument"
                ))
        return stats
    emit = None
    plan.fused = codegen and isinstance(plan.root, ScanOp)
    if codegen:
        emit = compile_emit(
            plan._projection, select.order_by, plan.output_columns,
            plan.root._scope_columns if plan.fused else columns,
            "row" if plan.fused else "bindings",
        )
    if emit is None:
        plan.fused = False
        emit = interpret_emit(plan, columns)
    plan.emit_fn = note(emit)
    return stats
