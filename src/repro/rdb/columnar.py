"""Columnar batch execution: column-major storage and vectorized kernels.

Row-at-a-time execution — even compiled (:mod:`repro.rdb.compile`) —
pays a Python-level function call per row per expression.  This module
adds the layout tier underneath: a :class:`ColumnStore` mirrors a
table's rows as parallel per-column Python lists (strings
dictionary-encoded to integer codes, NULLs tracked in a byte bitmap),
and eligible plans compile their scan→filter→project/aggregate pipeline
into *batch kernels* that sweep those lists chunk by chunk with
selection vectors — per-row interpreter dispatch collapses into C-speed
list comprehensions.

Consistency contract:

- The column store is **lazy**: it materializes on the first columnar
  scan and is dropped (not chased) by write bursts; point writes append
  O(1) sync records that the next scan drains (``column-sync lag`` in
  ``/_status``).  WAL replay and snapshot loads go through the same
  :class:`~repro.rdb.storage.TableStore` mutators, so recovery needs no
  columnar-specific path — the store simply rebuilds on first use after
  recovery.
- Scans observe **live positions in row-insertion order** — exactly the
  order a sequential heap walk yields — so columnar answers are
  positionally identical to the row engine's.  Deletes tombstone
  positions instead of shifting them; compaction rebuilds when the
  dead fraction grows.
- Every kernel reuses the row engine's comparison vocabulary
  (:func:`~repro.rdb.expr.compare_values`, LIKE's one matcher,
  SQL three-valued logic: a predicate keeps a row only when strictly
  ``True``).  The fast inline form (plain ``<``/``==`` comprehensions)
  is chosen only when the column's declared type and the constant's
  runtime type make it equivalent to ``compare_values``; anything else
  runs the shared helper per element, and a conjunct the kernel
  compiler cannot express at all falls back to its *compiled-row*
  predicate over the surviving positions — the ``CompileError``
  fallback discipline of :mod:`repro.rdb.compile`, one level up.
  (Deliberate divergence: ``float('nan')`` follows Python comparison
  semantics on the fast path, where ``compare_values``'s sign
  arithmetic would call NaN equal to everything.)
- Conjuncts run **most selective first** (estimates from
  :mod:`repro.rdb.cost`), vectorized kernels before per-row fallbacks.
  The planner's predicate pushdown already decouples evaluation order
  from WHERE-clause order, so this reordering can change which type
  error surfaces first, never which rows survive.

The four-way oracle (``tests/test_rdb_compile_oracle.py``) holds
columnar, compiled-row, interpreted, and seed execution to one
byte-identical answer; E20 measures the speedup.
"""

from __future__ import annotations

import datetime
import threading
from array import array
from bisect import bisect_left, insort

from repro.errors import QueryError
from repro.rdb import cost
from repro.rdb.expr import (
    Between,
    ColumnRef,
    Comparison,
    Expr,
    InList,
    IsNull,
    Like,
    Literal,
    compare_values,
    conjuncts,
    like_matcher,
)

#: pending sync records beyond which the store stops chasing point
#: writes and schedules a full (lazy) rebuild instead
MAX_PENDING_OPS = 1024
#: live-position count below which a tombstone-heavy store compacts
MIN_COMPACT_TOMBSTONES = 64
#: dict-encode a string column when ``distinct/non-null`` at build time
#: is at most this ratio (high-cardinality strings stay plain)
DICT_ENCODE_MAX_RATIO = 0.5
#: positions per batch: kernels run chunk-wise so selection vectors stay
#: cache-sized and the scan counters see real batch counts
CHUNK_SIZE = 4096

_MISSING = object()

#: sign predicates per comparison operator — the same decision
#: :mod:`repro.rdb.compile`'s ``_cmp_*`` helpers apply to
#: ``compare_values`` results
_SIGN_CHECKS = {
    "=": lambda sign: sign == 0,
    "<>": lambda sign: sign != 0,
    "<": lambda sign: sign < 0,
    "<=": lambda sign: sign <= 0,
    ">": lambda sign: sign > 0,
    ">=": lambda sign: sign >= 0,
}

_FLIPPED_OP = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

class _ConstScope:
    """Evaluation scope for column-free expressions (never consulted)."""

    def lookup(self, table, column):  # pragma: no cover - defensive
        raise QueryError(f"unknown column {column!r}")


_CONST_SCOPE = _ConstScope()


def _type_family(sql_type) -> str:
    """Coarse value family guaranteed by the coercion layer
    (:mod:`repro.rdb.types` keeps stored columns homogeneous)."""
    name = sql_type.name
    if name in ("INTEGER", "FLOAT"):
        return "number"
    if name in ("VARCHAR", "TEXT"):
        return "string"
    if name == "BOOLEAN":
        return "bool"
    if name == "DATE":
        return "date"
    return "any"


def _const_matches_family(value, family: str) -> bool:
    """True when ``family``-typed column values compare with ``value``
    through plain Python operators exactly as ``compare_values`` would."""
    if family == "number":
        return (isinstance(value, (int, float))
                and not isinstance(value, bool)
                and value == value)  # NaN follows compare_values quirks
    if family == "string":
        return isinstance(value, str)
    if family == "bool":
        return isinstance(value, bool)
    if family == "date":
        return type(value) is datetime.date
    return False


class _Column:
    """One column's parallel arrays.

    Plain columns keep raw ``values`` (``None`` marks NULL); dictionary
    encoded string columns keep integer ``codes`` plus the ``decode``
    list and ``encode`` map.  ``nulls`` is a byte bitmap either way, so
    ``IS [NOT] NULL`` kernels never touch the value arrays.  ``grams``
    — a plain string column's trigram postings, see
    :meth:`ColumnStore.candidates` — stays None until a LIKE asks.
    """

    __slots__ = ("name", "values", "codes", "decode", "encode", "nulls",
                 "grams")

    def __init__(self, name: str):
        self.name = name
        self.values: list = []
        self.codes: list | None = None
        self.decode: list | None = None
        self.encode: dict | None = None
        self.nulls = bytearray()
        self.grams: dict | None = None

    @property
    def dict_encoded(self) -> bool:
        return self.codes is not None

    def value_at(self, position: int):
        """The raw value at ``position`` (decoding dict columns)."""
        if self.codes is not None:
            code = self.codes[position]
            return None if code is None else self.decode[code]
        return self.values[position]


class ColumnStore:
    """Column-major mirror of one :class:`~repro.rdb.storage.TableStore`.

    Lifecycle: unbuilt until the first columnar scan; once built, the
    owning TableStore's mutators append O(1) sync records (under the
    database write lock) that :meth:`ensure_synced` drains at the next
    scan (under a store-local mutex — concurrent *readers* may race to
    sync, writers are already excluded by the database write lock).  A
    write burst larger than ``max(MAX_PENDING_OPS, live/2)`` drops the
    store back to unbuilt instead of chasing it.

    ``counters`` is observability state (lock-free, lost updates
    tolerated like every other metrics site).
    """

    def __init__(self, store):
        self.store = store  # owning TableStore (back-reference)
        self.built = False
        self.columns: dict[str, _Column] = {}
        self.row_ids: list[int] = []
        self.live = bytearray()
        self.position_of: dict[int, int] = {}
        self.tombstones = 0
        self._pending: list[tuple] = []
        self._lock = threading.Lock()
        self.counters = {
            "builds": 0,
            "rebuilds": 0,
            "synced_ops": 0,
            "dropped_rebuilds": 0,
            "scans": 0,
            "batches_scanned": 0,
            "max_pending": 0,
            "dict_hits": 0,
            "dict_misses": 0,
            "gram_builds": 0,
            "gram_probes": 0,
            "gram_candidates": 0,
        }

    # -- write-side hooks (called by TableStore under the write lock) ------

    def note_insert(self, row_id: int, row: dict) -> None:
        if self.built:
            self._note(("i", row_id, row))

    def note_update(self, row_id: int, row: dict) -> None:
        if self.built:
            self._note(("u", row_id, row))

    def note_delete(self, row_id: int) -> None:
        if self.built:
            self._note(("d", row_id, None))

    def _note(self, op: tuple) -> None:
        self._pending.append(op)
        depth = len(self._pending)
        if depth > self.counters["max_pending"]:
            self.counters["max_pending"] = depth
        if depth > max(MAX_PENDING_OPS, len(self.row_ids) // 2):
            # write burst: rebuilding lazily at the next scan is cheaper
            # than applying this many point records
            self.counters["dropped_rebuilds"] += 1
            self._drop()

    def _drop(self) -> None:
        self.built = False
        self._pending.clear()
        self.columns = {}
        self.row_ids = []
        self.live = bytearray()
        self.position_of = {}
        self.tombstones = 0

    def pending_ops(self) -> int:
        """Current column-sync lag (records not yet applied)."""
        return len(self._pending)

    # -- read-side maintenance ---------------------------------------------

    def ensure_synced(self) -> "ColumnStore":
        """Build on first use, else drain pending sync records; compact
        when tombstones dominate.  Rebuilds *replace* the arrays rather
        than mutating them, so a reader racing past this call keeps a
        consistent snapshot of the previous generation."""
        with self._lock:
            if not self.built:
                self._build()
            elif self._pending:
                self._apply_pending()
            if self.tombstones >= max(
                MIN_COMPACT_TOMBSTONES, len(self.row_ids) // 2
            ):
                self._build()
        return self

    def _build(self) -> None:
        store = self.store
        counters = self.counters
        counters["rebuilds" if self.built else "builds"] += 1
        rows = list(store.rows.values())
        self.row_ids = list(store.rows)
        self.position_of = {
            row_id: pos for pos, row_id in enumerate(self.row_ids)
        }
        self.live = bytearray(b"\x01" * len(rows))
        self.tombstones = 0
        columns: dict[str, _Column] = {}
        for column_def in store.schema.columns:
            name = column_def.name
            column = _Column(name)
            values = [row[name] for row in rows]
            column.nulls = bytearray(
                1 if value is None else 0 for value in values
            )
            non_null = len(values) - sum(column.nulls)
            if (
                _type_family(column_def.sql_type) == "string"
                and non_null
                and len({v for v in values if v is not None})
                <= non_null * DICT_ENCODE_MAX_RATIO
            ):
                encode: dict = {}
                decode: list = []
                codes: list = []
                hits = misses = 0
                for value in values:
                    if value is None:
                        codes.append(None)
                        continue
                    code = encode.get(value)
                    if code is None:
                        code = len(decode)
                        encode[value] = code
                        decode.append(value)
                        misses += 1
                    else:
                        hits += 1
                    codes.append(code)
                column.values = []
                column.codes = codes
                column.decode = decode
                column.encode = encode
                counters["dict_hits"] += hits
                counters["dict_misses"] += misses
            else:
                column.values = values
            columns[name] = column
        self.columns = columns
        self._pending.clear()
        self.built = True

    def _apply_pending(self) -> None:
        counters = self.counters
        names = [c.name for c in self.store.schema.columns]
        for kind, row_id, row in self._pending:
            if kind == "d":
                position = self.position_of.pop(row_id, None)
                if position is not None and self.live[position]:
                    self.live[position] = 0
                    self.tombstones += 1
                continue
            position = self.position_of.get(row_id)
            if kind == "i" or position is None:
                # inserts (and restores of previously deleted ids) land
                # at the end — the same place the rows dict puts them
                position = len(self.row_ids)
                self.row_ids.append(row_id)
                self.position_of[row_id] = position
                self.live.append(1)
                for name in names:
                    self._append_value(self.columns[name], row[name])
            else:
                for name in names:
                    self._set_value(self.columns[name], position, row[name])
        counters["synced_ops"] += len(self._pending)
        self._pending.clear()

    def _encode_value(self, column: _Column, value):
        if value is None:
            return None
        code = column.encode.get(value)
        if code is None:
            code = len(column.decode)
            column.encode[value] = code
            column.decode.append(value)
            self.counters["dict_misses"] += 1
        else:
            self.counters["dict_hits"] += 1
        return code

    def _append_value(self, column: _Column, value) -> None:
        column.nulls.append(1 if value is None else 0)
        if column.dict_encoded:
            column.codes.append(self._encode_value(column, value))
        else:
            if column.grams is not None:
                self._repost(column, len(column.values), None, value)
            column.values.append(value)

    def _set_value(self, column: _Column, position: int, value) -> None:
        column.nulls[position] = 1 if value is None else 0
        if column.dict_encoded:
            column.codes[position] = self._encode_value(column, value)
        else:
            if column.grams is not None:
                self._repost(column, position, column.values[position], value)
            column.values[position] = value

    # -- trigram postings ---------------------------------------------------
    #
    # A cache of one plain string column, like the store is of the table:
    # ``trigram -> array('I')`` of the ascending positions whose value
    # contains it.  Built by the first LIKE that can use it, kept in step
    # by the two mutators above, gone with the arrays (``_drop``,
    # ``_build``) and rebuilt at the next probe — so recovery, replicas
    # and DDL never hear of it.  Tombstoned positions stay listed;
    # ``live`` filters them.

    def _repost(self, column: _Column, position: int, old, new) -> None:
        """Move ``position`` from ``old``'s postings to ``new``'s."""
        grams = column.grams
        before, after = _trigrams(old or ""), _trigrams(new or "")
        for gram in before - after:
            del grams[gram][bisect_left(grams[gram], position)]
        for gram in after - before:
            insort(grams.setdefault(gram, array("I")), position)

    def candidates(self, name: str, runs):
        """Ascending positions whose ``name`` value may contain every
        string of ``runs`` — always a superset of those that do, never
        an answer: the caller verifies.  None when the postings cannot
        help (no run of three characters, dictionary-encoded column)."""
        wanted = set().union(*map(_trigrams, runs))
        column = self.columns[name]
        if not wanted or column.dict_encoded:
            return None
        with self._lock:
            grams = column.grams
            if grams is None:
                grams = column.grams = {}
                self.counters["gram_builds"] += 1
                for position, value in enumerate(column.values):
                    for gram in _trigrams(value or ""):
                        posting = grams.get(gram)
                        if posting is None:
                            posting = grams[gram] = array("I")
                        posting.append(position)
        self.counters["gram_probes"] += 1
        postings = sorted((grams.get(gram, ()) for gram in wanted), key=len)
        seed = postings[0]  # empty when a trigram occurs in no value
        for posting in postings[1:]:
            # reading a list costs about what verifying a candidate
            # does: intersect only with lists short enough to repay it
            if len(posting) > 2 * len(seed):
                break
            keep = set(posting)
            seed = [position for position in seed if position in keep]
        return seed

    # -- observability ------------------------------------------------------

    def stats(self) -> dict:
        """Counter snapshot plus current state, for ``/_status``."""
        snapshot = dict(self.counters)
        snapshot["built"] = self.built
        snapshot["positions"] = len(self.row_ids)
        snapshot["tombstones"] = self.tombstones
        snapshot["pending_ops"] = len(self._pending)
        snapshot["dict_columns"] = sum(
            1 for column in self.columns.values() if column.dict_encoded
        )
        posted = [c.grams for c in self.columns.values() if c.grams is not None]
        snapshot["gram_columns"] = len(posted)
        snapshot["gram_postings"] = sum(
            len(posting) for grams in posted for posting in grams.values()
        )
        return snapshot


def _trigrams(text: str) -> set:
    return {text[i:i + 3] for i in range(len(text) - 2)}


# ---------------------------------------------------------------------------
# Kernel compilation: one conjunct -> batch kernel
# ---------------------------------------------------------------------------
#
# A *kernel spec* carries ``bind(column_store, params) -> kernel`` where
# ``kernel(selection) -> selection`` narrows a position vector.  Binding
# happens per execution: constants (parameters included) are evaluated
# then, and the kernel closes over the *current* arrays, so a rebuild
# between executions is transparent.  A bound kernel may carry ``seed``:
# ascending positions outside which it keeps nothing this execution.


class _KernelSpec:
    """One predicate conjunct, compiled for batch evaluation."""

    __slots__ = ("bind", "selectivity", "vectorized")

    def __init__(self, bind, selectivity: float, vectorized: bool):
        self.bind = bind
        self.selectivity = selectivity
        self.vectorized = vectorized


def _empty_kernel(sel):
    return []


def _identity_kernel(sel):
    return sel


def _memo_kernel(codes, decode, verdict):
    """Evaluate ``verdict`` once per *distinct* dictionary code touched
    by the selection (lazy: codes never selected are never decoded)."""
    memo: dict = {}
    get = memo.get

    def kernel(sel):
        out = []
        append = out.append
        for i in sel:
            code = codes[i]
            if code is None:
                continue
            keep = get(code, _MISSING)
            if keep is _MISSING:
                memo[code] = keep = verdict(decode[code]) is True
            if keep:
                append(i)
        return out

    return kernel


def _value_kernel(values, verdict):
    """Per-element helper evaluation over a plain column (the shared
    ``compare_values`` semantics, NULL operands skipped up front)."""

    def kernel(sel):
        out = []
        append = out.append
        for i in sel:
            value = values[i]
            if value is not None and verdict(value) is True:
                append(i)
        return out

    return kernel


def _column_of(expr: Expr, binding: str, schema) -> str | None:
    """``expr``'s column name when it is a plain reference to this
    scan's table, else None."""
    if isinstance(expr, ColumnRef) and expr.table in (None, binding) \
            and schema.has_column(expr.column):
        return expr.column
    return None


def _is_const(expr: Expr) -> bool:
    return not expr.column_refs()


def _comparison_bind(name: str, op: str, const_expr: Expr, family: str):
    check = _SIGN_CHECKS[op]

    def bind(column_store, params):
        const = const_expr.evaluate(_CONST_SCOPE, params)
        if const is None:
            return _empty_kernel  # comparison with NULL is UNKNOWN
        column = column_store.columns[name]
        if column.dict_encoded:
            if isinstance(const, str) and op in ("=", "<>"):
                code = column.encode.get(const, -1)
                codes = column.codes
                if op == "=":
                    return lambda sel: [i for i in sel if codes[i] == code]
                return lambda sel: [
                    i for i in sel
                    if codes[i] is not None and codes[i] != code
                ]
            verdict = (lambda value, _c=const, _ck=check:
                       _ck(compare_values(value, _c)))
            return _memo_kernel(column.codes, column.decode, verdict)
        values = column.values
        if _const_matches_family(const, family):
            c = const
            if op == "=":
                # None == c is False, so no NULL guard is needed
                return lambda sel: [i for i in sel if values[i] == c]
            if op == "<>":
                return lambda sel: [
                    i for i in sel
                    if values[i] is not None and values[i] != c
                ]
            if op == "<":
                return lambda sel: [
                    i for i in sel
                    if values[i] is not None and values[i] < c
                ]
            if op == "<=":
                return lambda sel: [
                    i for i in sel
                    if values[i] is not None and values[i] <= c
                ]
            if op == ">":
                return lambda sel: [
                    i for i in sel
                    if values[i] is not None and values[i] > c
                ]
            return lambda sel: [
                i for i in sel
                if values[i] is not None and values[i] >= c
            ]
        verdict = (lambda value, _c=const, _ck=check:
                   _ck(compare_values(value, _c)))
        return _value_kernel(values, verdict)

    return bind


def _is_null_bind(name: str, negated: bool):
    def bind(column_store, params):
        nulls = column_store.columns[name].nulls
        if negated:
            return lambda sel: [i for i in sel if not nulls[i]]
        return lambda sel: [i for i in sel if nulls[i]]

    return bind


def _between_bind(name: str, low_expr: Expr, high_expr: Expr,
                  negated: bool, family: str):
    def bind(column_store, params):
        low = low_expr.evaluate(_CONST_SCOPE, params)
        high = high_expr.evaluate(_CONST_SCOPE, params)
        if low is None or high is None:
            return _empty_kernel  # a NULL bound makes BETWEEN UNKNOWN
        column = column_store.columns[name]

        def verdict(value, _lo=low, _hi=high, _neg=negated):
            low_sign = compare_values(value, _lo)
            high_sign = compare_values(value, _hi)
            inside = low_sign >= 0 and high_sign <= 0
            return not inside if _neg else inside

        if column.dict_encoded:
            return _memo_kernel(column.codes, column.decode, verdict)
        values = column.values
        if (_const_matches_family(low, family)
                and _const_matches_family(high, family)):
            if negated:
                return lambda sel: [
                    i for i in sel
                    if values[i] is not None
                    and not (low <= values[i] <= high)
                ]
            return lambda sel: [
                i for i in sel
                if values[i] is not None and low <= values[i] <= high
            ]
        return _value_kernel(values, verdict)

    return bind


def _in_list_bind(name: str, options: tuple, negated: bool, family: str):
    def bind(column_store, params):
        evaluated = [
            option.evaluate(_CONST_SCOPE, params) for option in options
        ]
        saw_null = any(value is None for value in evaluated)
        present = [value for value in evaluated if value is not None]
        if negated and saw_null:
            # NOT IN with a NULL option is never True for any row
            return _empty_kernel
        column = column_store.columns[name]
        if column.dict_encoded and all(
            isinstance(value, str) for value in present
        ):
            codes = column.codes
            code_set = {
                column.encode[value] for value in present
                if value in column.encode
            }
            if negated:
                return lambda sel: [
                    i for i in sel
                    if codes[i] is not None and codes[i] not in code_set
                ]
            return lambda sel: [i for i in sel if codes[i] in code_set]

        def verdict(value, _opts=present, _null=saw_null, _neg=negated):
            for option in _opts:
                if compare_values(value, option) == 0:
                    return not _neg
            if _null:
                return None
            return _neg

        if column.dict_encoded:
            return _memo_kernel(column.codes, column.decode, verdict)
        values = column.values
        if present and all(
            _const_matches_family(value, family) for value in present
        ):
            value_set = set(present)
            if negated:
                return lambda sel: [
                    i for i in sel
                    if values[i] is not None and values[i] not in value_set
                ]
            return lambda sel: [i for i in sel if values[i] in value_set]
        return _value_kernel(values, verdict)

    return bind


def _like_bind(name: str, like: Like, family: str):
    negated = like.negated

    def bind(column_store, params):
        pattern = like.pattern.evaluate(_CONST_SCOPE, params)
        if pattern is None:
            return _empty_kernel
        match, runs = like_matcher(str(pattern), like.escape)
        column = column_store.columns[name]

        def verdict(value, _m=match, _neg=negated):
            matched = bool(_m(str(value)))
            return not matched if _neg else matched

        if column.dict_encoded:
            return _memo_kernel(column.codes, column.decode, verdict)
        values = column.values
        if family != "string":
            return _value_kernel(values, verdict)
        if negated:
            return lambda sel: [
                i for i in sel
                if values[i] is not None and not match(values[i])
            ]

        def kernel(sel):
            return [
                i for i in sel if values[i] is not None and match(values[i])
            ]

        kernel.seed = column_store.candidates(name, runs)
        return kernel

    return bind


def _const_bind(expr: Expr):
    def bind(column_store, params):
        verdict = expr.evaluate(_CONST_SCOPE, params)
        return _identity_kernel if verdict is True else _empty_kernel

    return bind


def _fallback_bind(predicate_fn):
    """Per-position application of a compiled-row predicate — the escape
    hatch for conjunct shapes the kernel compiler does not cover."""

    def bind(column_store, params):
        rows = column_store.store.rows
        row_ids = column_store.row_ids

        def kernel(sel):
            out = []
            append = out.append
            for i in sel:
                if predicate_fn(rows[row_ids[i]], params) is True:
                    append(i)
            return out

        return kernel

    return bind


def _compile_conjunct(conjunct: Expr, binding: str, schema):
    """A vectorized bind function for ``conjunct``, or None when only
    the compiled-row fallback can evaluate it faithfully."""
    if _is_const(conjunct):
        return _const_bind(conjunct)
    if isinstance(conjunct, Comparison) and conjunct.op in _SIGN_CHECKS:
        name = _column_of(conjunct.left, binding, schema)
        if name is not None and _is_const(conjunct.right):
            family = _type_family(schema.column(name).sql_type)
            return _comparison_bind(name, conjunct.op, conjunct.right, family)
        name = _column_of(conjunct.right, binding, schema)
        if name is not None and _is_const(conjunct.left):
            family = _type_family(schema.column(name).sql_type)
            return _comparison_bind(
                name, _FLIPPED_OP[conjunct.op], conjunct.left, family
            )
        return None
    if isinstance(conjunct, IsNull):
        name = _column_of(conjunct.operand, binding, schema)
        if name is not None:
            return _is_null_bind(name, conjunct.negated)
        return None
    if isinstance(conjunct, Between):
        name = _column_of(conjunct.operand, binding, schema)
        if (name is not None and _is_const(conjunct.low)
                and _is_const(conjunct.high)):
            family = _type_family(schema.column(name).sql_type)
            return _between_bind(
                name, conjunct.low, conjunct.high, conjunct.negated, family
            )
        return None
    if isinstance(conjunct, InList):
        name = _column_of(conjunct.operand, binding, schema)
        if name is not None and all(
            _is_const(option) for option in conjunct.options
        ):
            family = _type_family(schema.column(name).sql_type)
            return _in_list_bind(
                name, conjunct.options, conjunct.negated, family
            )
        return None
    if isinstance(conjunct, Like):
        name = _column_of(conjunct.operand, binding, schema)
        if name is not None and _is_const(conjunct.pattern):
            family = _type_family(schema.column(name).sql_type)
            return _like_bind(name, conjunct, family)
        return None
    return None


# ---------------------------------------------------------------------------
# The columnar pipeline
# ---------------------------------------------------------------------------


class ColumnarPipeline:
    """Batch executor for one eligible single-scan plan.

    Non-grouped plans filter column-wise, then feed the surviving row
    dicts to the plan's fused ``emit_fn`` — projection and
    order keys stay byte-identical with the row engine because they run
    the *same* generated code.  Grouped plans partition surviving
    positions by the group columns (first-seen order, like the row
    engine), gather aggregate inputs column-wise, and emit each group
    through the plan's shared HAVING/projection tail.
    """

    def __init__(self, plan, scan, specs, fallback_count: int,
                 group_columns=None, agg_specs=None):
        self.plan = plan
        self.scan = scan
        self.specs = specs
        self.fallback_count = fallback_count
        self.grouped = group_columns is not None
        self.group_columns = group_columns or []
        self.agg_specs = agg_specs or []

    # -- filtering ----------------------------------------------------------

    def _survivors(self, column_store, params) -> tuple[list[int], int]:
        """The positions every kernel keeps, ascending, and how many
        were fetched to find them."""
        counters = column_store.counters
        counters["scans"] += 1
        kernels = [spec.bind(column_store, params) for spec in self.specs]
        live = column_store.live
        seeds = [
            kernel.seed for kernel in kernels
            if getattr(kernel, "seed", None) is not None
        ]
        if seeds:
            # no survivor lies outside any seed: start from the smallest
            # instead of every position.  All kernels still run over it,
            # the seed's own included — the seed only says where to look.
            fetched = [i for i in min(seeds, key=len) if live[i]]
            counters["gram_candidates"] += len(fetched)
            scanned, batches = len(fetched), [fetched]
        else:
            scanned = len(column_store.row_ids)
            batches = (
                range(start, min(start + CHUNK_SIZE, scanned))
                for start in range(0, scanned, CHUNK_SIZE)
            )
            if column_store.tombstones:
                batches = ([i for i in batch if live[i]] for batch in batches)
        survivors: list[int] = []
        for selection in batches:
            counters["batches_scanned"] += 1
            for kernel in kernels:
                if not selection:
                    break
                selection = kernel(selection)
            survivors.extend(selection)
        return survivors, scanned

    # -- execution ----------------------------------------------------------

    def execute(self, params: dict):
        """Yield ``(out_row, order_keys)`` pairs — the same stream the
        row engine's execution paths produce, ready for the plan's
        shared distinct/sort/limit tail."""
        column_store = self.scan.store.column_store.ensure_synced()
        survivors, self.scan.scanned = self._survivors(column_store, params)
        # the batch path has exact survivor counts for free; record them
        # where adaptive feedback / EXPLAIN ANALYZE expect scan actuals
        self.scan.actual_rows = len(survivors)
        if self.grouped:
            yield from self._execute_grouped(column_store, survivors, params)
            return
        emit = self.plan.emit_fn
        rows = self.scan.store.rows
        row_ids = column_store.row_ids
        for i in survivors:
            yield emit(rows[row_ids[i]], params)

    def _key_reader(self, column_store, name: str):
        column = column_store.columns[name]
        if column.dict_encoded:
            codes = column.codes
            decode = column.decode
            return lambda i: (
                None if codes[i] is None else decode[codes[i]]
            )
        values = column.values
        return lambda i: values[i]

    def _execute_grouped(self, column_store, survivors, params):
        plan = self.plan
        if not self.group_columns:
            order = [0]
            positions_by_key = {0: survivors}
        else:
            readers = [
                self._key_reader(column_store, name)
                for name in self.group_columns
            ]
            if len(readers) == 1:
                key_of = readers[0]
            else:
                def key_of(i, _readers=readers):
                    return tuple(reader(i) for reader in _readers)
            positions_by_key: dict = {}
            order = []
            get = positions_by_key.get
            for i in survivors:
                key = key_of(i)
                bucket = get(key)
                if bucket is None:
                    positions_by_key[key] = bucket = []
                    order.append(key)
                bucket.append(i)
        if not plan.select.group_by and not survivors:
            # aggregates over an empty input still produce one row
            order = [0]
            positions_by_key = {0: []}
        rows = self.scan.store.rows
        row_ids = column_store.row_ids
        binding = self.scan.binding
        for key in order:
            positions = positions_by_key[key]
            aggregate_values: dict = {}
            for call, gather in self.agg_specs:
                if call not in aggregate_values:
                    aggregate_values[call] = gather(
                        column_store, positions, params
                    )
            if positions:
                representative = {binding: rows[row_ids[positions[0]]]}
            else:
                representative = {b: None for b in plan.columns_by_binding}
            yield from plan._emit_group(
                representative, aggregate_values, params
            )


def _column_gather(name: str, func: str, distinct: bool,
                   numeric_fast: bool, reduce_aggregate):
    """Aggregate-input gatherer reading one column's array directly."""

    def gather(column_store, positions, params):
        column = column_store.columns[name]
        if column.dict_encoded:
            codes = column.codes
            decode = column.decode
            values = [
                decode[codes[i]] for i in positions if codes[i] is not None
            ]
        else:
            raw = column.values
            values = [raw[i] for i in positions if raw[i] is not None]
        if numeric_fast and values:
            # left-to-right builtin sum == the shared reduce for
            # int/float inputs, minus the per-element lambda call
            if func == "SUM":
                return sum(values)
            if func == "AVG":
                return sum(values) / len(values)
        return reduce_aggregate(func, distinct, values)

    return gather


def _row_gather(argument_fn, func: str, distinct: bool, reduce_aggregate):
    """Aggregate-input gatherer for non-column arguments: the compiled
    row-mode argument expression runs per surviving row."""

    def gather(column_store, positions, params):
        rows = column_store.store.rows
        row_ids = column_store.row_ids
        values = []
        append = values.append
        for i in positions:
            value = argument_fn(rows[row_ids[i]], params)
            if value is not None:
                append(value)
        return reduce_aggregate(func, distinct, values)

    return gather


def _count_star_gather(column_store, positions, params):
    return len(positions)


def build_columnar_pipeline(plan):
    """A :class:`ColumnarPipeline` for ``plan``, or None when the plan
    shape is not batch-executable.

    Eligible: a single-table sequential scan whose non-grouped tail
    compiled to the fused row emit, or a grouped tail whose GROUP BY
    keys are plain column references (aggregate arguments may be
    anything — non-column arguments gather through their compiled row
    form).  Predicate conjuncts always work: unvectorizable ones run
    their compiled-row form over the shrinking selection.
    """
    # imported here: compile/executor sit downstream of storage, which
    # imports this module for ColumnStore
    from repro.rdb.compile import compile_scalar
    from repro.rdb.executor import ScanOp, reduce_aggregate

    root = plan.root
    if not isinstance(root, ScanOp) or root.access.kind != "seq":
        return None
    if len(plan.columns_by_binding) != 1:
        return None
    schema = root.store.schema
    binding = root.binding
    specs: list[_KernelSpec] = []
    fallbacks = 0
    for conjunct in conjuncts(root.predicate):
        selectivity = cost.conjunct_selectivity(
            root.store, conjunct, getattr(plan, "feedback", None)
        )
        bind = _compile_conjunct(conjunct, binding, schema)
        if bind is not None:
            specs.append(_KernelSpec(bind, selectivity, True))
        else:
            fallbacks += 1
            predicate_fn = compile_scalar(
                conjunct, root._scope_columns, "row", "columnar-fallback"
            ).fn
            specs.append(
                _KernelSpec(_fallback_bind(predicate_fn), selectivity, False)
            )
    # most selective first; per-row fallbacks after every vectorized
    # kernel (they cost the most per surviving position)
    specs.sort(key=lambda spec: (not spec.vectorized, spec.selectivity))

    if not plan.grouped:
        if not plan.fused:
            return None
        return ColumnarPipeline(plan, root, specs, fallbacks)

    group_columns = []
    for expr in plan.select.group_by:
        name = _column_of(expr, binding, schema)
        if name is None:
            return None  # computed group keys stay on the row path
        group_columns.append(name)
    agg_specs = []
    seen_calls = set()
    for call in plan._wanted_aggregates:
        if call in seen_calls:
            continue
        seen_calls.add(call)
        if call.argument is None:
            agg_specs.append((call, _count_star_gather))
            continue
        name = _column_of(call.argument, binding, schema)
        if name is not None:
            family = _type_family(schema.column(name).sql_type)
            numeric_fast = (
                call.func in ("SUM", "AVG")
                and not call.distinct
                and family == "number"
            )
            agg_specs.append((call, _column_gather(
                name, call.func, call.distinct, numeric_fast,
                reduce_aggregate,
            )))
        else:
            argument_fn = compile_scalar(
                call.argument, root._scope_columns, "row",
                "columnar-aggregate",
            ).fn
            agg_specs.append((call, _row_gather(
                argument_fn, call.func, call.distinct, reduce_aggregate,
            )))
    return ColumnarPipeline(
        plan, root, specs, fallbacks,
        group_columns=group_columns, agg_specs=agg_specs,
    )
