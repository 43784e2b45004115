"""Columnar batch execution: column-major storage and vectorized kernels.

Row-at-a-time execution — even compiled (:mod:`repro.rdb.compile`) —
pays a Python-level function call per row per expression.  This module
adds the layout tier underneath: a :class:`ColumnStore` mirrors a
table's rows as parallel per-column Python lists (strings
dictionary-encoded to integer codes, NULLs tracked in a byte bitmap),
and a scan whose access path is ``columnar`` runs its pushed conjuncts
as *batch kernels* that sweep those lists chunk by chunk with selection
vectors — per-row interpreter dispatch collapses into C-speed list
comprehensions — then fetches only the surviving rows; a GROUP BY over
plain columns gathers its keys and aggregate inputs from the arrays too.

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
- Every kernel reads what its conjunct constrains from the conjunct's
  :class:`~repro.rdb.expr.Sarg` and what it means from the value-level
  tests generated row code calls (:mod:`repro.rdb.expr`: comparison,
  BETWEEN, IN, LIKE's one matcher; a predicate keeps a row only when
  strictly ``True``).  The fast inline form (plain ``<``/``==``
  comprehensions) is chosen only when the column's declared type and
  the constant's runtime type make it equivalent to that test;
  anything else runs the test per element, and a conjunct no ``Sarg``
  with constant operands describes falls back to its *generated row*
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

from repro.rdb.expr import (
    COMPARISON_TESTS,
    ColumnRef,
    Expr,
    between_test,
    in_test,
    like_matcher,
    like_test,
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
# Kernels: one classified conjunct -> batch kernel
# ---------------------------------------------------------------------------
#
# Each pushed conjunct of a columnar scan gets a *bind function*,
# ``bind(column_store, params) -> kernel``, where ``kernel(selection) ->
# selection`` narrows a position vector.  Binding happens per execution:
# constants (parameters included) are evaluated then, and the kernel
# closes over the *current* arrays, so a rebuild between executions is
# transparent.  A bound kernel may carry ``seed``: ascending positions
# outside which it keeps nothing this execution.


def _empty_kernel(sel):
    return []


def _identity_kernel(sel):
    return sel


def _test_kernel(column: _Column, test, *operands):
    """The generic arm: ``test(value, *operands)`` per element, or once
    per *distinct* dictionary code the selection touches (lazy: codes
    never selected are never decoded)."""
    if not column.dict_encoded:
        values = column.values
        return lambda sel: [
            i for i in sel if test(values[i], *operands) is True
        ]
    codes, decode = column.codes, column.decode
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
                memo[code] = keep = test(decode[code], *operands) is True
            if keep:
                append(i)
        return out

    return kernel


def _comparison_bind(sarg, family: str):
    name, op, (const_expr,) = sarg.column, sarg.op, sarg.operands

    def bind(column_store, params):
        const = const_expr.evaluate(None, params)
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
        elif _const_matches_family(const, family):
            values = column.values
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
        return _test_kernel(column, COMPARISON_TESTS[op], const)

    return bind


def _is_null_bind(sarg, family: str):
    name, negated = sarg.column, sarg.negated

    def bind(column_store, params):
        nulls = column_store.columns[name].nulls
        if negated:
            return lambda sel: [i for i in sel if not nulls[i]]
        return lambda sel: [i for i in sel if nulls[i]]

    return bind


def _between_bind(sarg, family: str):
    name, negated = sarg.column, sarg.negated
    low_expr, high_expr = sarg.operands

    def bind(column_store, params):
        low = low_expr.evaluate(None, params)
        high = high_expr.evaluate(None, params)
        if (low is None or high is None) and not negated:
            return _empty_kernel  # one NULL bound: never TRUE
        column = column_store.columns[name]
        if not column.dict_encoded \
                and _const_matches_family(low, family) \
                and _const_matches_family(high, family):
            values = column.values
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
        return _test_kernel(column, between_test, low, high, negated)

    return bind


def _in_list_bind(sarg, family: str):
    name, options, negated = sarg.column, sarg.operands, sarg.negated

    def bind(column_store, params):
        evaluated = [option.evaluate(None, params) for option in options]
        present = [value for value in evaluated if value is not None]
        typed = all(_const_matches_family(value, family) for value in present)
        if negated and len(present) < len(evaluated) and typed:
            # NOT IN with a NULL option is never True for any row (a
            # member of another family must still raise, as rows do)
            return _empty_kernel
        column = column_store.columns[name]
        if column.dict_encoded:
            if all(isinstance(value, str) for value in present):
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
        elif present and typed:
            values = column.values
            value_set = set(present)
            if negated:
                return lambda sel: [
                    i for i in sel
                    if values[i] is not None and values[i] not in value_set
                ]
            return lambda sel: [i for i in sel if values[i] in value_set]
        return _test_kernel(column, in_test, evaluated, negated)

    return bind


def _like_bind(sarg, family: str):
    name, negated, escape = sarg.column, sarg.negated, sarg.escape
    (pattern_expr,) = sarg.operands

    def bind(column_store, params):
        pattern = pattern_expr.evaluate(None, params)
        if pattern is None:
            return _empty_kernel
        match, runs = like_matcher(str(pattern), escape)
        column = column_store.columns[name]
        if column.dict_encoded or family != "string":
            return _test_kernel(column, like_test, match, negated)
        values = column.values
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


_BINDERS = {
    "cmp": _comparison_bind,
    "null": _is_null_bind,
    "between": _between_bind,
    "in": _in_list_bind,
    "like": _like_bind,
}


def vector_bind(conjunct: Expr, sarg, schema):
    """A vectorized bind function for ``conjunct`` (classified as
    ``sarg``), or None when only its row form can evaluate it
    faithfully: a computed subject, an operand that varies per row, a
    shape no :class:`~repro.rdb.expr.Sarg` describes."""
    if not conjunct.column_refs():
        def bind(column_store, params):
            verdict = conjunct.evaluate(None, params)
            return _identity_kernel if verdict is True else _empty_kernel

        return bind
    if sarg is None or not sarg.constant \
            or not schema.has_column(sarg.column):
        return None
    family = _type_family(schema.column(sarg.column).sql_type)
    return _BINDERS[sarg.kind](sarg, family)


def fallback_bind(predicate_fn):
    """Per-position application of a conjunct's row predicate — the
    escape hatch for what :func:`vector_bind` does not cover."""

    def bind(column_store, params):
        rows = column_store.store.rows
        row_ids = column_store.row_ids
        return lambda sel: [
            i for i in sel if predicate_fn(rows[row_ids[i]], params) is True
        ]

    return bind


def select_positions(column_store, binds, params) -> tuple[list[int], int]:
    """The positions every kernel of ``binds`` keeps, ascending, and
    how many were fetched to find them — a columnar scan's selection."""
    counters = column_store.counters
    counters["scans"] += 1
    kernels = [bind(column_store, params) for bind in binds]
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


# ---------------------------------------------------------------------------
# The column-gather grouped tail
# ---------------------------------------------------------------------------


def column_of(expr: Expr, binding: str, schema) -> str | None:
    """``expr``'s column name when it is a plain reference to the
    table bound as ``binding``, else None."""
    if isinstance(expr, ColumnRef) and expr.table in (None, binding) \
            and schema.has_column(expr.column):
        return expr.column
    return None


def _key_reader(column: _Column):
    if column.dict_encoded:
        codes = column.codes
        decode = column.decode
        return lambda i: None if codes[i] is None else decode[codes[i]]
    values = column.values
    return lambda i: values[i]


def gather_groups(plan, scan, group_columns, gathers, params):
    """The grouped tail of a plan whose root is the columnar ``scan``
    and whose GROUP BY keys are the plain columns ``group_columns``:
    the surviving positions are partitioned by those columns
    (first-seen order, like the row tail), each aggregate's inputs are
    gathered from the arrays (``gathers``: ``(call, gather)`` pairs),
    and every group leaves through the plan's shared HAVING /
    projection step."""
    column_store, survivors = scan.positions(params)
    if not group_columns:
        # one group — also over an empty input, which still makes a row
        order = [0]
        positions_by_key = {0: survivors}
    else:
        readers = [
            _key_reader(column_store.columns[name]) for name in group_columns
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
    rows = scan.store.rows
    row_ids = column_store.row_ids
    for key in order:
        positions = positions_by_key[key]
        aggregate_values = {
            call: gather(column_store, positions, params)
            for call, gather in gathers
        }
        if positions:
            representative = {scan.binding: rows[row_ids[positions[0]]]}
        else:
            representative = dict.fromkeys(plan.columns_by_binding)
        yield from plan._emit_group(representative, aggregate_values, params)


def column_gather(name: str, call, sql_type, reduce_aggregate):
    """Aggregate-input gatherer reading one column's array directly."""
    func, distinct = call.func, call.distinct
    numeric_fast = func in ("SUM", "AVG") and not distinct \
        and _type_family(sql_type) == "number"

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
            total = sum(values)
            return total if func == "SUM" else total / len(values)
        return reduce_aggregate(func, distinct, values)

    return gather


def row_gather(argument_fn, call, reduce_aggregate):
    """Aggregate-input gatherer for non-column arguments: the row-mode
    argument expression runs per surviving row."""

    def gather(column_store, positions, params):
        rows = column_store.store.rows
        row_ids = column_store.row_ids
        values = []
        append = values.append
        for i in positions:
            value = argument_fn(rows[row_ids[i]], params)
            if value is not None:
                append(value)
        return reduce_aggregate(call.func, call.distinct, values)

    return gather


def count_star_gather(column_store, positions, params):
    return len(positions)
