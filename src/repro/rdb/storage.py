"""Row storage: heaps plus ordered hash indexes.

A :class:`TableStore` owns the rows of one table.  Rows are dicts keyed
by column name, addressed by a monotonically increasing row id.  The
primary key and every unique constraint are enforced with hash indexes;
secondary indexes accelerate equality lookups, and a lazily maintained
sorted view of each index's keys additionally serves prefix, range and
``IN``-list scans for the cost-based planner.
"""

from __future__ import annotations

import bisect
import itertools

from repro.errors import IntegrityError, SchemaError
from repro.rdb.columnar import ColumnStore
from repro.rdb.schema import Index, TableSchema


class _NullKey:
    """Total-order sentinel standing for NULL inside index keys.

    Indexes store *every* row (a row whose indexed column is NULL must
    still be found by a prefix scan on the other columns), so NULL needs
    a place in the key ordering: before every real value, equal only to
    itself.  Probes are built from real values and therefore never match
    a sentinel-bearing key by accident.
    """

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __lt__(self, other):
        return other is not self

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return other is self

    def __repr__(self):
        return "NULL"


_NULL = _NullKey()


class _HashIndex:
    """Equality index mapping a tuple of column values to row ids,
    with an on-demand sorted key list for ordered access paths."""

    def __init__(self, columns: tuple[str, ...], unique: bool):
        self.columns = columns
        self.unique = unique
        self._entries: dict[tuple, set[int]] = {}
        #: (key, row id) pairs held — see :attr:`repeats`
        self.size = 0
        #: ascending key list — built on the first ordered use, then kept
        #: in step by add / remove (bisect, under the write lock)
        self._sorted: list[tuple] | None = None

    def key_for(self, row: dict) -> tuple:
        """The index key of ``row``; NULLs become the ordering sentinel."""
        return tuple(
            _NULL if row[c] is None else row[c] for c in self.columns
        )

    def unique_key_for(self, row: dict) -> tuple | None:
        """The key used for uniqueness checks; None when any indexed
        column is NULL (SQL unique constraints ignore NULLs)."""
        key = tuple(row[c] for c in self.columns)
        if any(v is None for v in key):
            return None
        return key

    def would_violate(self, row: dict, ignore_row_id: int | None = None) -> bool:
        if not self.unique:
            return False
        key = self.unique_key_for(row)
        if key is None:
            return False
        holders = self._entries.get(key, set())
        return any(rid != ignore_row_id for rid in holders)

    def add(self, row_id: int, row: dict) -> None:
        key = self.key_for(row)
        holders = self._entries.get(key)
        if holders is None:
            self._entries[key] = holders = set()
            if self._sorted is not None:
                bisect.insort(self._sorted, key)
        holders.add(row_id)
        self.size += 1

    def remove(self, row_id: int, row: dict) -> None:
        key = self.key_for(row)
        holders = self._entries.get(key)
        if holders and row_id in holders:
            holders.remove(row_id)
            self.size -= 1
            if not holders:
                del self._entries[key]
                if self._sorted is not None:
                    del self._sorted[bisect.bisect_left(self._sorted, key)]

    def find(self, key: tuple) -> set[int]:
        return self._entries.get(key, set())

    @property
    def repeats(self) -> bool:
        """Whether some key holds several rows.  While none does, an
        ordered walk has no ties to order and jumps its offset."""
        return self.size != len(self._entries)

    # -- ordered access -----------------------------------------------------

    def ordered_slice(self, prefix: tuple, bounds: tuple | None = None,
                      descending: bool = False) -> tuple[list, range] | None:
        """``(keys, positions)``: the sorted key list and the positions,
        in key order (reversed when ``descending``), of the keys that
        start with ``prefix`` and — given ``bounds = (low, low_inclusive,
        high, high_inclusive)`` — hold a non-NULL next column inside
        that interval.  The one slice under prefix scans, range scans
        and the ordered walk.  None means no ordered view: the probe (or,
        in a mixed-type column, the keys) would not compare."""
        keys = self._sorted
        width = len(prefix)
        try:
            if keys is None:
                keys = self._sorted = sorted(self._entries)
            start = bisect.bisect_left(keys, prefix, key=lambda t: t[:width])
            stop = bisect.bisect_right(keys, prefix, key=lambda t: t[:width])
            if bounds is not None:
                low, low_inclusive, high, high_inclusive = bounds
                # no lower bound still skips the NULLs, which sort first
                # and never satisfy a range predicate
                side = (bisect.bisect_left if low is not None and low_inclusive
                        else bisect.bisect_right)
                start = side(keys, prefix + (_NULL if low is None else low,),
                             start, stop, key=lambda t: t[: width + 1])
                if high is not None:
                    side = (bisect.bisect_right if high_inclusive
                            else bisect.bisect_left)
                    stop = side(keys, prefix + (high,), start, stop,
                                key=lambda t: t[: width + 1])
        except TypeError:
            return None
        if descending:
            return keys, range(stop - 1, start - 1, -1)
        return keys, range(start, stop)

    def walk(self, prefix: tuple, descending: bool, skip: int, scan_order):
        """Row ids under ``prefix`` in key order, the rows of one key in
        ``scan_order`` (a sort key over row ids, None for plain id
        order), after passing over ``skip`` index entries; None when no
        ordered view is available."""
        found = self.ordered_slice(prefix, None, descending)
        if found is None:
            return None
        keys, positions = found
        tied = self.repeats
        groups = map(self._entries.__getitem__, map(
            keys.__getitem__, positions if tied else positions[skip:]
        ))
        return itertools.chain.from_iterable(
            self._tied(groups, skip, scan_order) if tied else groups
        )

    @staticmethod
    def _tied(groups, skip: int, scan_order):
        for holders in groups:
            if skip >= len(holders):
                skip -= len(holders)
            elif len(holders) == 1:
                yield holders
            else:
                yield sorted(holders, key=scan_order)[skip:]
                skip = 0

    def scan_prefix(self, prefix: tuple) -> set[int] | None:
        """Row ids whose key starts with ``prefix`` (real values only).
        Full-width prefixes degrade to a hash probe; None means the
        ordered view is unavailable and the caller must scan."""
        if len(prefix) == len(self.columns):
            return set(self.find(prefix))
        return self.scan_range(prefix, None)

    def scan_range(self, prefix: tuple, bounds: tuple | None) -> set[int] | None:
        """Row ids matching ``prefix`` equality on the leading columns
        plus ``bounds``, a (half-)open interval on the next column (see
        :meth:`ordered_slice`).  None means fall back to a sequential
        scan."""
        found = self.ordered_slice(prefix, bounds)
        if found is None:
            return None
        keys, positions = found
        return set().union(*(self._entries[keys[i]] for i in positions))


class TableStore:
    """Rows and indexes of one table.

    Constraint checks that need *other* tables (foreign keys) live in
    :class:`repro.rdb.database.Database`; this class enforces what is
    local: NOT NULL, type coercion, primary-key and unique uniqueness.
    """

    def __init__(self, schema: TableSchema):
        self.schema = schema
        self.rows: dict[int, dict] = {}
        self._next_row_id = 1
        self._auto_counter = 0
        #: snapshot written by ANALYZE (see repro.rdb.statistics);
        #: None until the table has been analyzed.
        self.statistics = None
        #: lazily built column-major mirror (repro.rdb.columnar); the
        #: mutators below feed it O(1) sync records once it exists
        self.column_store = ColumnStore(self)
        #: scan position of the rows a rollback re-inserted at the end of
        #: the heap, out of row-id order (see :meth:`scan_order`)
        self._displaced: dict[int, tuple[int, int]] = {}
        self._displacements = 0
        #: column -> the store a single-column foreign key on it
        #: references (see :meth:`link_foreign_keys`)
        self.fk_targets: dict[str, TableStore] = {}
        self._indexes: dict[str, _HashIndex] = {}
        if schema.primary_key:
            self._indexes["#pk"] = _HashIndex(schema.primary_key, unique=True)
        for position, unique_cols in enumerate(schema.unique_constraints):
            self._indexes[f"#unique{position}"] = _HashIndex(unique_cols, unique=True)
        for index in schema.indexes:
            self.add_index(index)

    def link_foreign_keys(self, tables: dict) -> None:
        """Resolve each single-column foreign key's referenced store once:
        in ``tables``, or this store for a self-reference.  The cost
        model prices the column from the referenced table's size."""
        name = self.schema.name
        self.fk_targets = {
            fkey.columns[0]: self if fkey.target_table == name
            else tables[fkey.target_table]
            for fkey in self.schema.foreign_keys if len(fkey.columns) == 1
        }

    # -- index management -----------------------------------------------------

    def add_index(self, index: Index) -> None:
        if index.name in self._indexes:
            raise SchemaError(f"duplicate index name {index.name!r}")
        hash_index = _HashIndex(index.columns, index.unique)
        for row_id, row in self.rows.items():
            if hash_index.would_violate(row):
                raise IntegrityError(
                    f"cannot create unique index {index.name!r}: duplicate values"
                )
            hash_index.add(row_id, row)
        self._indexes[index.name] = hash_index

    def index_on(self, columns: tuple[str, ...]) -> _HashIndex | None:
        """An index whose column tuple exactly matches ``columns``."""
        for index in self._indexes.values():
            if index.columns == columns:
                return index
        return None

    def iter_indexes(self) -> list[tuple[str, _HashIndex]]:
        """(name, index) pairs for access-path enumeration."""
        return list(self._indexes.items())

    # -- row lifecycle ---------------------------------------------------------

    def prepare_row(self, values: dict) -> dict:
        """Build a full, type-coerced row from partial column values.

        Applies auto-increment/defaults and checks NOT NULL.  Raises on
        unknown columns so typos surface instead of silently dropping data.
        """
        for name in values:
            if not self.schema.has_column(name):
                raise SchemaError(
                    f"table {self.schema.name!r} has no column {name!r}"
                )
        row: dict = {}
        for column in self.schema.columns:
            value = values.get(column.name)
            if value is None and column.auto_increment:
                self._auto_counter += 1
                value = self._auto_counter
            if value is None and column.default is not None:
                value = column.default
            value = column.sql_type.coerce(value)
            if value is None and not column.nullable:
                raise IntegrityError(
                    f"column {self.schema.name}.{column.name} is NOT NULL"
                )
            row[column.name] = value
        # Keep the auto counter ahead of explicitly supplied ids.
        for column in self.schema.columns:
            if column.auto_increment and isinstance(row[column.name], int):
                self._auto_counter = max(self._auto_counter, row[column.name])
        return row

    def check_unique(self, row: dict, ignore_row_id: int | None = None) -> None:
        for name, index in self._indexes.items():
            if index.would_violate(row, ignore_row_id):
                what = "primary key" if name == "#pk" else "unique constraint"
                raise IntegrityError(
                    f"{what} violation on {self.schema.name}({', '.join(index.columns)})"
                )

    def insert_prepared(self, row: dict) -> int:
        self.check_unique(row)
        row_id = self._next_row_id
        self._next_row_id += 1
        self.rows[row_id] = row
        for index in self._indexes.values():
            index.add(row_id, row)
        self.column_store.note_insert(row_id, row)
        return row_id

    def update_row(self, row_id: int, changes: dict) -> dict:
        old = self.rows[row_id]
        new = dict(old)
        for name, value in changes.items():
            column = self.schema.column(name)
            value = column.sql_type.coerce(value)
            if value is None and not column.nullable:
                raise IntegrityError(
                    f"column {self.schema.name}.{name} is NOT NULL"
                )
            new[name] = value
        self.check_unique(new, ignore_row_id=row_id)
        self._reindex(row_id, old, new)
        self.rows[row_id] = new
        self.column_store.note_update(row_id, new)
        return new

    def _reindex(self, row_id: int, old: dict, new: dict) -> None:
        """Move ``row_id`` between index keys — only where the key
        changed, so an update leaves the other sorted views alone."""
        for index in self._indexes.values():
            if index.key_for(old) != index.key_for(new):
                index.remove(row_id, old)
                index.add(row_id, new)

    def delete_row(self, row_id: int) -> dict:
        row = self.rows.pop(row_id)
        self._displaced.pop(row_id, None)
        for index in self._indexes.values():
            index.remove(row_id, row)
        self.column_store.note_delete(row_id)
        return row

    # -- transaction support (no checks: restoring a prior state) ----------

    def restore_row(self, row_id: int, row: dict) -> None:
        """Re-insert a previously deleted row under its original id."""
        if row_id < self._next_row_id:
            # lands behind every row allocated so far, ahead of the next
            self._displacements += 1
            self._displaced[row_id] = (self._next_row_id - 1,
                                       self._displacements)
        self.rows[row_id] = row
        for index in self._indexes.values():
            index.add(row_id, row)
        # a re-inserted key appends at the end of the rows dict, which is
        # exactly where the columnar sync puts it
        self.column_store.note_insert(row_id, row)
        self._next_row_id = max(self._next_row_id, row_id + 1)

    # -- durability support (WAL replay and snapshots) ---------------------

    @property
    def auto_counter(self) -> int:
        """The auto-increment high-water mark (snapshot/replay state)."""
        return self._auto_counter

    @property
    def next_row_id(self) -> int:
        return self._next_row_id

    def restore_counters(self, auto_counter: int, next_row_id: int) -> None:
        """Reinstate counters exactly as a snapshot recorded them."""
        self._auto_counter = auto_counter
        self._next_row_id = next_row_id

    def apply_redo_insert(self, row_id: int, row: dict) -> None:
        """Replay a committed insert: the row is known-good, so no
        constraint checks; counters advance past the replayed values."""
        self.restore_row(row_id, row)
        for column in self.schema.columns:
            if column.auto_increment and isinstance(row.get(column.name), int):
                self._auto_counter = max(self._auto_counter, row[column.name])

    def force_row(self, row_id: int, row: dict) -> None:
        """Overwrite a row with an earlier version (undo of an update)."""
        self._reindex(row_id, self.rows[row_id], row)
        self.rows[row_id] = row
        self.column_store.note_update(row_id, row)

    # -- lookups ------------------------------------------------------------------

    @property
    def scan_order(self):
        """A sort key placing row ids in heap-scan order — None while
        that is plain row-id order, i.e. until a rollback re-inserts a
        row where :meth:`restore_row` appends it.  An index walk orders
        the rows of one key by it, so equal sort keys tie exactly as a
        stable sort over the heap scan ties them."""
        displaced = self._displaced
        return (lambda row_id: displaced.get(row_id) or (row_id, 0)) \
            if displaced else None

    def find_by_key(self, columns: tuple[str, ...], key: tuple) -> list[int]:
        """Row ids whose ``columns`` equal ``key``, via an index when one
        exists, else a scan."""
        index = self.index_on(columns)
        if index is not None:
            return sorted(index.find(key))
        matches = []
        for row_id, row in self.rows.items():
            if tuple(row[c] for c in columns) == key:
                matches.append(row_id)
        return matches

    def __len__(self) -> int:
        return len(self.rows)
