"""The write-ahead log: typed, CRC-framed binary commit records.

Durability for the rdb follows the classic redo-log protocol: every
committed transaction appends one *commit record* — the full redo
information for its writes — to an append-only binary log, and the
record reaches disk (``fsync``) before the commit returns.  Crash
recovery (:mod:`repro.rdb.snapshot` + :class:`repro.rdb.engine.DurableEngine`)
replays the committed prefix of the log over the latest snapshot; a
torn tail (a crash mid-append) fails its CRC or length check and is
ignored, so recovery always lands exactly on a transaction boundary.
A log this engine cannot read — another format version, or a frame
whose CRC holds but whose record does not decode — is refused, never
truncated: its committed records are somebody's data.

File layout::

    [8-byte magic "RWAL0002"]
    repeat:
      [u32 payload length][u32 crc32(payload)][payload]

Each payload is one commit record::

    [u64 lsn][u32 op count][ops...]

and each op starts with a 1-byte opcode followed by opcode-specific
fields (see the ``OP_*`` constants).  Values use a tagged binary
encoding covering the engine's SQL types (NULL, booleans, arbitrary
ints, floats, strings, dates); table schemas are serialized
structurally — not as DDL text — so defaults and constraints survive
replay byte-for-byte.

Group commit: with ``group_window_seconds > 0`` the log still writes
every record to the OS immediately but defers the ``fsync`` until the
window since the last sync has elapsed (or an explicit
:meth:`WriteAheadLog.flush`), amortizing the dominant durability cost
across a burst of small transactions at the price of a bounded
durability window — the ``commit_delay`` knob of real engines.
"""

from __future__ import annotations

import datetime
import io
import os
import struct
import time
import zlib
from dataclasses import dataclass, field

from repro.errors import DatabaseError
from repro.rdb.schema import Column, ForeignKey, Index, TableSchema
from repro.rdb.types import type_from_name

#: the format version; bumped whenever a record's encoding changes
#: (``0002``: update and delete ops carry the old row)
MAGIC = b"RWAL0002"

# -- opcodes (one per typed commit-record entry) ----------------------------

OP_INSERT = 1
OP_UPDATE = 2
OP_DELETE = 3
OP_CREATE_TABLE = 4
OP_CREATE_INDEX = 5
OP_DROP_TABLE = 6
OP_ANALYZE = 7

OP_NAMES = {
    OP_INSERT: "insert",
    OP_UPDATE: "update",
    OP_DELETE: "delete",
    OP_CREATE_TABLE: "create_table",
    OP_CREATE_INDEX: "create_index",
    OP_DROP_TABLE: "drop_table",
    OP_ANALYZE: "analyze",
}

# -- value codec ------------------------------------------------------------

_TAG_NULL = 0
_TAG_FALSE = 1
_TAG_TRUE = 2
_TAG_INT = 3  # length-prefixed big-endian two's complement (any size)
_TAG_FLOAT = 4
_TAG_STR = 5
_TAG_DATE = 6

_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_F64 = struct.Struct(">d")
_DATE = struct.Struct(">HBB")


def write_value(out: io.BytesIO, value) -> None:
    """Append one tagged value to ``out``."""
    if value is None:
        out.write(bytes((_TAG_NULL,)))
    elif value is True:
        out.write(bytes((_TAG_TRUE,)))
    elif value is False:
        out.write(bytes((_TAG_FALSE,)))
    elif isinstance(value, int):
        raw = value.to_bytes((value.bit_length() + 8) // 8 or 1,
                             "big", signed=True)
        out.write(bytes((_TAG_INT,)))
        out.write(_U32.pack(len(raw)))
        out.write(raw)
    elif isinstance(value, float):
        out.write(bytes((_TAG_FLOAT,)))
        out.write(_F64.pack(value))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.write(bytes((_TAG_STR,)))
        out.write(_U32.pack(len(raw)))
        out.write(raw)
    elif isinstance(value, datetime.date):
        out.write(bytes((_TAG_DATE,)))
        out.write(_DATE.pack(value.year, value.month, value.day))
    else:
        raise DatabaseError(
            f"cannot serialize {type(value).__name__} value {value!r} to the WAL"
        )


def read_value(buf: io.BytesIO):
    """Read one tagged value written by :func:`write_value`."""
    tag = _read_exact(buf, 1)[0]
    if tag == _TAG_NULL:
        return None
    if tag == _TAG_TRUE:
        return True
    if tag == _TAG_FALSE:
        return False
    if tag == _TAG_INT:
        (length,) = _U32.unpack(_read_exact(buf, 4))
        return int.from_bytes(_read_exact(buf, length), "big", signed=True)
    if tag == _TAG_FLOAT:
        return _F64.unpack(_read_exact(buf, 8))[0]
    if tag == _TAG_STR:
        (length,) = _U32.unpack(_read_exact(buf, 4))
        return _read_exact(buf, length).decode("utf-8")
    if tag == _TAG_DATE:
        year, month, day = _DATE.unpack(_read_exact(buf, 4))
        return datetime.date(year, month, day)
    raise DatabaseError(f"corrupt WAL value tag {tag}")


def _read_exact(buf: io.BytesIO, n: int) -> bytes:
    data = buf.read(n)
    if len(data) != n:
        raise DatabaseError("truncated WAL payload")
    return data


def _write_str(out: io.BytesIO, text: str) -> None:
    raw = text.encode("utf-8")
    out.write(_U32.pack(len(raw)))
    out.write(raw)


def _read_str(buf: io.BytesIO) -> str:
    (length,) = _U32.unpack(_read_exact(buf, 4))
    return _read_exact(buf, length).decode("utf-8")


def write_row(out: io.BytesIO, row: dict) -> None:
    out.write(_U32.pack(len(row)))
    for name, value in row.items():
        _write_str(out, name)
        write_value(out, value)


def read_row(buf: io.BytesIO) -> dict:
    (count,) = _U32.unpack(_read_exact(buf, 4))
    row: dict = {}
    for _ in range(count):
        name = _read_str(buf)
        row[name] = read_value(buf)
    return row


# -- schema codec -----------------------------------------------------------
# Structural, not DDL text: ``TableSchema.to_ddl()`` does not render
# column defaults, so a textual round-trip would silently drop them.

def write_schema(out: io.BytesIO, schema: TableSchema) -> None:
    _write_str(out, schema.name)
    out.write(_U32.pack(len(schema.columns)))
    for column in schema.columns:
        _write_str(out, column.name)
        _write_str(out, column.sql_type.ddl())
        write_value(out, column.nullable)
        write_value(out, column.auto_increment)
        write_value(out, column.default)
    out.write(_U32.pack(len(schema.primary_key)))
    for name in schema.primary_key:
        _write_str(out, name)
    out.write(_U32.pack(len(schema.foreign_keys)))
    for fkey in schema.foreign_keys:
        out.write(_U32.pack(len(fkey.columns)))
        for name in fkey.columns:
            _write_str(out, name)
        _write_str(out, fkey.target_table)
        for name in fkey.target_columns:
            _write_str(out, name)
        _write_str(out, fkey.on_delete)
    out.write(_U32.pack(len(schema.unique_constraints)))
    for unique in schema.unique_constraints:
        out.write(_U32.pack(len(unique)))
        for name in unique:
            _write_str(out, name)
    out.write(_U32.pack(len(schema.indexes)))
    for index in schema.indexes:
        write_index(out, index)


def read_schema(buf: io.BytesIO) -> TableSchema:
    name = _read_str(buf)
    (n_columns,) = _U32.unpack(_read_exact(buf, 4))
    columns = []
    for _ in range(n_columns):
        col_name = _read_str(buf)
        type_ddl = _read_str(buf)
        nullable = read_value(buf)
        auto_increment = read_value(buf)
        default = read_value(buf)
        columns.append(Column(col_name, type_from_name(type_ddl),
                              nullable=nullable,
                              auto_increment=auto_increment,
                              default=default))
    (n_pk,) = _U32.unpack(_read_exact(buf, 4))
    primary_key = tuple(_read_str(buf) for _ in range(n_pk))
    (n_fk,) = _U32.unpack(_read_exact(buf, 4))
    foreign_keys = []
    for _ in range(n_fk):
        (n_cols,) = _U32.unpack(_read_exact(buf, 4))
        fk_columns = tuple(_read_str(buf) for _ in range(n_cols))
        target_table = _read_str(buf)
        target_columns = tuple(_read_str(buf) for _ in range(n_cols))
        on_delete = _read_str(buf)
        foreign_keys.append(ForeignKey(fk_columns, target_table,
                                       target_columns, on_delete=on_delete))
    (n_unique,) = _U32.unpack(_read_exact(buf, 4))
    unique_constraints = []
    for _ in range(n_unique):
        (n_cols,) = _U32.unpack(_read_exact(buf, 4))
        unique_constraints.append(
            tuple(_read_str(buf) for _ in range(n_cols))
        )
    (n_indexes,) = _U32.unpack(_read_exact(buf, 4))
    indexes = [read_index(buf) for _ in range(n_indexes)]
    return TableSchema(name, columns, primary_key=primary_key,
                       foreign_keys=foreign_keys,
                       unique_constraints=unique_constraints,
                       indexes=indexes)


def write_index(out: io.BytesIO, index: Index) -> None:
    _write_str(out, index.name)
    out.write(_U32.pack(len(index.columns)))
    for name in index.columns:
        _write_str(out, name)
    write_value(out, index.unique)


def read_index(buf: io.BytesIO) -> Index:
    name = _read_str(buf)
    (n_cols,) = _U32.unpack(_read_exact(buf, 4))
    columns = tuple(_read_str(buf) for _ in range(n_cols))
    unique = read_value(buf)
    return Index(name, columns, unique=unique)


# -- commit records ---------------------------------------------------------

@dataclass
class CommitRecord:
    """One committed transaction: its LSN plus typed redo ops.

    Ops are tuples whose first element is an ``OP_*`` opcode:

    - ``(OP_INSERT, table, row_id, row)``
    - ``(OP_UPDATE, table, row_id, new_row, old_row)``
    - ``(OP_DELETE, table, row_id, old_row)``

    The old row of an update or delete (its before-image) is what
    replay does not need and cache invalidation does: the instances a
    write removes a row from are named by the row it had.  An op built
    without one (``old_row`` left off) round-trips without one.
    - ``(OP_CREATE_TABLE, schema)``
    - ``(OP_CREATE_INDEX, table, index)``
    - ``(OP_DROP_TABLE, table)``
    - ``(OP_ANALYZE, table_or_None)``
    """

    lsn: int
    ops: list = field(default_factory=list)

    def tables(self) -> set[str]:
        """Names of every table this record touches."""
        touched: set[str] = set()
        for op in self.ops:
            if op[0] == OP_CREATE_TABLE:
                touched.add(op[1].name)
            else:
                touched.add(op[1])
        return touched

    def encode(self) -> bytes:
        out = io.BytesIO()
        out.write(_U64.pack(self.lsn))
        out.write(_U32.pack(len(self.ops)))
        for op in self.ops:
            opcode = op[0]
            out.write(bytes((opcode,)))
            if opcode in (OP_INSERT, OP_UPDATE, OP_DELETE):
                _write_str(out, op[1])
                out.write(_U64.pack(op[2]))
                # insert: row; update: new[, old]; delete: [old]
                images = op[3:]
                if opcode != OP_DELETE:
                    write_row(out, images[0])
                    images = images[1:]
                if opcode != OP_INSERT:
                    out.write(bytes((len(images),)))
                    for image in images:
                        write_row(out, image)
            elif opcode == OP_CREATE_TABLE:
                write_schema(out, op[1])
            elif opcode == OP_CREATE_INDEX:
                _write_str(out, op[1])
                write_index(out, op[2])
            elif opcode == OP_DROP_TABLE:
                _write_str(out, op[1])
            elif opcode == OP_ANALYZE:
                write_value(out, op[1])
            else:
                raise DatabaseError(f"unknown WAL opcode {opcode}")
        return out.getvalue()

    @classmethod
    def decode(cls, payload: bytes) -> "CommitRecord":
        buf = io.BytesIO(payload)
        (lsn,) = _U64.unpack(_read_exact(buf, 8))
        (n_ops,) = _U32.unpack(_read_exact(buf, 4))
        ops: list = []
        for _ in range(n_ops):
            opcode = _read_exact(buf, 1)[0]
            if opcode in (OP_INSERT, OP_UPDATE, OP_DELETE):
                table = _read_str(buf)
                (row_id,) = _U64.unpack(_read_exact(buf, 8))
                op = (opcode, table, row_id)
                if opcode != OP_DELETE:
                    op += (read_row(buf),)
                if opcode != OP_INSERT:
                    (count,) = _read_exact(buf, 1)
                    op += tuple(read_row(buf) for _ in range(count))
                ops.append(op)
            elif opcode == OP_CREATE_TABLE:
                ops.append((opcode, read_schema(buf)))
            elif opcode == OP_CREATE_INDEX:
                table = _read_str(buf)
                ops.append((opcode, table, read_index(buf)))
            elif opcode == OP_DROP_TABLE:
                ops.append((opcode, _read_str(buf)))
            elif opcode == OP_ANALYZE:
                ops.append((opcode, read_value(buf)))
            else:
                raise DatabaseError(f"unknown WAL opcode {opcode}")
        return cls(lsn, ops)


# -- the log file -----------------------------------------------------------

_FRAME = struct.Struct(">II")  # payload length, crc32


class WriteAheadLog:
    """Append-only framed log with fsync-on-commit or group commit.

    All appends happen under the database's write lock (commits are
    serialized by design), so the log keeps plain counters.  A fsync
    histogram may be attached (:meth:`bind_fsync_histogram`) to expose
    ``rdb.wal_fsync_seconds``.
    """

    def __init__(self, path: str, group_window_seconds: float = 0.0):
        self.path = path
        self.group_window_seconds = group_window_seconds
        self.records_appended = 0
        self.bytes_appended = 0
        self.fsyncs = 0
        self.fsync_seconds_total = 0.0
        self._fsync_histogram = None
        self._pending_sync = False
        self._last_sync = 0.0
        created = not os.path.exists(path) or os.path.getsize(path) == 0
        self._file = open(path, "ab", buffering=0)
        if created:
            self._file.write(MAGIC)
            self._sync()

    def bind_fsync_histogram(self, histogram) -> None:
        self._fsync_histogram = histogram

    @property
    def size_bytes(self) -> int:
        """Current log size on disk (header included)."""
        return self._file.tell() if not self._file.closed else 0

    # -- writing ------------------------------------------------------------

    def append(self, record: CommitRecord) -> int:
        """Frame, write, and (per policy) sync one commit record.

        Returns the framed size in bytes.  With a group-commit window
        the bytes always reach the OS here; the fsync may be deferred
        until the window elapses or :meth:`flush` runs.
        """
        payload = record.encode()
        frame = _FRAME.pack(len(payload), zlib.crc32(payload)) + payload
        self._file.write(frame)
        self.records_appended += 1
        self.bytes_appended += len(frame)
        if self.group_window_seconds > 0.0:
            self._pending_sync = True
            if time.monotonic() - self._last_sync >= self.group_window_seconds:
                self._sync()
        else:
            self._sync()
        return len(frame)

    def _sync(self) -> None:
        started = time.perf_counter()
        self._file.flush()
        os.fsync(self._file.fileno())
        duration = time.perf_counter() - started
        self.fsyncs += 1
        self.fsync_seconds_total += duration
        self._pending_sync = False
        self._last_sync = time.monotonic()
        if self._fsync_histogram is not None:
            self._fsync_histogram.record(duration)

    def flush(self) -> None:
        """Force any group-commit-deferred bytes to disk."""
        if self._pending_sync:
            self._sync()

    def reset(self) -> None:
        """Truncate back to an empty log (after a snapshot checkpoint)."""
        self._file.truncate(0)
        self._file.seek(0)
        self._file.write(MAGIC)
        self._sync()

    def close(self) -> None:
        if not self._file.closed:
            self.flush()
            self._file.close()

    @property
    def closed(self) -> bool:
        return self._file.closed

    def stats(self) -> dict:
        return {
            "wal_records": self.records_appended,
            "wal_bytes": self.bytes_appended,
            "wal_fsyncs": self.fsyncs,
            "wal_fsync_ms_total": round(self.fsync_seconds_total * 1000.0, 3),
            "wal_group_window_ms": round(self.group_window_seconds * 1000.0, 3),
        }


def _check_header(data: bytes, path: str) -> bool:
    """True when ``data`` (a log's bytes) starts with this engine's
    :data:`MAGIC`; False for a torn creation — fewer bytes than the
    header, all of them a prefix of it.  Anything else is a log written
    in another format: :class:`DatabaseError`, naming both versions."""
    if data.startswith(MAGIC):
        return True
    if len(data) < len(MAGIC) and MAGIC.startswith(data):
        return False
    raise DatabaseError(
        f"{path}: write-ahead log format {data[:len(MAGIC)]!r} is not "
        f"this engine's {MAGIC!r}; refusing to open it (nothing was "
        "truncated)"
    )


def read_log(path: str):
    """Yield every intact :class:`CommitRecord` in ``path``, in order.

    Stops silently at the first torn or corrupt frame — the tail a
    crash mid-append leaves behind.  A missing or header-only file (or
    a torn header) yields nothing.  A header of another format, or a
    frame whose CRC holds but whose record does not decode, raises
    :class:`DatabaseError`: that is a log this code cannot read, not a
    crash's tail.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return
    if not _check_header(data, path):
        return
    position = len(MAGIC)
    total = len(data)
    while position + _FRAME.size <= total:
        length, crc = _FRAME.unpack_from(data, position)
        start = position + _FRAME.size
        end = start + length
        if end > total:
            return  # torn tail: the payload never finished writing
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            return  # corrupt frame: treat as end of committed prefix
        try:
            record = CommitRecord.decode(payload)
        except DatabaseError as exc:
            raise DatabaseError(
                f"{path}: the committed record at byte {position} does not "
                f"decode as format {MAGIC!r} ({exc}); refusing to open it"
            ) from None
        yield record
        position = end


def committed_prefix_boundaries(path: str) -> list[int]:
    """Byte offsets at which each commit record ends (oracle support).

    ``boundaries[k]`` is the file size up to and including record
    ``k``; a crash that preserves at least ``boundaries[k]`` bytes
    must recover every transaction up to record ``k``.
    """
    boundaries: list[int] = []
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return boundaries
    if not data.startswith(MAGIC):
        return boundaries
    position = len(MAGIC)
    total = len(data)
    while position + _FRAME.size <= total:
        length, crc = _FRAME.unpack_from(data, position)
        end = position + _FRAME.size + length
        if end > total:
            break
        if zlib.crc32(data[position + _FRAME.size:end]) != crc:
            break
        boundaries.append(end)
        position = end
    return boundaries
