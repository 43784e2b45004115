"""Point-in-time snapshots of the storage engine's full state.

A snapshot is the base image crash recovery replays the WAL suffix
over: every table's schema, secondary indexes, row heap (with row
ids), auto-increment counter, and whether the table had been ANALYZEd.
Snapshots are written atomically — serialize to a temporary file,
``fsync``, then ``rename`` over the previous snapshot — so a crash
mid-checkpoint always leaves one intact base image on disk.

File layout::

    [8-byte magic "RSNAP001"][u32 crc32(body)][body]

with the body::

    [u64 lsn][u32 table count]
    per table (in creation order, so foreign-key targets load first):
      [schema (structural, without secondary indexes)]
      [u32 index count][indexes...]
      [u64 auto_counter][u64 next_row_id][bool analyzed]
      [u64 row count][per row: u64 row_id + tagged row values]

Statistics are not serialized: ``analyzed`` tables are re-ANALYZEd on
load, which reproduces what the planner needs from the restored rows
themselves.
"""

from __future__ import annotations

import io
import os
import struct
import zlib

from repro.errors import DatabaseError
from repro.rdb.schema import TableSchema
from repro.rdb.storage import TableStore
from repro.rdb.wal import (
    read_index,
    read_row,
    read_schema,
    read_value,
    write_index,
    write_row,
    write_schema,
    write_value,
)

MAGIC = b"RSNAP001"

_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")


def _bare_schema(schema: TableSchema) -> TableSchema:
    """The schema without secondary indexes.

    Secondary indexes are serialized from the live store (CREATE INDEX
    adds to the store, not the schema), so the schema must not re-add
    its declared ones on load or they would collide.
    """
    if not schema.indexes:
        return schema
    return TableSchema(
        schema.name,
        schema.columns,
        primary_key=schema.primary_key,
        foreign_keys=schema.foreign_keys,
        unique_constraints=schema.unique_constraints,
        indexes=[],
    )


def snapshot_bytes(lsn: int, tables: dict[str, TableStore]) -> bytes:
    """Serialize ``tables`` at commit ``lsn`` to the snapshot format.

    The same blob a snapshot file holds, without touching disk — the
    replication bootstrap ships it over a socket, and the replica
    identity oracle compares two engines byte for byte by comparing
    their serializations.
    """
    body = io.BytesIO()
    body.write(_U64.pack(lsn))
    body.write(_U32.pack(len(tables)))
    for store in tables.values():
        write_schema(body, _bare_schema(store.schema))
        named = [
            (name, index) for name, index in store.iter_indexes()
            if not name.startswith("#")
        ]
        body.write(_U32.pack(len(named)))
        for name, index in named:
            write_index(body, _index_definition(name, index))
        body.write(_U64.pack(store.auto_counter))
        body.write(_U64.pack(store.next_row_id))
        write_value(body, store.statistics is not None)
        body.write(_U64.pack(len(store.rows)))
        for row_id, row in store.rows.items():
            body.write(_U64.pack(row_id))
            write_row(body, row)
    payload = body.getvalue()
    return MAGIC + _U32.pack(zlib.crc32(payload)) + payload


def write_snapshot(path: str, lsn: int, tables: dict[str, TableStore]) -> int:
    """Atomically write a snapshot of ``tables`` at commit ``lsn``.

    Returns the snapshot size in bytes.
    """
    blob = snapshot_bytes(lsn, tables)
    tmp_path = path + ".tmp"
    with open(tmp_path, "wb") as handle:
        handle.write(blob)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)
    return len(blob)


def _index_definition(name: str, index):
    from repro.rdb.schema import Index

    return Index(name, index.columns, unique=index.unique)


def load_snapshot(path: str) -> tuple[int, dict[str, TableStore]]:
    """Rebuild the table stores a snapshot file describes.

    Returns ``(lsn, tables)``; raises :class:`DatabaseError` on a
    corrupt or truncated snapshot (recovery should fail loudly here —
    unlike the WAL, a snapshot is written atomically and must be
    intact).
    """
    with open(path, "rb") as handle:
        blob = handle.read()
    return load_snapshot_bytes(blob, origin=path)


def load_snapshot_bytes(blob: bytes,
                        origin: str = "<bytes>") -> tuple[int, dict[str, TableStore]]:
    """Rebuild table stores from an in-memory snapshot blob.

    ``origin`` only labels error messages (a file path, or the peer a
    replication bootstrap came from).
    """
    if not blob.startswith(MAGIC) or len(blob) < len(MAGIC) + 4:
        raise DatabaseError(f"not a snapshot file: {origin!r}")
    (crc,) = _U32.unpack_from(blob, len(MAGIC))
    payload = blob[len(MAGIC) + 4:]
    if zlib.crc32(payload) != crc:
        raise DatabaseError(f"corrupt snapshot (CRC mismatch): {origin!r}")
    buf = io.BytesIO(payload)
    (lsn,) = _U64.unpack(buf.read(8))
    (n_tables,) = _U32.unpack(buf.read(4))
    tables: dict[str, TableStore] = {}
    analyzed: list[TableStore] = []
    for _ in range(n_tables):
        schema = read_schema(buf)
        store = TableStore(schema)
        store.link_foreign_keys(tables)
        (n_indexes,) = _U32.unpack(buf.read(4))
        for _ in range(n_indexes):
            store.add_index(read_index(buf))
        (auto_counter,) = _U64.unpack(buf.read(8))
        (next_row_id,) = _U64.unpack(buf.read(8))
        was_analyzed = read_value(buf)
        (n_rows,) = _U64.unpack(buf.read(8))
        for _ in range(n_rows):
            (row_id,) = _U64.unpack(buf.read(8))
            store.apply_redo_insert(row_id, read_row(buf))
        store.restore_counters(auto_counter, next_row_id)
        if was_analyzed:
            analyzed.append(store)
        tables[schema.name] = store
    for store in analyzed:
        from repro.rdb.statistics import collect_statistics

        store.statistics = collect_statistics(store)
    return lsn, tables
