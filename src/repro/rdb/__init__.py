"""In-memory relational engine.

The paper's applications run against "any JDBC or ODBC compliant data
source"; this package is that data source for the reproduction.  It is a
real (if small) SQL engine, not a mock: generated queries are parsed,
planned, and executed against row storage, with primary/foreign-key and
NOT NULL enforcement, secondary indexes, and DB-API-style connections.

Layering (each module only imports the ones above it):

- :mod:`repro.rdb.types` — the SQL type system and value coercion,
- :mod:`repro.rdb.schema` — table/column/key/index definitions,
- :mod:`repro.rdb.expr` — the expression AST with SQL three-valued logic,
- :mod:`repro.rdb.sqlparser` — tokenizer + recursive-descent SQL parser,
- :mod:`repro.rdb.storage` — heap row storage with ordered hash indexes,
- :mod:`repro.rdb.wal` / :mod:`repro.rdb.snapshot` — the binary
  write-ahead log (typed, CRC-framed commit records) and atomic
  point-in-time snapshots,
- :mod:`repro.rdb.engine` — the storage engine boundary: tables,
  transactions, the commit stream, and (``DurableEngine``) WAL +
  snapshot persistence with crash recovery,
- :mod:`repro.rdb.replication` — WAL shipping: the primary-side
  record shipper and the read-only ``ReplicaEngine`` fed by snapshot
  bootstrap plus tail streaming (one write primary, N read replicas),
- :mod:`repro.rdb.statistics` / :mod:`repro.rdb.cost` — ANALYZE
  snapshots and the selectivity/cost model they feed,
- :mod:`repro.rdb.planner` / :mod:`repro.rdb.executor` — cost-based
  planning and execution of SELECT statements and of the scans UPDATE /
  DELETE find their rows through (index/range/IN scans, filters, hash
  and nested-loop joins, grouping, sorting, limits),
- :mod:`repro.rdb.database` — the logical-layer facade with DDL/DML
  and constraint enforcement over a pluggable engine,
- :mod:`repro.rdb.connection` — connections, cursors and a pool.
"""

from repro.rdb.connection import Connection, ConnectionPool, Cursor
from repro.rdb.database import Database
from repro.rdb.planner import PlannerFeatures
from repro.rdb.engine import (
    CommitEvent,
    CommitStream,
    DurableEngine,
    MemoryEngine,
    StorageEngine,
)
from repro.rdb.replication import (
    ReplicaEngine,
    ReplicationClient,
    ReplicationServer,
    open_replica,
)
from repro.rdb.schema import Column, ForeignKey, Index, TableSchema
from repro.rdb.statistics import ColumnStatistics, TableStatistics
from repro.rdb.types import (
    BooleanType,
    DateType,
    FloatType,
    IntegerType,
    SqlType,
    TextType,
    VarcharType,
    type_from_name,
)

__all__ = [
    "Database",
    "PlannerFeatures",
    "StorageEngine",
    "MemoryEngine",
    "DurableEngine",
    "CommitEvent",
    "CommitStream",
    "ReplicaEngine",
    "ReplicationClient",
    "ReplicationServer",
    "open_replica",
    "Connection",
    "Cursor",
    "ConnectionPool",
    "TableSchema",
    "Column",
    "ForeignKey",
    "Index",
    "TableStatistics",
    "ColumnStatistics",
    "SqlType",
    "IntegerType",
    "FloatType",
    "VarcharType",
    "TextType",
    "BooleanType",
    "DateType",
    "type_from_name",
]
