"""The engine facade.

:class:`Database` owns every table, executes statements (parsed or raw
SQL), enforces foreign keys, caches SELECT plans and the match scans
of UPDATE / DELETE, and keeps execution statistics.  The statistics
matter to the reproduction: experiment E5 counts the *data-extraction
queries actually executed* to show what the unit-bean cache spares
(paper §6).
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.errors import IntegrityError, QueryError, SchemaError
from repro.rdb.engine import DurableEngine, MemoryEngine, StorageEngine
from repro.rdb.executor import ResultSet, RowScope
from repro.rdb.planner import DmlPlan, PlannerFeatures, SelectPlan
from repro.rdb.schema import ForeignKey, TableSchema
from repro.rdb.sqlparser import (
    Analyze,
    CreateIndex,
    CreateTable,
    Delete,
    DropTable,
    Insert,
    Select,
    Statement,
    Update,
    parse_sql,
)
from repro.obs.slowlog import SlowQueryLog
from repro.obs.trace import current_span_var
from repro.rdb.statistics import TableStatistics, collect_statistics
from repro.rdb.storage import TableStore
from repro.rdb.wal import (
    OP_ANALYZE,
    OP_CREATE_INDEX,
    OP_CREATE_TABLE,
    OP_DROP_TABLE,
)
from repro.util.concurrency import AtomicCounters, ReadWriteLock

#: plans the cache keeps, least recently used out first — a bound for
#: callers that format values into SQL text, a statement per value
PLAN_CACHE_CAP = 1024

#: sentinel returned by :func:`_ddl_tables` when a replicated ANALYZE
#: covered every table — the plan cache must be cleared wholesale
ALL_TABLES = object()


def _ddl_tables(ops) -> "set[str] | object":
    """The tables whose cached plans a replicated record invalidates."""
    tables: set[str] = set()
    for op in ops:
        opcode = op[0]
        if opcode == OP_CREATE_TABLE:
            tables.add(op[1].name)
        elif opcode in (OP_CREATE_INDEX, OP_DROP_TABLE):
            tables.add(op[1])
        elif opcode == OP_ANALYZE:
            if op[1] is None:
                return ALL_TABLES
            tables.add(op[1])
    return tables


@dataclass
class DatabaseStats(AtomicCounters):
    """Cumulative statement counters (resettable).

    SELECT counters are bumped through :meth:`AtomicCounters.increment`
    because reads run concurrently; write counters are serialized by the
    database's write lock."""

    selects: int = 0
    #: selects served by a compiled (or mixed) plan vs the interpreter
    selects_compiled: int = 0
    selects_interpreted: int = 0
    #: selects whose scan took the columnar access path (a subset of
    #: neither of the above: the three buckets partition ``selects``)
    selects_columnar: int = 0
    #: selects whose SQL text hit the plan cache before parsing
    prepared_reuse: int = 0
    #: cached plans dropped to keep the plan cache at its cap
    plan_evictions: int = 0
    inserts: int = 0
    updates: int = 0
    deletes: int = 0
    ddl: int = 0
    analyzes: int = 0
    #: rows SELECTs returned / read (``Operator.scanned``, summed)
    rows_read: int = 0
    rows_scanned: int = 0
    per_table_writes: dict = field(default_factory=dict)

    def reset(self) -> None:
        self.__init__()  # every counter back to its declared default

    def count_select(self, plan: SelectPlan, returned: int,
                     reused: bool) -> None:
        """One executed SELECT, under one lock acquisition; ``reused``
        when its SQL text found the plan cache before parsing."""
        mode = plan.exec_mode
        with self._counter_lock:
            self.selects += 1
            if reused:
                self.prepared_reuse += 1
            if mode == "interpreted":
                self.selects_interpreted += 1
            elif mode == "columnar":
                self.selects_columnar += 1
            else:
                self.selects_compiled += 1
            self.rows_read += returned
            for op in plan.operators:
                self.rows_scanned += op.scanned

    def record_write(self, table: str) -> None:
        self.per_table_writes[table] = self.per_table_writes.get(table, 0) + 1


class Database:
    """A relational database over a pluggable storage engine.

    The logical layer (this class: parsing, planning, compiled
    execution, constraint enforcement) is separated from storage: a
    :class:`~repro.rdb.engine.StorageEngine` owns the tables, indexes,
    and transactions.  The default :class:`~repro.rdb.engine.MemoryEngine`
    reproduces the seed's purely in-memory behaviour; ``Database.open``
    builds a :class:`~repro.rdb.engine.DurableEngine` with write-ahead
    logging, snapshots, and crash recovery.

    Thread safety: a readers-writer lock lets data-extraction queries
    (SELECT) run concurrently while DML, DDL, and undo-log transactions
    hold the write side alone.  A transaction holds the write lock from
    ``begin`` until ``commit``/``rollback``, so its intermediate states
    are invisible to readers.  ``last_insert_id`` is thread-local.
    """

    def __init__(self, name: str = "main",
                 engine: StorageEngine | None = None):
        self.name = name
        self.engine = engine if engine is not None else MemoryEngine()
        self.stats = DatabaseStats()
        self._plan_cache: OrderedDict[str, SelectPlan | DmlPlan] = \
            OrderedDict()
        self._plan_lock = threading.Lock()
        #: bumped whenever cached plans are invalidated (never for LRU
        #: eviction: an evicted plan is still a valid plan), so a plan
        #: found by a probe outside the read lock is known current
        #: under it without a second probe
        self._plan_generation = 0
        self._rwlock = ReadWriteLock()
        #: signalled whenever the engine's LSN advances by replication
        #: apply; :meth:`wait_for_lsn` blocks on it (LSN wait tokens)
        self._lsn_cond = threading.Condition()
        self._exec_local = threading.local()
        #: simulated network/disk round-trip per statement.  The paper's
        #: data tier is a separate machine; sleeping here (outside the
        #: locks) is what worker threads overlap, the way real threads
        #: overlap JDBC waits.  Benchmarks set it; it defaults to off.
        self.io_delay: float = 0.0
        #: statements over the threshold land here with their chosen
        #: access path; always present, cheap until something is slow
        self.slow_log = SlowQueryLog()
        #: the application's Observability root, bound by the runtime
        #: context; None keeps every metrics site a no-op
        self.obs = None
        self._stmt_histogram = None
        self._compile_histogram = None
        #: query-compilation accounting (repro.rdb.compile): plans by
        #: mode, interpreter fallbacks inside compiled plans, and total
        #: time spent generating code.  Written under no lock — same
        #: tolerance as every other observability counter.
        self._compile_stats = {
            "plans_compiled": 0,
            "plans_interpreted": 0,
            "plans_columnar": 0,
            "expr_fallbacks": 0,
            "compile_seconds_total": 0.0,
        }

    # -- storage-engine boundary -------------------------------------------

    @property
    def tables(self) -> dict[str, TableStore]:
        """The engine's table registry (the planner reads it directly)."""
        return self.engine.tables

    @property
    def commit_stream(self):
        """The engine's commit stream — subscribe for invalidation or
        (eventually) replication."""
        return self.engine.commit_stream

    @classmethod
    def open(cls, path: str, name: str = "main",
             group_commit_window: float = 0.0,
             checkpoint_bytes: int | None = None) -> "Database":
        """Open (or create) a durable database under directory ``path``.

        Construction recovers: the latest snapshot is loaded and the
        committed WAL suffix replayed, so the returned database holds
        exactly the state of the longest committed prefix on disk.
        """
        return cls(name=name, engine=DurableEngine(
            path, group_commit_window=group_commit_window,
            checkpoint_bytes=checkpoint_bytes,
        ))

    def close(self) -> None:
        """Flush and close the storage engine.  Idempotent: closing an
        already-closed database is a no-op, so shutdown paths can call
        it unconditionally."""
        self.engine.close()

    @property
    def closed(self) -> bool:
        return self.engine.closed

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def checkpoint(self) -> int:
        """Snapshot + WAL truncation on a durable engine (no-op size 0
        on the in-memory engine)."""
        checkpoint = getattr(self.engine, "checkpoint", None)
        if checkpoint is None:
            return 0
        with self._rwlock.write_locked():
            return checkpoint()

    def storage_stats(self) -> dict:
        """Engine-level durability counters for ``/_status``."""
        return self.engine.observability_stats()

    @contextlib.contextmanager
    def _write_scope(self):
        """Write lock + engine commit scope for one top-level write.

        The commit event (if the scope committed — i.e. outside an
        explicit transaction) is published *after* the write lock is
        released, so invalidation subscribers never run on the engine's
        critical section.
        """
        self._rwlock.acquire_write()
        event = None
        try:
            with self.engine.statement_scope() as scope:
                yield
            event = scope.event
        finally:
            self._rwlock.release_write()
        if event is not None:
            self.engine.commit_stream.publish(event)

    def bind_observability(self, obs) -> None:
        """Attach the application's metrics registry (the statement
        histogram is cached here so the hot path never consults the
        registry dictionary)."""
        self.obs = obs
        self._stmt_histogram = obs.metrics.histogram("rdb.statement_seconds")
        self._compile_histogram = obs.metrics.histogram("rdb.compile_seconds")
        self.engine.bind_observability(obs)

    def observability_stats(self) -> dict:
        """Statement counters plus slow-log summary for ``/_status``."""
        compile_stats = self._compile_stats
        return {
            "selects": self.stats.selects,
            "selects_compiled": self.stats.selects_compiled,
            "selects_interpreted": self.stats.selects_interpreted,
            "selects_columnar": self.stats.selects_columnar,
            "prepared_reuse": self.stats.prepared_reuse,
            "inserts": self.stats.inserts,
            "updates": self.stats.updates,
            "deletes": self.stats.deletes,
            "rows_read": self.stats.rows_read,
            "rows_scanned": self.stats.rows_scanned,
            "plan_cache_size": len(self._plan_cache),
            "plan_cache_cap": PLAN_CACHE_CAP,
            "plan_evictions": self.stats.plan_evictions,
            "plans_compiled": compile_stats["plans_compiled"],
            "plans_interpreted": compile_stats["plans_interpreted"],
            "plans_columnar": compile_stats["plans_columnar"],
            "compile_fallback_exprs": compile_stats["expr_fallbacks"],
            "compile_ms_total": round(
                compile_stats["compile_seconds_total"] * 1000.0, 3
            ),
            "columnar": self._columnar_stats(),
            "slow_queries": self.slow_log.stats(),
        }

    def _columnar_stats(self) -> dict:
        """Column-store health across tables, for ``/_status``: how many
        stores are materialized, scan/batch volume, the dictionary
        encoding hit ratio, and the current/worst column-sync lag."""
        totals = {
            "tables_built": 0,
            "scans": 0,
            "batches_scanned": 0,
            "rebuilds": 0,
            "dropped_rebuilds": 0,
            "synced_ops": 0,
            "pending_ops": 0,
            "max_pending": 0,
            "dict_columns": 0,
            "gram_columns": 0,
            "gram_postings": 0,
            "gram_builds": 0,
            "gram_probes": 0,
            "gram_candidates": 0,
        }
        dict_hits = dict_misses = 0
        for store in list(self.tables.values()):
            snapshot = store.column_store.stats()
            totals["tables_built"] += 1 if snapshot["built"] else 0
            totals["scans"] += snapshot["scans"]
            totals["batches_scanned"] += snapshot["batches_scanned"]
            totals["rebuilds"] += snapshot["builds"] + snapshot["rebuilds"]
            totals["dropped_rebuilds"] += snapshot["dropped_rebuilds"]
            totals["synced_ops"] += snapshot["synced_ops"]
            totals["pending_ops"] += snapshot["pending_ops"]
            totals["max_pending"] = max(
                totals["max_pending"], snapshot["max_pending"]
            )
            totals["dict_columns"] += snapshot["dict_columns"]
            for key in ("gram_columns", "gram_postings", "gram_builds",
                        "gram_probes", "gram_candidates"):
                totals[key] += snapshot[key]
            dict_hits += snapshot["dict_hits"]
            dict_misses += snapshot["dict_misses"]
        encoded = dict_hits + dict_misses
        totals["dict_hit_ratio"] = (
            round(dict_hits / encoded, 4) if encoded else None
        )
        return totals

    def _note_plan_built(self, plan: SelectPlan) -> SelectPlan:
        """Record one plan construction in the compile accounting."""
        stats = self._compile_stats
        if plan.exec_mode == "interpreted":
            stats["plans_interpreted"] += 1
        else:
            if plan.exec_mode == "columnar":
                stats["plans_columnar"] += 1
            stats["plans_compiled"] += 1
            stats["compile_seconds_total"] += plan.compile_seconds
            if plan.compile_stats is not None:
                stats["expr_fallbacks"] += plan.compile_stats["interpreted"]
            if self._compile_histogram is not None:
                obs = self.obs
                if obs is not None and obs.enabled:
                    self._compile_histogram.record(plan.compile_seconds)
        return plan

    def _observe_statement(self, kind: str, started: float, sql: str,
                           plan: SelectPlan | None = None,
                           rows: int | None = None) -> None:
        """Per-statement observability: histogram, trace span, slow log.

        Costs two clock reads plus one early-out comparison when no
        trace is active and the statement was fast."""
        duration = time.perf_counter() - started
        obs = self.obs
        if obs is not None and obs.enabled:
            self._stmt_histogram.record(duration)
        parent = current_span_var.get()
        slow = duration >= self.slow_log.threshold_seconds
        if parent is None and not slow:
            return
        access = plan.access_summary() if plan is not None else None
        mode = plan.exec_mode if plan is not None else None
        if parent is not None:
            tags: dict = {"kind": kind}
            if access is not None:
                tags["access"] = access
            if mode is not None:
                tags["mode"] = mode
            if rows is not None:
                tags["rows"] = rows
            parent.attach(f"rdb.{kind}", "rdb", started, duration, tags)
        if slow:
            self.slow_log.observe(sql, duration, access=access, mode=mode)

    # -- per-thread execution state ---------------------------------------------

    @property
    def last_insert_id(self) -> int | None:
        """The auto-increment id of the current *thread's* last insert."""
        return getattr(self._exec_local, "last_insert_id", None)

    @last_insert_id.setter
    def last_insert_id(self, value: int | None) -> None:
        self._exec_local.last_insert_id = value

    # -- transactions -----------------------------------------------------------
    # A single-level undo-log transaction (the autocommit JDBC world the
    # generated services target, plus explicit atomicity for operations).
    # DDL is not transactional; auto-increment counters do not roll back
    # (like real sequences).  The transaction owns the write lock for its
    # whole extent, so concurrent readers either see none or all of it.

    def begin(self) -> None:
        self._rwlock.acquire_write()
        try:
            self.engine.begin()
        except BaseException:
            self._rwlock.release_write()
            raise

    def _require_transaction_owner(self, verb: str) -> None:
        if not self._rwlock.write_held_by_current_thread():
            raise QueryError(
                f"cannot {verb}: the transaction belongs to another thread"
            )

    def commit(self) -> None:
        if not self.engine.in_transaction:
            raise QueryError("no active transaction to commit")
        self._require_transaction_owner("commit")
        try:
            event = self.engine.commit()
        finally:
            self._rwlock.release_write()
        if event is not None:
            self.engine.commit_stream.publish(event)

    def rollback(self) -> None:
        if not self.engine.in_transaction:
            raise QueryError("no active transaction to roll back")
        self._require_transaction_owner("roll back")
        try:
            # DDL is not transactional: the engine undoes the DML but
            # commits any schema changes as their own record.
            event = self.engine.rollback()
        finally:
            self._rwlock.release_write()
        if event is not None:
            self.engine.commit_stream.publish(event)

    @contextlib.contextmanager
    def transaction(self):
        """``with db.transaction(): ...`` — commit on success, roll back
        on any exception."""
        self.begin()
        try:
            yield self
        except BaseException:
            self.rollback()
            raise
        else:
            self.commit()

    # -- schema ---------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> TableStore:
        with self._write_scope():
            if schema.name in self.tables:
                raise SchemaError(f"table {schema.name!r} already exists")
            for fkey in schema.foreign_keys:
                self._check_fk_target(schema.name, fkey)
            store = TableStore(schema)
            store.link_foreign_keys(self.tables)
            self.tables[schema.name] = store
            self.engine.note_create_table(schema)
            # No plan invalidation: a plan referencing an unknown table
            # never compiled, so no cached plan can involve a new table.
            return store

    def _check_fk_target(self, table: str, fkey: ForeignKey) -> None:
        # Self-references are resolved against the schema being created,
        # which the caller has already validated column-wise.
        if fkey.target_table == table:
            return
        target = self.tables.get(fkey.target_table)
        if target is None:
            raise SchemaError(
                f"foreign key of {table!r} references unknown table "
                f"{fkey.target_table!r}"
            )
        for column in fkey.target_columns:
            if not target.schema.has_column(column):
                raise SchemaError(
                    f"foreign key of {table!r} references unknown column "
                    f"{fkey.target_table}.{column}"
                )

    def drop_table(self, name: str, if_exists: bool = False) -> None:
        with self._write_scope():
            if name not in self.tables:
                if if_exists:
                    return
                raise SchemaError(f"no table {name!r} to drop")
            for other_name, other in self.tables.items():
                if other_name == name:
                    continue
                for fkey in other.schema.foreign_keys:
                    if fkey.target_table == name:
                        raise SchemaError(
                            f"cannot drop {name!r}: referenced by {other_name!r}"
                        )
            del self.tables[name]
            self.engine.note_drop_table(name)
            self._invalidate_plans({name})

    def table(self, name: str) -> TableStore:
        store = self.tables.get(name)
        if store is None:
            raise SchemaError(f"unknown table {name!r}")
        return store

    # -- statement execution -----------------------------------------------------

    def execute(self, sql: str | Statement, params: dict | None = None):
        """Execute SQL text or a pre-parsed statement.

        Returns a :class:`ResultSet` for SELECT, the affected row count
        for DML, and ``None`` for DDL.

        Prepared-statement reuse: SQL text already in the plan cache
        skips the parse entirely.  A cached :class:`SelectPlan` is a
        ready (compiled) SELECT — repeated unit-descriptor queries pay
        one dict probe before execution; a cached :class:`DmlPlan`
        carries its parsed UPDATE / DELETE.
        """
        statement, generation = sql, -1
        if isinstance(sql, str):
            generation = self._plan_generation
            cached = self._cached_plan(sql)
            if isinstance(cached, SelectPlan):
                return self._execute_select(None, sql, params,
                                            cached, generation)
            statement = cached.statement if cached else parse_sql(sql)
        if isinstance(statement, Select):
            return self._execute_select(
                statement, sql if isinstance(sql, str) else None, params,
                generation=generation,
            )
        kind = type(statement).__name__.lower()
        sql_text = sql if isinstance(sql, str) else kind
        started = time.perf_counter()  # spans include the simulated wire
        if self.io_delay:
            time.sleep(self.io_delay)  # the wire, not the engine: no lock held
        dml = None
        try:
            with self._write_scope():
                if isinstance(statement, Insert):
                    return self._execute_insert(statement, params or {})
                if isinstance(statement, (Update, Delete)):
                    dml = self._dml_plan(
                        statement, sql if isinstance(sql, str) else None
                    )
                    row_ids = dml.row_ids(params or {})
                    if isinstance(statement, Update):
                        return self._execute_update(
                            statement, row_ids, params or {}
                        )
                    return self._execute_delete(statement, row_ids)
                if isinstance(statement, CreateTable):
                    self.create_table(statement.schema)
                    self.stats.ddl += 1
                    return None
                if isinstance(statement, CreateIndex):
                    self.table(statement.table).add_index(statement.index)
                    self.engine.note_create_index(
                        statement.table, statement.index
                    )
                    self.stats.ddl += 1
                    self._invalidate_plans({statement.table})
                    return None
                if isinstance(statement, DropTable):
                    self.drop_table(statement.table, statement.if_exists)
                    self.stats.ddl += 1
                    return None
                if isinstance(statement, Analyze):
                    self._analyze_locked(statement.table)
                    return None
        finally:
            self._observe_statement(
                kind, started, sql_text, plan=dml.match if dml else None
            )
        raise QueryError(f"unsupported statement {statement!r}")

    def query(self, sql: str, params: dict | None = None) -> ResultSet:
        """Execute a statement that must be a SELECT."""
        result = self.execute(sql, params)
        if not isinstance(result, ResultSet):
            raise QueryError(f"expected a SELECT: {sql!r}")
        return result

    def _execute_select(self, statement: Select | None, cache_key: str | None,
                        params: dict | None, cached: SelectPlan | None = None,
                        generation: int = -1) -> ResultSet:
        """Execute a SELECT.  ``statement`` may be ``None`` when
        ``cache_key`` is the raw SQL text (the prepared-statement fast
        path).  A caller that probed the cache before the read lock
        passes what it found as ``cached`` and the plan-cache
        ``generation`` it probed at: that plan runs only if no plan was
        invalidated since; otherwise the cache is probed under the read
        lock and a miss re-parses the text, so a stale hint can cost a
        parse but never a wrong or poisoned plan."""
        started = time.perf_counter()  # spans include the simulated wire
        if self.io_delay:
            time.sleep(self.io_delay)  # the wire, not the engine: no lock held
        rwlock = self._rwlock
        rwlock.acquire_read()
        try:
            plan = cached if cached is not None \
                and generation == self._plan_generation \
                else self._plan(statement, cache_key)
            result = plan.execute(params)
        finally:
            rwlock.release_read()
        self.stats.count_select(plan, len(result), statement is None)
        self._observe_statement(
            "select", started,
            cache_key or f"<select on {','.join(sorted(plan.tables))}>",
            plan=plan, rows=len(result),
        )
        return result

    def query_statement(self, select: Select, params: dict | None = None,
                        cache_key: str | None = None) -> ResultSet:
        """Execute a pre-built SELECT AST, optionally caching its plan
        under an explicit key (the service tier's batch loader rewrites
        descriptor queries into ``IN``-list ASTs and reuses their plans
        across requests)."""
        return self._execute_select(select, cache_key, params)

    def _cached_plan(self, cache_key: str):
        """The plan cached under ``cache_key`` (now the most recently
        used), or None."""
        with self._plan_lock:
            cached = self._plan_cache.get(cache_key)
            if cached is not None:
                self._plan_cache.move_to_end(cache_key)
            return cached

    def _cache_plan(self, cache_key: str, plan):
        """Cache ``plan``; returns the entry that stands (concurrent
        planners of one statement share the first plan in)."""
        with self._plan_lock:
            plan = self._plan_cache.setdefault(cache_key, plan)
            while len(self._plan_cache) > PLAN_CACHE_CAP:
                self._plan_cache.popitem(last=False)
                self.stats.plan_evictions += 1
        return plan

    def _plan(self, select: Select | None, cache_key: str | None) -> SelectPlan:
        if cache_key is not None:
            cached = self._cached_plan(cache_key)
            if cached is not None:
                return cached
        if select is None:
            # Fast-path cache miss: the caller skipped parsing on the
            # strength of a cache probe that has since been invalidated.
            statement = parse_sql(cache_key)
            if not isinstance(statement, Select):
                raise QueryError(f"expected a SELECT: {cache_key!r}")
            select = statement
        plan = self._note_plan_built(SelectPlan(select, self.tables))
        if cache_key is not None:
            plan = self._cache_plan(cache_key, plan)
        return plan

    def _dml_plan(self, statement: Update | Delete,
                  cache_key: str | None) -> DmlPlan:
        """The cached (or freshly planned) match scan of an UPDATE /
        DELETE.  Looked up under the write lock on the execute path, so
        DDL cannot swap a table out from under the plan it returns."""
        if cache_key is not None:
            cached = self._cached_plan(cache_key)
            if cached is not None:
                return cached
        self.table(statement.table)  # unknown table: SchemaError, as ever
        plan = DmlPlan(statement, self.tables)
        self._note_plan_built(plan.match)
        if cache_key is not None:
            plan = self._cache_plan(cache_key, plan)
        return plan

    def _invalidate_plans(self, tables: set[str]) -> None:
        """Drop cached plans that read any of ``tables`` — the scoped
        replacement for wholesale cache clearing, so DDL or ANALYZE on
        one table leaves every other table's compiled plans warm."""
        with self._plan_lock:
            stale = [
                key for key, plan in self._plan_cache.items()
                if plan.tables & tables
            ]
            for key in stale:
                del self._plan_cache[key]
            self._plan_generation += 1

    def _clear_plans(self) -> None:
        with self._plan_lock:
            self._plan_cache.clear()
            self._plan_generation += 1

    def cached_plan_count(self) -> int:
        with self._plan_lock:
            return len(self._plan_cache)

    # -- replication ----------------------------------------------------------
    # The replica half of WAL shipping (repro.rdb.replication): shipped
    # records and bootstrap snapshots enter the database here, under the
    # same write lock and publish-after-release discipline as local
    # writes, so readers and cache invalidation see replicated commits
    # exactly the way the primary's own readers see local ones.

    @property
    def last_lsn(self) -> int:
        """The engine's last committed (or last applied) LSN.

        On a primary this is the *write token* a router hands to the
        client after a write; on a replica, the replay position a wait
        token is compared against."""
        return self.engine.last_lsn

    def apply_replicated(self, record) -> "CommitEvent | None":
        """Apply one shipped commit record to a replica database.

        Returns the published :class:`~repro.rdb.engine.CommitEvent`,
        or ``None`` when the record was a duplicate (normal after a
        reconnect — shipping is at-least-once, application is
        idempotent).  DDL the record carries invalidates the affected
        cached plans, the same scoping local DDL gets.
        """
        self._rwlock.acquire_write()
        try:
            event = self.engine.apply_commit_record(record)
            if event is not None:
                ddl_tables = _ddl_tables(record.ops)
                if ddl_tables is ALL_TABLES:
                    self._clear_plans()
                elif ddl_tables:
                    self._invalidate_plans(ddl_tables)
        finally:
            self._rwlock.release_write()
        if event is not None:
            self.engine.commit_stream.publish(event)
            with self._lsn_cond:
                self._lsn_cond.notify_all()
        return event

    def install_replica_state(self, lsn: int, tables: dict) -> None:
        """Replace a replica's whole state with a bootstrap snapshot.

        Every cached plan is dropped (they hold references to the old
        table stores) and a ``bootstrap`` commit event is published so
        every cache level flushes rather than invalidating per entity.
        """
        self._rwlock.acquire_write()
        try:
            event = self.engine.install_tables(lsn, tables)
            self._clear_plans()
        finally:
            self._rwlock.release_write()
        self.engine.commit_stream.publish(event)
        with self._lsn_cond:
            self._lsn_cond.notify_all()

    def wait_for_lsn(self, lsn: int, timeout: float = 5.0) -> bool:
        """Block until ``last_lsn >= lsn``; the read side of an LSN wait
        token.  True on success, False on timeout (the caller decides —
        the fleet's replica gate answers 503 rather than serve a read
        older than the client's own write)."""
        deadline = time.monotonic() + timeout
        with self._lsn_cond:
            while self.engine.last_lsn < lsn:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._lsn_cond.wait(remaining)
        return True

    def explain(self, sql: str, params: dict | None = None,
                analyze: bool = False) -> str:
        """EXPLAIN-style plan text for a SELECT (debugging aid for the
        §6 descriptor-query tuning workflow); the cost-based plan comes
        annotated with estimated rows/cost per operator.  An UPDATE or
        DELETE prints the scan that finds its rows — the plan the
        statement executes with, cached under its text.

        ``analyze=True`` executes the plan first (with ``params``) and
        annotates each operator with its actual row count and q-error —
        the misestimate-debugging view (see docs/OBSERVABILITY.md).  For
        an UPDATE / DELETE only the match scan runs: the rows the
        statement *would* touch are counted, nothing is written."""
        statement = parse_sql(sql)
        if isinstance(statement, (Update, Delete)):
            plan = self._dml_plan(statement, sql).match
        else:
            plan = self.prepare(sql)
        if analyze:
            with self._rwlock.read_locked():
                plan.execute(params)
        return plan.explain(analyze=analyze)

    def prepare(self, sql: str, mode: str | None = None,
                features: PlannerFeatures | None = None) -> SelectPlan:
        """Plan and lower a SELECT once for repeated execution (generic
        services).  ``mode`` is the one execution knob
        (:data:`repro.rdb.planner.MODES`; DESIGN.md §8 has the table):
        ``None`` is the cost-based plan in generated code, the columnar
        scan priced beside the other access paths — the only mode served
        from the plan cache; ``"columnar"`` takes it wherever a join-free
        plan would walk the heap and ``"compiled"`` never offers it;
        ``"interpreted"`` lowers the same cost-based plan to closures
        over ``Expr.evaluate`` (E17's baseline for the generated code
        alone) and ``"seed"`` does so for the planner with join reorder,
        access paths and pushdown off, sorting every row in full (E14's
        before/after baseline; it takes ``SEED_FEATURES`` in place of
        ``features``).  Operators cannot tell the modes apart; only what
        fills their expression slots differs.  ``features`` switches
        individual planner decisions off (always uncached) — the
        plan-space scanner's probe surface."""
        statement = parse_sql(sql)
        if not isinstance(statement, Select):
            raise QueryError(f"prepare() only accepts SELECT: {sql!r}")
        if mode is None and features is None:  # the cached plan
            return self._plan(statement, sql)
        return self._note_plan_built(SelectPlan(
            statement, self.tables, mode=mode, features=features,
        ))

    # -- statistics -----------------------------------------------------------

    def analyze(self, table: str | None = None) -> None:
        """Collect planner statistics for ``table`` (or every table),
        then invalidate the cached plans that read the analyzed tables
        so they re-plan against the fresh distributions."""
        with self._write_scope():
            self._analyze_locked(table)

    def _analyze_locked(self, table: str | None) -> None:
        targets = [self.table(table)] if table is not None else list(
            self.tables.values()
        )
        analyzed: set[str] = set()
        for store in targets:
            store.statistics = collect_statistics(store)
            analyzed.add(store.schema.name)
        self.engine.note_analyze(table)
        self.stats.analyzes += 1
        self._invalidate_plans(analyzed)

    def statistics_for(self, table: str) -> TableStatistics | None:
        return self.table(table).statistics

    # -- DML -----------------------------------------------------------------------

    def insert_row(self, table: str, values: dict) -> dict:
        """Insert one row given a column→value mapping; returns the stored
        row (with auto-increment/default values filled in)."""
        with self._write_scope():
            store = self.table(table)
            row = store.prepare_row(values)
            self._check_foreign_keys_outgoing(store, row)
            row_id = store.insert_prepared(row)
            self.engine.note_insert(table, row_id, row)
            self.stats.inserts += 1
            self.stats.record_write(table)
            auto = next(
                (c.name for c in store.schema.columns if c.auto_increment), None
            )
            self.last_insert_id = row[auto] if auto else None
            return dict(row)

    def _execute_insert(self, statement: Insert, params: dict) -> int:
        scope = RowScope({}, {})
        count = 0
        for value_exprs in statement.rows:
            values = {
                column: expr.evaluate(scope, params)
                for column, expr in zip(statement.columns, value_exprs)
            }
            self.insert_row(statement.table, values)
            count += 1
        return count

    def _execute_update(self, statement: Update, row_ids: list[int],
                        params: dict) -> int:
        store = self.table(statement.table)
        columns = {store.schema.name: store.schema.column_names}
        for row_id in row_ids:
            row = store.rows[row_id]
            scope = RowScope({store.schema.name: row}, columns)
            changes = {
                column: expr.evaluate(scope, params)
                for column, expr in statement.assignments
            }
            old = dict(row)
            new = store.update_row(row_id, changes)
            try:
                self._check_foreign_keys_outgoing(store, new)
                self._check_referencing_after_update(store, old, new)
            except IntegrityError:
                store.force_row(row_id, old)  # roll the row back
                raise
            self.engine.note_update(statement.table, row_id, old, new)
            self.stats.record_write(statement.table)
        self.stats.updates += 1
        return len(row_ids)

    def _execute_delete(self, statement: Delete, row_ids: list[int]) -> int:
        store = self.table(statement.table)
        for row_id in row_ids:
            if row_id in store.rows:  # cascades may have removed it already
                self._delete_with_actions(statement.table, row_id)
        self.stats.deletes += 1
        return len(row_ids)

    def _delete_with_actions(self, table: str, row_id: int) -> None:
        store = self.table(table)
        row = store.rows[row_id]
        for other_name, other in list(self.tables.items()):
            for fkey in other.schema.foreign_keys:
                if fkey.target_table != table:
                    continue
                key = tuple(row[c] for c in fkey.target_columns)
                if any(v is None for v in key):
                    continue
                referencing = other.find_by_key(fkey.columns, key)
                if not referencing:
                    continue
                if fkey.on_delete == "restrict":
                    raise IntegrityError(
                        f"cannot delete from {table!r}: row referenced by "
                        f"{other_name}({', '.join(fkey.columns)})"
                    )
                if fkey.on_delete == "cascade":
                    for ref_id in referencing:
                        if ref_id in other.rows:
                            self._delete_with_actions(other_name, ref_id)
                else:  # set_null
                    for ref_id in referencing:
                        if ref_id in other.rows:
                            previous = dict(other.rows[ref_id])
                            nulled = other.update_row(
                                ref_id, {c: None for c in fkey.columns}
                            )
                            self.engine.note_update(other_name, ref_id,
                                                    previous, nulled)
                            self.stats.record_write(other_name)
        self.engine.note_delete(table, row_id, dict(row))
        store.delete_row(row_id)
        self.stats.record_write(table)

    # -- foreign keys ---------------------------------------------------------------

    def _check_foreign_keys_outgoing(self, store: TableStore, row: dict) -> None:
        for fkey in store.schema.foreign_keys:
            key = tuple(row[c] for c in fkey.columns)
            if any(v is None for v in key):
                continue  # NULL FK components opt out (SQL MATCH SIMPLE)
            target = self.table(fkey.target_table)
            if not target.find_by_key(fkey.target_columns, key):
                raise IntegrityError(
                    f"foreign key violation: {store.schema.name}"
                    f"({', '.join(fkey.columns)})={key!r} has no match in "
                    f"{fkey.target_table}({', '.join(fkey.target_columns)})"
                )

    def _check_referencing_after_update(
        self, store: TableStore, old: dict, new: dict
    ) -> None:
        """Reject updates that orphan rows referencing the old key values."""
        table = store.schema.name
        for other_name, other in self.tables.items():
            for fkey in other.schema.foreign_keys:
                if fkey.target_table != table:
                    continue
                old_key = tuple(old[c] for c in fkey.target_columns)
                new_key = tuple(new[c] for c in fkey.target_columns)
                if old_key == new_key or any(v is None for v in old_key):
                    continue
                # The old key may still be provided by another row.
                if store.find_by_key(fkey.target_columns, old_key):
                    continue
                if other.find_by_key(fkey.columns, old_key):
                    raise IntegrityError(
                        f"cannot update {table!r}: old key {old_key!r} still "
                        f"referenced by {other_name!r}"
                    )

    # -- convenience -------------------------------------------------------------------

    def row_count(self, table: str) -> int:
        return len(self.table(table))

    def table_names(self) -> list[str]:
        return sorted(self.tables)
