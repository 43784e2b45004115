"""Runtime context and service base classes.

The :class:`RuntimeContext` is what the paper's business tier sees: the
data tier (through pooled connections), the deployed descriptors, the
optional unit-bean cache (§6), custom service overrides (§6), and the
runtime statistics the experiments measure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.descriptors import DescriptorRegistry
from repro.errors import ServiceError
from repro.rdb import ConnectionPool, Database
from repro.rdb.executor import ResultSet
from repro.rdb.wal import OP_DELETE, OP_INSERT, OP_UPDATE
from repro.services.beans import UnitBean
from repro.services.dependencies import key_plan
from repro.util.concurrency import AtomicCounters

#: redo opcodes that change a row (see :class:`repro.rdb.wal.CommitRecord`)
_ROW_OPCODES = frozenset((OP_INSERT, OP_UPDATE, OP_DELETE))


@dataclass
class RuntimeStats(AtomicCounters):
    """Counters the experiments read (E5 counts spared queries here).

    Updated through :meth:`AtomicCounters.increment` — worker threads
    bump them concurrently."""

    pages_computed: int = 0
    units_computed: int = 0
    operations_executed: int = 0
    queries_executed: int = 0
    batched_queries: int = 0
    bean_cache_hits: int = 0
    bean_cache_misses: int = 0

    def reset(self) -> None:
        self.pages_computed = 0
        self.units_computed = 0
        self.operations_executed = 0
        self.queries_executed = 0
        self.batched_queries = 0
        self.bean_cache_hits = 0
        self.bean_cache_misses = 0


class RuntimeContext:
    """Shared runtime wiring for every service.

    ``bean_cache`` is duck-typed (see
    :class:`repro.caching.bean_cache.UnitBeanCache`): it must offer
    ``get_or_compute(key, compute, policy=...)`` and
    ``invalidate_writes(keys)``.
    """

    #: upper bound on waiting for a pooled connection — a safety net
    #: against deadlocked workers, generous enough for real contention.
    POOL_ACQUIRE_TIMEOUT = 30.0

    def __init__(
        self,
        database: Database,
        registry: DescriptorRegistry,
        bean_cache=None,
        pool_size: int = 8,
        obs=None,
    ):
        from repro.caching.bus import InvalidationBus
        from repro.obs import Observability

        self.database = database
        self.registry = registry
        self.bean_cache = bean_cache
        self.pool = ConnectionPool(database, size=pool_size)
        self.stats = RuntimeStats()
        self.custom_services: dict[str, object] = {}
        # One Observability root per application: the data tier and the
        # pool publish into its registry, cache levels and the runtime
        # stats surface through snapshot-time collectors, the front
        # controller serves it all at /_status.
        self.obs = obs or Observability()
        self.database.bind_observability(self.obs)
        self.pool.bind_observability(self.obs)
        self.obs.metrics.register_collector(
            "rdb.database", self.database.observability_stats
        )
        self.obs.metrics.register_collector(
            "services.runtime", self._runtime_stats_snapshot
        )
        self.obs.metrics.register_collector(
            "rdb.storage", self.database.storage_stats
        )
        # §6's write notifications fan out to every cache level through
        # one bus; deeper tiers must be registered first (bean →
        # fragment → page) so a rebuilding request finds clean levels.
        # The commit stream is the bus's only publisher: see
        # :meth:`_on_commit_event`.
        self.invalidation_bus = InvalidationBus()
        #: table → the instance keys a written row of it publishes;
        #: deployment data, set from
        #: :meth:`repro.er.mapping.RelationalMapping.table_keys` by
        #: :class:`~repro.app.WebApplication`.  An unmapped table stands
        #: for a whole name of its own.
        self.table_keys: dict = {}
        #: unit id → (descriptor, :meth:`key_plan`)
        self._key_plans: dict = {}
        self.commit_invalidations = 0
        self.database.commit_stream.subscribe(self._on_commit_event)
        if bean_cache is not None:
            self.invalidation_bus.register("bean", bean_cache)
            self._register_cache_collector("bean", bean_cache)

    def key_plan(self, descriptor) -> tuple:
        """What ``descriptor``'s statements hold (:func:`~repro.services.
        dependencies.key_plan`), read once per deployed version."""
        cached = self._key_plans.get(descriptor.unit_id)
        if cached is None or cached[0] is not descriptor:
            cached = (descriptor, key_plan(descriptor, self.table_keys))
            self._key_plans[descriptor.unit_id] = cached
        return cached[1]

    def register_cache_level(self, name: str, cache) -> None:
        """Attach another cache level (fragment, page) to the bus."""
        self.invalidation_bus.register(name, cache)
        self._register_cache_collector(name, cache)

    def _register_cache_collector(self, name: str, cache) -> None:
        """Surface a cache level's own counters in the unified registry
        (polled at snapshot time — the hot path pays nothing extra)."""
        status = getattr(cache, "status", None)
        if status is not None:
            self.obs.metrics.register_collector(f"cache.{name}", status)

    def _runtime_stats_snapshot(self) -> dict:
        return {
            "pages_computed": self.stats.pages_computed,
            "units_computed": self.stats.units_computed,
            "operations_executed": self.stats.operations_executed,
            "queries_executed": self.stats.queries_executed,
            "batched_queries": self.stats.batched_queries,
            "bean_cache_hits": self.stats.bean_cache_hits,
            "bean_cache_misses": self.stats.bean_cache_misses,
            "commit_invalidations": self.commit_invalidations,
        }

    # -- §6 invalidation ------------------------------------------------------

    def _on_commit_event(self, event) -> None:
        """Translate one committed transaction into one bus call.

        Every write reaches the caches this way — operation services,
        §7 plug-in operations, seed scripts, direct SQL, and a replica
        replaying shipped WAL — so the write set is derived from the
        data change, never declared by the code path that made it.  A
        commit publishes one tuple: the instance keys (:attr:`table_keys`)
        of every row image its redo ops carry, entity and role names in
        one key space — the new row of an insert, the old row of a
        delete, both of an update, so a row that moves between two
        parents drops the pages of both.  An op without its old row
        publishes its table's names whole; a table the mapping does not
        know publishes its own name whole.  Schema and statistics
        records change no row a unit shows and publish nothing.
        """
        if event.bootstrap:
            # A replica installed a whole snapshot: no per-entity write
            # set exists, so every cache level flushes outright.
            self.commit_invalidations += 1
            self.invalidation_bus.flush()
            return
        written: dict = {}  # an ordered set of dependency keys
        for op in event.ops:
            opcode = op[0]
            if opcode not in _ROW_OPCODES:
                continue
            keys = self.table_keys.get(op[1])
            images = op[3:]  # insert: row; update: new, old; delete: old
            if keys is None:
                written[op[1]] = None
            elif len(images) < (2 if opcode == OP_UPDATE else 1):
                written.update(dict.fromkeys(keys.names))
            else:
                for row in images:
                    keys.publish(row, written)
        if not written:
            return
        self.commit_invalidations += 1
        self.invalidation_bus.invalidate_writes(tuple(written))

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Deterministic data-tier shutdown: flush and close the
        storage engine.  Idempotent — safe from any shutdown path."""
        self.database.close()

    # -- data access (the paper's JDBC layer) -------------------------------

    def query(self, sql: str, params: dict) -> ResultSet:
        """Run a data-extraction query through a pooled connection.

        Repeated descriptor queries behave like prepared statements: the
        database keys its plan cache by this SQL text, so every call
        after the first skips parsing *and* planning and runs the cached
        plan's compiled form directly (``Database.stats.prepared_reuse``
        counts these)."""
        connection = self.pool.acquire(timeout=self.POOL_ACQUIRE_TIMEOUT)
        try:
            result = self.database.query(sql, params)
            self.stats.increment("queries_executed")
            return result
        finally:
            connection.close()

    def query_statement(self, select, params: dict,
                        cache_key: str | None = None) -> ResultSet:
        """Run a pre-built SELECT AST (the batch loader's rewritten
        IN-list queries) through a pooled connection."""
        connection = self.pool.acquire(timeout=self.POOL_ACQUIRE_TIMEOUT)
        try:
            result = self.database.query_statement(
                select, params, cache_key=cache_key
            )
            self.stats.increment_each("queries_executed", "batched_queries")
            return result
        finally:
            connection.close()

    def execute(self, sql: str, params: dict) -> int:
        """Run a DML statement; returns affected row count."""
        connection = self.pool.acquire(timeout=self.POOL_ACQUIRE_TIMEOUT)
        try:
            outcome = self.database.execute(sql, params)
            if not isinstance(outcome, int):
                raise ServiceError(f"operation statement was not DML: {sql!r}")
            return outcome
        finally:
            connection.close()

    @property
    def last_insert_id(self) -> int | None:
        return self.database.last_insert_id

    # -- §6 hooks -------------------------------------------------------------

    def register_custom_service(self, name: str, service) -> None:
        """Register a developer-supplied component that overrides a
        generated unit service (descriptor ``customService`` attribute)."""
        self.custom_services[name] = service

    def custom_service(self, name: str):
        try:
            return self.custom_services[name]
        except KeyError:
            raise ServiceError(
                f"descriptor references unknown custom service {name!r}"
            ) from None


class UnitServiceBase:
    """Service contract for one unit *kind* (paper Figure 5's generic
    unit service, instantiated by a descriptor)."""

    kind = "abstract"

    def compute(self, descriptor, inputs: dict, ctx: RuntimeContext) -> UnitBean:
        raise NotImplementedError


class OperationServiceBase:
    """Service contract for one operation kind."""

    kind = "abstract"

    def execute(self, descriptor, inputs: dict, ctx: RuntimeContext, session):
        raise NotImplementedError


def coerce_value(value, value_type: str):
    """Coerce a raw request value according to a descriptor type hint."""
    if value is None or value_type in ("auto", "string"):
        return value
    if value_type == "int":
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        return int(str(value))
    if value_type == "float":
        return float(value) if not isinstance(value, float) else value
    if value_type == "bool":
        if isinstance(value, bool):
            return value
        return str(value).lower() in ("true", "1", "yes", "on")
    raise ServiceError(f"unknown value type {value_type!r}")
