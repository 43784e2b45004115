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
    ``get(key)``, ``put(key, bean, entities, roles, policy)`` and
    ``invalidate_writes(entities, roles)``.
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
        #: table → ``(entities, roles)`` a commit touching it changes;
        #: deployment data, set from
        #: :meth:`repro.er.mapping.RelationalMapping.table_write_sets`
        #: by :class:`~repro.app.WebApplication`.  An unmapped table
        #: stands for an entity of its own name.
        self.table_write_sets: dict[str, tuple[tuple, tuple]] = {}
        self.commit_invalidations = 0
        self.database.commit_stream.subscribe(self._on_commit_event)
        if bean_cache is not None:
            self.invalidation_bus.register("bean", bean_cache)
            self._register_cache_collector("bean", bean_cache)

    def register_cache_level(self, name: str, cache) -> None:
        """Attach another cache level (fragment, page) to the bus."""
        self.invalidation_bus.register(name, cache)
        self._register_cache_collector(name, cache)

    def _register_cache_collector(self, name: str, cache) -> None:
        """Surface a cache level's own counters in the unified registry
        (polled at snapshot time — the hot path pays nothing extra)."""
        stats = getattr(cache, "stats", None)
        if stats is not None and hasattr(stats, "to_dict"):
            self.obs.metrics.register_collector(f"cache.{name}", stats.to_dict)

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
        commit's write set is the union of :attr:`table_write_sets` over
        the tables whose rows it changed; schema and statistics records
        change no row a unit shows and publish nothing.
        """
        if event.bootstrap:
            # A replica installed a whole snapshot: no per-entity write
            # set exists, so every cache level flushes outright.
            self.commit_invalidations += 1
            self.invalidation_bus.flush()
            return
        tables = {op[1] for op in event.ops if op[0] in _ROW_OPCODES}
        if not tables:
            return
        entities: set[str] = set()
        roles: set[str] = set()
        for table in tables:
            written = self.table_write_sets.get(table, ((table,), ()))
            entities.update(written[0])
            roles.update(written[1])
        self.commit_invalidations += 1
        self.invalidation_bus.invalidate_writes(sorted(entities), sorted(roles))

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
            self.stats.increment("queries_executed")
            self.stats.increment("batched_queries")
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
