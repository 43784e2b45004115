"""The cache core: what the page, fragment and bean levels share.

§6's cache is one idea — entries indexed by the entities and roles
their unit depends on, dropped automatically by operations — so it is
one mechanism here: :class:`DependencyCache` owns the LRU store, the
per-entry expiry, the entity/role reverse indexes, model-driven
invalidation and the single-flight build protocol.  The three levels
(:mod:`~repro.caching.page_cache`, :mod:`~repro.caching.fragment_cache`,
:mod:`~repro.caching.bean_cache`) subclass it and add only what
differs between them.

Thread safety: every method that touches the store holds the cache
lock; builds run outside it.

The flight protocol (stampede protection, one spelling for every
level and for both the blocking and the detached build):

1. *claim* — the first requester of a missing key registers an event
   under the key and becomes the leader; this is where the miss is
   counted, once per build.  Later requesters find the event, wait on
   it and re-read the cache (counted as a hit plus ``coalesced``)
   instead of stampeding the tier below;
2. *build* — the leader captures the invalidation generation and runs
   the build outside every lock (it usually queries the database or
   renders a page);
3. *store if current* — the result is stored only if the generation is
   unchanged, so a value computed from pre-invalidation data is never
   served after the invalidation;
4. *release* — always, from a ``finally``: the event is removed and
   set, so a failed or abandoned build wakes its followers, and the
   first of them to retry becomes the next leader.

:meth:`DependencyCache.get_or_build` runs the four steps in one call.
A build that cannot run inside one call — the chunk-streamed page,
whose body does not exist until the stream has been written — drives
the same steps itself: :meth:`~DependencyCache.begin_flight`,
:attr:`~DependencyCache.generation`,
:meth:`~DependencyCache.put_if_current`,
:meth:`~DependencyCache.finish_flight`.

Invalidation-ordering invariants (what keeps stale content impossible):

- the :class:`~repro.caching.bus.InvalidationBus` notifies cache
  levels in registration order — bean before fragment before page —
  so when the page level starts rebuilding, the deeper levels it will
  read through are already clean; registering the page cache first
  would let a rebuilding page resurrect stale beans;
- every invalidation bumps the level's *generation*; a write landing
  mid-build therefore makes step 3 discard the finished value — a
  build can never publish data older than the last write it raced
  with;
- ``invalidate_writes`` runs synchronously in the writing request's
  thread, after the DML commits and *before* the operation's redirect
  is produced — so the page the writer is bounced to is rebuilt, and a
  session that just wrote always re-reads its own write (§6's
  consistency requirement).
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.caching.stats import CacheStats
from repro.errors import CacheError
from repro.util import SystemClock


class DependencyCache:
    """An LRU-bounded, optionally expiring store whose entries carry
    the entity/role dependency sets that invalidate them.

    ``scoped=False`` degrades invalidation to a global flush on any
    write — a cache without a conceptual model to consult, kept as the
    baseline E15 compares against.
    """

    def __init__(self, max_entries: int, ttl_seconds: float | None = None,
                 scoped: bool = True, clock=None):
        if max_entries <= 0:
            raise CacheError("a cache needs a positive capacity")
        self.max_entries = max_entries
        self.ttl_seconds = ttl_seconds
        self.scoped = scoped
        self.clock = clock or SystemClock()
        self.stats = CacheStats()
        self._lock = threading.RLock()
        # key → (value, entities, roles, expires_at); order = LRU order
        self._entries: OrderedDict[object, tuple] = OrderedDict()
        # dependency indexes: name → set of keys
        self._by_entity: dict[str, set] = {}
        self._by_role: dict[str, set] = {}
        # single-flight bookkeeping: key → Event of the building thread
        self._flight_lock = threading.Lock()
        self._in_flight: dict[object, threading.Event] = {}
        # bumped by every invalidation; guards stale store-after-invalidate
        self._generation = 0

    # -- lookups and stores ---------------------------------------------------

    def _lookup(self, key):
        """A hit-or-nothing read: a hit counts and refreshes LRU order,
        an absent or expired key counts no miss — the caller either
        claims the build (which counts it) or is :meth:`get`."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            if entry[3] is not None and self.clock.now() >= entry[3]:
                self._remove(key)
                self.stats.increment("expirations")
                return None
            self._entries.move_to_end(key)
            self.stats.increment("hits")
            return entry[0]

    def get(self, key):
        value = self._lookup(key)
        if value is None:
            self.stats.increment("misses")
        return value

    def put(self, key, value, entities=(), roles=(),
            ttl_seconds: float | None = None) -> None:
        """Store ``value`` under its dependency sets; ``ttl_seconds``
        bounds this entry's lifetime instead of the cache-wide one."""
        if ttl_seconds is None:
            ttl_seconds = self.ttl_seconds
        entities, roles = frozenset(entities), frozenset(roles)
        with self._lock:
            self._remove(key)
            expires_at = (None if ttl_seconds is None
                          else self.clock.now() + ttl_seconds)
            self._entries[key] = (value, entities, roles, expires_at)
            for entity in entities:
                self._by_entity.setdefault(entity, set()).add(key)
            for role in roles:
                self._by_role.setdefault(role, set()).add(key)
            self.stats.increment("puts")
            while len(self._entries) > self.max_entries:
                self._remove(next(iter(self._entries)))
                self.stats.increment("evictions")

    # -- the flight protocol (see the module docstring) -----------------------

    def get_or_build(self, key, build, **deps):
        """Return the cached value, or build it exactly once.

        ``deps`` are :meth:`put`'s keyword arguments for the built
        value.  A ``None`` result is returned but never stored.
        """
        waited = False
        while True:
            value = self._lookup(key)
            if value is not None:
                if waited:
                    self.stats.increment("coalesced")
                return value
            leader_event = self._claim(key)
            if leader_event is not None:
                leader_event.wait()
                waited = True
                continue
            try:
                generation = self.generation
                value = build()
                if value is not None:
                    self.put_if_current(key, value, generation, **deps)
                return value
            finally:
                self.finish_flight(key)

    def _claim(self, key) -> threading.Event | None:
        """Claim the build of ``key``: ``None`` makes the caller the
        leader (and counts the miss), otherwise the event to wait on."""
        with self._flight_lock:
            leader_event = self._in_flight.get(key)
            if leader_event is None:
                self._in_flight[key] = threading.Event()
                self.stats.increment("misses")
            return leader_event

    def begin_flight(self, key) -> bool:
        """Claim a detached build.  True makes the caller the leader,
        who MUST call :meth:`finish_flight` — streaming callers do so
        from the chunk iterator's ``finally``, which is why a client
        disconnect (generator close) cannot wedge the key.  False means
        another build is in flight: fall back to :meth:`get_or_build`
        and wait like any follower."""
        return self._claim(key) is None

    @property
    def generation(self) -> int:
        """The invalidation generation; capture it before building."""
        with self._lock:
            return self._generation

    def put_if_current(self, key, value, generation: int, **deps) -> bool:
        """Store ``value`` unless an invalidation raced its build."""
        with self._lock:
            if self._generation != generation:
                return False
            self.put(key, value, **deps)
            return True

    def finish_flight(self, key) -> None:
        """Release the claim on ``key`` and wake every follower."""
        with self._flight_lock:
            event = self._in_flight.pop(key, None)
        if event is not None:
            event.set()

    # -- model-driven invalidation --------------------------------------------

    def invalidate_writes(self, entities=(), roles=()) -> int:
        """Drop every entry depending on any written entity/role."""
        if not self.scoped:
            return self.flush() if entities or roles else 0
        with self._lock:
            self._generation += 1
            keys: set = set()
            for entity in entities:
                keys.update(self._by_entity.get(entity, ()))
            for role in roles:
                keys.update(self._by_role.get(role, ()))
            for key in keys:
                self._remove(key)
            self.stats.increment("invalidations", len(keys))
            return len(keys)

    def flush(self) -> int:
        with self._lock:
            self._generation += 1
            count = len(self._entries)
            self._entries.clear()
            self._by_entity.clear()
            self._by_role.clear()
            self.stats.increment("invalidations", count)
            return count

    # -- maintenance ----------------------------------------------------------

    def _remove(self, key) -> None:
        entry = self._entries.pop(key, None)
        if entry is None:
            return
        for index, names in ((self._by_entity, entry[1]),
                             (self._by_role, entry[2])):
            for name in names:
                holders = index[name]
                holders.discard(key)
                if not holders:
                    del index[name]

    def dependents_of(self, entity: str | None = None,
                      role: str | None = None) -> int:
        """How many live entries depend on the given entity/role."""
        with self._lock:
            if entity is not None:
                return len(self._by_entity.get(entity, ()))
            if role is not None:
                return len(self._by_role.get(role, ()))
            return 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
