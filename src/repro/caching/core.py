"""The cache core: what the page, fragment and bean levels share.

§6's cache is one idea — entries indexed by the entities and
relationships their unit depends on, dropped automatically by
operations — so it is one mechanism here: :class:`DependencyCache`
owns the LRU store, the per-entry expiry, the reverse index,
model-driven invalidation and the single-flight build protocol.

Dependency keys name instances, in one key space.  An entry holds one
tuple of keys, each ``(name, value)`` — ``("Volume", 3)``: the volume
whose oid is 3; ``("VolumeToIssue", 3)``: the issues of volume 3 — or a
bare ``name``, which holds every instance (``(name, ANY)``).  A name is
an entity or a relationship role; the ER model keeps the two sets of
names disjoint, so a key needs no tag saying which it is.  A write of
``(name, value)`` drops the holders of ``(name, value)`` and of the
whole name; a write of a bare name drops every holder of the name.  The
wildcard is :data:`ANY`, not ``None``: NULL is a foreign-key value, and
a holder of ``(name, None)`` is not a holder of everything.  The three
levels
(:mod:`~repro.caching.page_cache`, :mod:`~repro.caching.fragment_cache`,
:mod:`~repro.caching.bean_cache`) subclass it and add only what
differs between them.

Thread safety: every method that touches the store holds the cache
lock; builds run outside it.

The flight protocol (stampede protection, one spelling for every
level and for both the blocking and the detached build):

0. *admit* — while a level has room every miss is admitted.  Once it
   is full, storing means evicting, so a key's first miss is refused:
   it is built and returned, counted as a miss and as ``refused``, and
   never claimed, stored or used to evict; its next miss is admitted.
   The refusal memory is TinyLFU's doorkeeper (Einziger, Friedman &
   Manes, ACM ToS 2017) — at most ``max_entries`` keys, cleared when
   full.  Below capacity it never applies: there a first miss costs
   no eviction, and the second request of a key must hit.  A follower
   that waited on a build is never refused.  On the waterfall's
   ``search-scan`` (9 600 keys against 512 / 1 024 / 4 096 entries) a
   miss cost ≈ 21 µs of claim, event, put, reverse index and eviction
   against ≈ 3 µs for a hit; refused one-hit keys stop evicting entries
   that do hit, so hit rates did not fall (page 0.058 → 0.060, fragment
   0.061 → 0.078, bean 0.339 → 0.351) while server CPU per request fell
   14 %;
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

:meth:`DependencyCache.get_or_build` runs the steps in one call.
A build that cannot run inside one call — the chunk-streamed page,
whose body does not exist until the stream has been written — drives
the same steps itself: :meth:`~DependencyCache.admit`,
:meth:`~DependencyCache.begin_flight`,
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


class _AnyInstance:
    """The value of a dependency key that stands for every instance."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "*"


#: the wildcard value: ``(name, ANY)`` is what a bare ``name`` means
ANY = _AnyInstance()


def _split(dependency) -> tuple:
    """``(name, value)`` of a dependency key; a bare name is whole."""
    if type(dependency) is tuple:
        return dependency
    return dependency, ANY


def _held(dependencies) -> tuple:
    """An entry's dependency keys as ``(name, value)`` pairs, once each
    (a tuple: most entries hold a handful, and a store holds thousands)."""
    return tuple(dict.fromkeys(map(_split, dependencies)))


# A bucket of the reverse index maps one (name, value) to its holders:
# the cache key itself while one entry holds it — the common case, an
# instance only its own page shows — and a set of keys from the second.
# Cache keys are hashable, so never a set.

def _add_holder(buckets: dict, instance, key) -> None:
    holders = buckets.get(instance)
    if holders is None:
        buckets[instance] = key
    elif type(holders) is set:
        holders.add(key)
    elif holders != key:
        buckets[instance] = {holders, key}


def _drop_holder(buckets: dict, instance, key) -> None:
    holders = buckets[instance]
    if type(holders) is set:
        holders.discard(key)
        if len(holders) == 1:
            buckets[instance] = next(iter(holders))
    elif holders == key:
        del buckets[instance]


def _holders(bucket) -> tuple | set:
    return bucket if type(bucket) is set else (bucket,)


class DependencyCache:
    """An LRU-bounded, optionally expiring store whose entries carry
    the dependency keys that invalidate them.

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
        # key → (value, keys, expires_at); order = LRU order, keys a
        # tuple of (name, value) pairs
        self._entries: OrderedDict[object, tuple] = OrderedDict()
        # the reverse index: name → {value (or ANY) → holders}, the
        # holders one cache key or a set of them (see _add_holder)
        self._by_name: dict[str, dict] = {}
        # single-flight bookkeeping: key → Event of the building thread
        self._flight_lock = threading.Lock()
        self._in_flight: dict[object, threading.Event] = {}
        # bumped by every invalidation; guards stale store-after-invalidate
        self._generation = 0
        # the doorkeeper: keys missed once while the store was full
        # (under the flight lock; cleared when it holds max_entries)
        self._refused: set = set()

    # -- lookups and stores ---------------------------------------------------

    def _lookup(self, key):
        """A hit-or-nothing read: a hit counts and refreshes LRU order,
        an absent or expired key counts no miss — the caller either
        claims the build (which counts it) or is :meth:`get`."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            if entry[2] is not None and self.clock.now() >= entry[2]:
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

    def put(self, key, value, keys=(),
            ttl_seconds: float | None = None) -> None:
        """Store ``value`` under its dependency keys (``(name, value)``
        pairs or bare names, see the module docstring); ``ttl_seconds``
        bounds this entry's lifetime instead of the cache-wide one."""
        if ttl_seconds is None:
            ttl_seconds = self.ttl_seconds
        keys = _held(keys)
        with self._lock:
            self._remove(key)
            expires_at = (None if ttl_seconds is None
                          else self.clock.now() + ttl_seconds)
            self._entries[key] = (value, keys, expires_at)
            index = self._by_name
            for name, instance in keys:
                buckets = index.get(name)
                if buckets is None:
                    buckets = index[name] = {}
                _add_holder(buckets, instance, key)
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
            if not waited and not self.admit(key):
                return build()
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

    def admit(self, key) -> bool:
        """Step 0: may this miss of ``key`` claim a build and store it?

        While the store has room, always.  Once it is full — storing
        means evicting — only on the key's second miss: the first is
        remembered and refused (counted as a miss and as ``refused``),
        and its caller builds without claiming, storing or evicting.
        The memory holds at most ``max_entries`` keys and is cleared
        when it reaches that.  The store's size is read without its
        lock: a stale read admits or refuses one key, never a value.
        """
        with self._flight_lock:
            if len(self._entries) < self.max_entries:
                return True
            refused = self._refused
            if key in refused:
                return True
            if len(refused) >= self.max_entries:
                refused.clear()
            refused.add(key)
        self.stats.increment_each("misses", "refused")
        return False

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

    def invalidate_writes(self, keys=()) -> int:
        """Drop every entry holding a written key: for ``(name, value)``
        the holders of that instance and of the whole name, for a bare
        name every holder of the name."""
        if not self.scoped:
            return self.flush() if keys else 0
        with self._lock:
            self._generation += 1
            dropped: set = set()
            for dependency in keys:
                name, instance = _split(dependency)
                buckets = self._by_name.get(name)
                if not buckets:
                    continue
                if instance is ANY:
                    for bucket in buckets.values():
                        dropped.update(_holders(bucket))
                else:
                    for bucket in (buckets.get(instance), buckets.get(ANY)):
                        if bucket is not None:
                            dropped.update(_holders(bucket))
            for key in dropped:
                self._remove(key)
            self.stats.increment("invalidations", len(dropped))
            return len(dropped)

    def flush(self) -> int:
        with self._lock:
            self._generation += 1
            count = len(self._entries)
            self._entries.clear()
            self._by_name.clear()
            self.stats.increment("invalidations", count)
            return count

    # -- maintenance ----------------------------------------------------------

    def _remove(self, key) -> None:
        entry = self._entries.pop(key, None)
        if entry is None:
            return
        index = self._by_name
        for name, instance in entry[1]:
            buckets = index[name]
            _drop_holder(buckets, instance, key)
            if not buckets:
                del index[name]

    def dependents_of(self, key) -> int:
        """How many live entries hold a dependency key: any key of a
        bare name, exactly the key of a ``(name, value)``."""
        name, instance = _split(key)
        with self._lock:
            buckets = self._by_name.get(name, {})
            if type(key) is tuple:
                bucket = buckets.get(instance)
                return 0 if bucket is None else len(_holders(bucket))
            return len(set().union(*map(_holders, buckets.values())))

    @property
    def dependency_keys(self) -> int:
        """The reverse index's size: distinct ``(name, value)`` keys
        some live entry holds."""
        with self._lock:
            return sum(map(len, self._by_name.values()))

    def status(self) -> dict:
        """The ``/_status`` collector: counters, the store's size and
        the doorkeeper's, each beside the cap they share."""
        return {**self.stats.to_dict(), "entries": len(self),
                "max_entries": self.max_entries,
                "admission_memory": len(self._refused),
                "dependency_keys": self.dependency_keys}

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
