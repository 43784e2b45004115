"""The cache tier (paper §6): one cache core, three levels.

§6's cache is one idea — entries indexed by the entities and roles
their unit depends on, dropped automatically by operations — and
:class:`~repro.caching.core.DependencyCache` is its one
implementation: the LRU store, expiry, the dependency indexes,
``invalidate_writes(entities, roles)`` and the single-flight build
protocol with its invalidation-generation guard.  The protocol and the
invalidation-ordering invariants are stated once, in
:mod:`repro.caching.core`.  The levels subclass the core and differ in
what they store and which tier a hit spares:

Level 1 — the **fragment cache**: an ESI-style template-fragment store.
It spares the markup generation of cached fragments but, as §6 points
out, "caching fragments of the page template may spare only the
computation of markup from query results, not the execution of the data
extraction queries" — the action classes run before the template.

Level 2 — the **unit-bean cache**: "WebRatio caches the data beans
produced by the action invocations, which typically include the result
of data access queries, and make them reusable by multiple requests."
Because the conceptual model exposes what each unit depends on,
"the implementation of operations automatically invalidates the
affected cached objects".

Level 0 — the **page cache**: whole rendered responses, keyed by
(page, canonical parameters, device, principal), carrying the union of
the page's unit dependency sets so the same model-driven invalidation
applies to full pages.

All levels are invalidated together through the
:class:`~repro.caching.bus.InvalidationBus` every commit publishes to.

- :mod:`repro.caching.core` — the shared store, invalidation and
  flight protocol,
- :mod:`repro.caching.page_cache` — level 0: ETag/gzip by-products and
  the edge's ``peek``,
- :mod:`repro.caching.fragment_cache` — level 1: defaults only,
- :mod:`repro.caching.bean_cache` — level 2: per-unit cache policy and
  the ``from_cache`` stamp,
- :mod:`repro.caching.policy` — TTL / model-driven policies,
- :mod:`repro.caching.bus` — the write-notification fan-out,
- :mod:`repro.caching.stats` — hit/miss/invalidation counters.
"""

from repro.caching.bean_cache import UnitBeanCache
from repro.caching.bus import InvalidationBus
from repro.caching.core import DependencyCache
from repro.caching.fragment_cache import FragmentCache
from repro.caching.page_cache import (
    PageCache,
    PageEntry,
    canonical_params,
    content_etag,
)
from repro.caching.policy import CachePolicy, parse_policy
from repro.caching.stats import CacheStats

__all__ = [
    "DependencyCache",
    "UnitBeanCache",
    "FragmentCache",
    "PageCache",
    "PageEntry",
    "InvalidationBus",
    "canonical_params",
    "content_etag",
    "CachePolicy",
    "parse_policy",
    "CacheStats",
]
