"""Level-2 cache: unit beans with model-driven invalidation.

The decisive §6 advantage of caching *in the business tier*: cached
beans spare the data-extraction queries themselves, and "since a
conceptual model of the application is available, which clearly exposes
the Entity or Relationship on which the content of a unit depends, and
the operations that may act on such content, the implementation of
operations automatically invalidates the affected cached objects,
sparing to the developer the need of managing a business-tier cache in
his application code."

Each entry carries the entity and role dependency sets recorded in the
unit descriptor; ``invalidate_writes`` drops exactly the dependent
entries.  Storage, invalidation and the single-flight
:meth:`~UnitBeanCache.get_or_compute` — when a popular bean expires,
exactly one thread recomputes it while concurrent requesters wait —
are :class:`~repro.caching.core.DependencyCache`'s; this level adds
the per-unit cache policy and the ``from_cache`` stamp.
"""

from __future__ import annotations

from repro.caching.core import DependencyCache
from repro.caching.policy import parse_policy


class UnitBeanCache(DependencyCache):
    """The business-tier cache the generic unit service consults."""

    def __init__(self, max_entries: int = 4096, clock=None):
        super().__init__(max_entries, clock=clock)

    def _lookup(self, key):
        bean = super()._lookup(key)
        if bean is not None:
            bean.from_cache = True
        return bean

    def put(self, key, bean, entities=(), roles=(),
            policy: str = "model-driven") -> None:
        """Store a bean under its unit's ``cachePolicy`` attribute."""
        super().put(key, bean, entities, roles,
                    parse_policy(policy).ttl_seconds)

    #: ``get_or_compute(key, compute, entities=(), roles=(),
    #: policy="model-driven")`` — the cached bean, or ``compute()`` run
    #: exactly once across concurrent requesters.
    get_or_compute = DependencyCache.get_or_build
