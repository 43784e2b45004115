"""Level-1 cache: template fragments (ESI-style).

"Last-generation cache technologies, like the Edge Side Include (ESI)
initiative, apply more sophisticated caching strategies, based on the
capability of marking fragments of the page template, which can be
cached individually and with different policies" (§6).

Keys are opaque (the template engine uses (unit, bean-digest)); values
are rendered HTML strings, stored under the dependency keys of the
unit bean that produced them.  Fragment keys embed a digest of the
bean content, so a stale fragment can never be served for *changed*
content — scoped invalidation reclaims the memory and keeps the
hit-rate statistics honest without the collateral damage of a flush.

Everything else is :class:`~repro.caching.core.DependencyCache`: this
level only picks the defaults and names the single-flight entry point.
"""

from __future__ import annotations

from repro.caching.core import DependencyCache


class FragmentCache(DependencyCache):
    def __init__(self, max_entries: int = 1024,
                 ttl_seconds: float | None = None,
                 scoped: bool = True, clock=None):
        super().__init__(max_entries, ttl_seconds, scoped, clock)

    #: ``get_or_render(key, render, keys=())`` — the
    #: cached fragment, or ``render()`` run exactly once across the
    #: concurrent requests for the same page fragment.
    get_or_render = DependencyCache.get_or_build
