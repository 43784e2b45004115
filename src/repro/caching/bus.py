"""The invalidation bus: one write notification, every cache level.

§6's automatic invalidation — "the implementation of operations
automatically invalidates the affected cached objects" — must reach
*all three* cache levels, or a write survives somewhere and a reader
observes stale content.  Writes therefore reach the caches through
this bus only, published once per commit by
:class:`repro.services.base.RuntimeContext`, never by poking
individual caches.

Registration order matters and is deepest-tier first (bean →
fragment → page): when the page cache is finally invalidated, the
levels a rebuilding request will consult are already clean, and the
generation guard on each level blocks any build that started before
its invalidation.
"""

from __future__ import annotations

import threading


class InvalidationBus:
    """Fans ``invalidate_writes``/``flush`` out to registered caches."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._targets: list[tuple[str, object]] = []

    def register(self, name: str, cache) -> None:
        """Attach a cache level (anything with ``invalidate_writes``);
        re-registering a name replaces the previous target."""
        with self._lock:
            self._targets = [
                (n, c) for n, c in self._targets if n != name
            ] + [(name, cache)]

    def targets(self) -> list[str]:
        with self._lock:
            return [name for name, _cache in self._targets]

    def invalidate_writes(self, entities=(), roles=()) -> dict[str, int]:
        """Publish one write; returns dropped-entry counts per level."""
        with self._lock:
            targets = list(self._targets)
        return {
            name: cache.invalidate_writes(entities, roles)
            for name, cache in targets
        }

    def flush(self) -> dict[str, int]:
        with self._lock:
            targets = list(self._targets)
        return {name: cache.flush() for name, cache in targets}
