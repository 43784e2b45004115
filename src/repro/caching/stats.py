"""Cache statistics.

Counters are bumped through :meth:`AtomicCounters.increment` so that
worker threads serving requests concurrently never lose an update.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.concurrency import AtomicCounters


@dataclass
class CacheStats(AtomicCounters):
    hits: int = 0
    misses: int = 0
    puts: int = 0
    invalidations: int = 0
    evictions: int = 0
    expirations: int = 0
    #: lookups that waited for another thread's in-flight computation
    #: instead of recomputing (single-flight stampede protection)
    coalesced: int = 0
    #: misses a full level built without storing: a key's first miss
    #: once storing it means evicting (see ``DependencyCache.admit``)
    refused: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def to_dict(self) -> dict:
        """Snapshot for the observability registry's collectors."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
            "puts": self.puts,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
            "expirations": self.expirations,
            "coalesced": self.coalesced,
            "refused": self.refused,
        }

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.invalidations = 0
        self.evictions = 0
        self.expirations = 0
        self.coalesced = 0
        self.refused = 0
