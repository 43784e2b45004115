"""Cache policies.

A unit tagged as cached specifies "the associate cache invalidation
policy" (§6).  Two policies are supported:

- ``model-driven`` — entries live until a commit writes one of the
  entities/relationships the unit depends on (the paper's automatic
  invalidation);
- ``ttl:<seconds>`` — entries additionally expire after a fixed
  lifetime (for content that changes outside this database, e.g. a
  plug-in unit reading an external feed).

Model-driven invalidation always applies; TTL merely adds an upper
bound on staleness.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CacheError


@dataclass(frozen=True)
class CachePolicy:
    name: str
    ttl_seconds: float | None = None


MODEL_DRIVEN = CachePolicy("model-driven")


def parse_policy(text: str) -> CachePolicy:
    """Parse a descriptor's cachePolicy attribute."""
    if text == "model-driven":
        return MODEL_DRIVEN
    if text.startswith("ttl:"):
        try:
            seconds = float(text[4:])
        except ValueError:
            raise CacheError(f"bad TTL in cache policy {text!r}") from None
        if seconds <= 0:
            raise CacheError(f"TTL must be positive in {text!r}")
        return CachePolicy("ttl", ttl_seconds=seconds)
    raise CacheError(f"unknown cache policy {text!r}")
