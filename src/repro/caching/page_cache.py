"""Level-0 cache: whole rendered pages.

The fragment cache (level 1) spares markup generation and the bean
cache (level 2) spares the data-extraction queries — but a hit still
pays page-service orchestration, slot resolution, and template
assembly.  The page cache closes the loop: the *entire* rendered
response is stored, keyed by everything that may legally change the
bytes — the page, the canonicalized request parameters, the device
class, and the authenticated principal.

Like the bean cache, it is model-driven (§6): every entry carries the
union of the entity/role dependency sets of the page's unit
descriptors, and ``invalidate_writes`` drops exactly the dependent
pages.

Entries carry the content digest (the HTTP ``ETag``) and keep the
deterministic gzip body the first compressed delivery makes, so
conditional delivery costs nothing on a hit and compression is paid
once, by an entry somebody asked to have compressed.  Storage, invalidation and the flight protocol —
which the chunk-streamed build drives step by step, see
:mod:`repro.caching.core` — are
:class:`~repro.caching.core.DependencyCache`'s.
"""

from __future__ import annotations

import gzip
import hashlib
from dataclasses import dataclass, field

from repro.caching.core import DependencyCache


def canonical_params(params: dict) -> tuple:
    """A hashable, order-insensitive rendition of request parameters.

    List values (checkbox groups) become tuples; everything else is
    kept verbatim — two requests differing only in parameter order map
    to the same page-cache key.
    """
    return tuple(sorted(
        (name, tuple(value) if isinstance(value, (list, tuple)) else value)
        for name, value in params.items()
    ))


def content_etag(body: str) -> str:
    """The strong validator of a rendered body (RFC 7232 quoted form)."""
    return f'"{hashlib.sha1(body.encode()).hexdigest()}"'


@dataclass
class PageEntry:
    """One cached response: the body plus its delivery by-products."""

    body: str
    etag: str
    entities: frozenset
    roles: frozenset
    _gzip: bytes | None = field(default=None, repr=False)

    @property
    def gzip_body(self) -> bytes:
        """The compressed body, made by the first read and kept.
        ``mtime=0`` makes the bytes a function of the body alone — the
        same on every build of identical content, and from two readers
        racing to be first, so no lock."""
        if self._gzip is None:
            self._gzip = gzip.compress(self.body.encode(), mtime=0)
        return self._gzip


class PageCache(DependencyCache):
    """The level-0 store consulted by the front controller."""

    def __init__(self, max_entries: int = 512,
                 ttl_seconds: float | None = None,
                 scoped: bool = True, clock=None):
        super().__init__(max_entries, ttl_seconds, scoped, clock)

    def make_entry(self, body: str, entities=(), roles=()) -> PageEntry:
        """Digest a rendered body once, at store time (most entries are
        evicted or invalidated without a compressed read: see
        :attr:`PageEntry.gzip_body`)."""
        return PageEntry(
            body=body,
            etag=content_etag(body),
            entities=frozenset(entities),
            roles=frozenset(roles),
        )

    def put(self, key, entry: PageEntry) -> None:
        """Store an entry under the dependency sets it was made with."""
        super().put(key, entry, entry.entities, entry.roles)

    #: ``peek(key)`` — the hit-or-nothing read of the edge fast path.
    #: Hits count (and refresh LRU order) exactly like ``get``; a miss
    #: counts *nothing*: the caller is about to fall through to a
    #: build, whose claim records the miss once.  Without this, every
    #: inline probe of an uncached page would double-count misses and
    #: skew the E15/E19 hit ratios.
    peek = DependencyCache._lookup
