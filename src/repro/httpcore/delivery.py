"""Delivery policy: conditional GET, compression, cache directives.

The *decisions* of the delivery tier — does this ``If-None-Match``
revalidate, does this client get gzip, what ``Cache-Control`` does the
cache policy imply — expressed as pure functions over request and
response objects.  The front controller applies them to freshly
rendered responses; the edges apply them when serving page-cache
entries inline; neither owns a private copy, so a 304 decided on the
event loop and a 304 decided in a worker thread are the same bytes.

Invariants carried over from the delivery pipeline (DESIGN.md §9):

- every 200 HTML GET leaves with a strong ``ETag`` over the *identity*
  body (page-cache entries precompute it at store time,
  :func:`finalize_delivery` digests everything else);
- gzip is negotiated only for bodies worth compressing
  (:data:`GZIP_MIN_BYTES`) and always rides with ``Vary:
  Accept-Encoding``;
- a page-cache entry compresses its body on the first hit that
  negotiates gzip and keeps the deterministic bytes, so later hits cost
  no compression and repeated builds of identical content produce
  identical wire bytes.

:class:`StreamedPage` is the contract between the front controller's
streamed execute + deliver and the async edge: response head now, body
chunks as the compiled template produces them.  The invariants above
are the *buffered* path's; a streamed response leaves before its body
exists, so it carries no ``ETag``, is never gzip-negotiated and is a
200 even to a matching ``If-None-Match``.
"""

from __future__ import annotations

import gzip
from dataclasses import dataclass
from typing import Iterator

from repro.caching.page_cache import content_etag
from repro.mvc.http import HttpRequest, HttpResponse

#: bodies below this size are not worth a gzip round-trip
GZIP_MIN_BYTES = 200


def etag_matches(if_none_match: str | None, etag: str) -> bool:
    """RFC 9110 ``If-None-Match`` evaluation against one strong ETag."""
    if not if_none_match:
        return False
    if if_none_match.strip() == "*":
        return True
    candidates = [c.strip() for c in if_none_match.split(",")]
    return etag in candidates


def accepts_gzip(request: HttpRequest) -> bool:
    return "gzip" in request.headers.get("Accept-Encoding", "")


def cache_control_for(authenticated: bool,
                      ttl_seconds: float | None) -> str:
    """Derived from the cache policy: a TTL becomes ``max-age``,
    model-driven entries must revalidate (the ETag makes that a 304)."""
    scope = "private" if authenticated else "public"
    if ttl_seconds:
        return f"{scope}, max-age={int(ttl_seconds)}"
    return f"{scope}, no-cache"


def entry_response(entry, request: HttpRequest,
                   cache_control: str) -> HttpResponse:
    """The response for one page-cache entry: a 304 when the client's
    validator still matches, otherwise the stored 200 in the encoding
    the client takes.  Cheap enough to run inline on an event loop —
    no rendering, no digesting, and one compression per entry (its
    first gzip hit; every later one reuses the bytes)."""
    if etag_matches(request.headers.get("If-None-Match"), entry.etag):
        return HttpResponse.not_modified(
            entry.etag, {"Cache-Control": cache_control}
        )
    response = HttpResponse(
        status=200, body=entry.body,
        headers={"ETag": entry.etag, "Cache-Control": cache_control},
    )
    if accepts_gzip(request) and len(entry.body) >= GZIP_MIN_BYTES:
        response.encoded_body = entry.gzip_body
        response.headers["Content-Encoding"] = "gzip"
        response.headers["Vary"] = "Accept-Encoding"
    return response


def finalize_delivery(request: HttpRequest,
                      response: HttpResponse) -> HttpResponse:
    """Conditional and compressed delivery for every 200 HTML GET.

    Page-cache responses arrive with their validator and encoding
    already attached (:func:`entry_response`); everything else is
    digested and negotiated here.
    """
    if (request.method != "GET" or response.status != 200
            or response.content_type != "text/html"):
        return response
    etag = response.headers.get("ETag")
    if etag is None:
        etag = content_etag(response.body)
        response.headers["ETag"] = etag
    response.headers.setdefault("Cache-Control", "no-cache")
    if etag_matches(request.headers.get("If-None-Match"), etag):
        return HttpResponse.not_modified(
            etag, {"Cache-Control": response.headers["Cache-Control"]}
        )
    if ("Content-Encoding" not in response.headers
            and accepts_gzip(request)
            and len(response.body) >= GZIP_MIN_BYTES):
        response.encoded_body = gzip.compress(response.body.encode(), mtime=0)
        response.headers["Content-Encoding"] = "gzip"
        response.headers["Vary"] = "Accept-Encoding"
    return response


@dataclass
class StreamedPage:
    """A page being delivered incrementally.

    ``response`` carries the status and headers to send immediately
    (no ``ETag`` — a validator needs the full body, which does not
    exist yet); ``chunks`` yields body fragments in order — leading
    static markup first, each dynamic slot as it renders.  The
    consumer must either exhaust the iterator or ``close()`` it:
    closing releases the page-cache single-flight slot the stream
    holds, which is what keeps a mid-stream client disconnect from
    wedging every later request for the same page.
    """

    response: HttpResponse
    chunks: Iterator[str]
