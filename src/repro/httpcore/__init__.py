"""The transport-agnostic HTTP edge core (sans-IO).

The paper's tier argument ("Complete Separation of the 3 Tiers") ends
at the wire: connection handling must be separable from computation so
the edge can scale independently of page production.  This package is
that boundary for the reproduction — everything HTTP/1.x about serving
a request that does *not* require a socket, a thread, or an event loop:

- :mod:`repro.httpcore.parsing` — an incremental request parser:
  feed bytes, get :class:`~repro.mvc.http.HttpRequest` objects
  (pipelining-aware, with header/body limits);
- :mod:`repro.httpcore.wire` — response encoding: status lines,
  deterministic header order, content length vs chunked framing;
- :mod:`repro.httpcore.delivery` — the delivery *policy* shared with
  the front controller: conditional-GET/ETag evaluation, gzip
  negotiation, Cache-Control derivation, page-cache entry responses,
  and the :class:`StreamedPage` contract for chunked rendering;
- :mod:`repro.httpcore.connection` — the per-connection keep-alive
  state machine (HTTP/1.0 vs 1.1 persistence, ``Connection: close``,
  session cookies), pure functions of requests and responses;
- :mod:`repro.httpcore.client` — a small blocking wire client used by
  tests and benchmarks to drive the real servers over real sockets.

Both socket fronts — the thread-per-connection
:class:`~repro.appserver.ThreadedAppServer` and the
event-loop :class:`~repro.appserver.AsyncAppServer` — are thin I/O
shells around these functions, which is what makes their *buffered*
responses byte-identical by construction (the E19 oracle).  A streamed
page-cache miss — async edge only — is the stated exception: chunked
framing, no ``ETag``, no gzip negotiation and a 200 even to a matching
``If-None-Match``; its de-chunked body is the buffered body.
"""

from repro.httpcore.connection import HttpConnection
from repro.httpcore.delivery import (
    GZIP_MIN_BYTES,
    StreamedPage,
    accepts_gzip,
    entry_response,
    etag_matches,
    finalize_delivery,
)
from repro.httpcore.parsing import ProtocolError, RequestParser
from repro.httpcore.wire import (
    encode_chunk,
    encode_response,
    encode_simple,
    http_date,
    LAST_CHUNK,
)

__all__ = [
    "GZIP_MIN_BYTES",
    "HttpConnection",
    "LAST_CHUNK",
    "ProtocolError",
    "RequestParser",
    "StreamedPage",
    "accepts_gzip",
    "encode_chunk",
    "encode_response",
    "encode_simple",
    "entry_response",
    "etag_matches",
    "finalize_delivery",
    "http_date",
]
