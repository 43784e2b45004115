"""Response encoding: HttpResponse objects → HTTP/1.1 bytes (sans-IO).

One function, :func:`encode_response`, turns the in-process
:class:`~repro.mvc.http.HttpResponse` into its wire form.  Both edges
call it through the shared connection state machine, which is what
makes threaded and async responses byte-identical by construction:
same header order, same framing decisions, same body bytes.

Framing rules (deliberately deterministic):

- header order is fixed — status line, ``Date``, application headers
  in insertion order, ``Content-Type``, framing
  (``Content-Length``/``Transfer-Encoding``), ``Connection``;
- a 304 carries no body and no body-description headers (RFC 9110:
  the validator headers it *does* carry arrive as application
  headers);
- ``encoded_body`` (negotiated gzip) is the wire body when present,
  the identity ``body`` otherwise;
- chunked framing is only chosen by the caller (the streaming path);
  everything else is ``Content-Length``.
"""

from __future__ import annotations

import time
from email.utils import formatdate

#: reason phrases for every status the runtime produces
REASON_PHRASES = {
    200: "OK",
    301: "Moved Permanently",
    302: "Found",
    303: "See Other",
    304: "Not Modified",
    307: "Temporary Redirect",
    308: "Permanent Redirect",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: the terminating frame of a chunked body
LAST_CHUNK = b"0\r\n\r\n"

#: statuses that must not carry a message body
_BODYLESS = frozenset({204, 304})


#: ``(second, text)`` of the last current ``Date`` formatted: every
#: response within one wall-clock second shares it, and the tuple is
#: rebound whole, so a reader on any thread sees a matching pair
_date_memo: tuple[int, str] = (-1, "")


def http_date(timestamp: float | None = None) -> str:
    """An RFC 9110 ``Date`` header value (IMF-fixdate, GMT) for
    ``timestamp``, or for now.  The text has one-second resolution,
    so now is formatted at most once per second."""
    global _date_memo
    if timestamp is not None:
        return formatdate(timestamp, usegmt=True)
    second = int(time.time())
    memo = _date_memo
    if memo[0] != second:
        memo = _date_memo = (second, formatdate(second, usegmt=True))
    return memo[1]


def reason_phrase(status: int) -> str:
    return REASON_PHRASES.get(status, "Unknown")


def encode_chunk(data: bytes) -> bytes:
    """One frame of a chunked body.  Never call with empty data — a
    zero-length chunk is the terminator (:data:`LAST_CHUNK`)."""
    return b"%x\r\n%s\r\n" % (len(data), data)


def encode_response(response, *, keep_alive: bool = True,
                    date: str | None = None,
                    chunked: bool = False) -> bytes:
    """The full wire form of ``response`` (head + body).

    With ``chunked=True`` only the head is returned (terminated by the
    blank line); the caller frames body chunks with
    :func:`encode_chunk` and finishes with :data:`LAST_CHUNK`.
    """
    status = response.status
    lines = [f"HTTP/1.1 {status} {reason_phrase(status)}"]
    if date is not None:
        lines.append(f"Date: {date}")
    for name, value in response.headers.items():
        lines.append(f"{name}: {value}")
    bodyless = status in _BODYLESS
    body = b""
    if not bodyless:
        lines.append(f"Content-Type: {response.content_type}")
        if chunked:
            lines.append("Transfer-Encoding: chunked")
        else:
            body = (response.encoded_body if response.encoded_body is not None
                    else response.body.encode())
            lines.append(f"Content-Length: {len(body)}")
    lines.append(f"Connection: {'keep-alive' if keep_alive else 'close'}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    if chunked or bodyless:
        return head
    return head + body


def encode_simple(status: int, body: str,
                  date: str | None = None) -> bytes:
    """A standalone close-marked plain-text response, for failures that
    happen *below* the application (parse errors, overload): the edge
    sends these directly and drops the connection."""
    payload = body.encode()
    lines = [f"HTTP/1.1 {status} {reason_phrase(status)}"]
    if date is not None:
        lines.append(f"Date: {date}")
    lines.extend([
        "Content-Type: text/plain",
        f"Content-Length: {len(payload)}",
        "Connection: close",
    ])
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + payload
