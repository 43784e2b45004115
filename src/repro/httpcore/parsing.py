"""Incremental HTTP/1.x request parsing (sans-IO).

A :class:`RequestParser` owns a byte buffer: the transport feeds it
whatever ``recv`` produced — a request per call, half a header, three
pipelined requests — and gets back every *complete* request as a
:class:`~repro.mvc.http.HttpRequest`, ready for the application tier.
The parser never blocks and never touches a socket, so the same
instance serves the threaded edge (fed from blocking ``recv``) and the
async edge (fed from the event loop) identically.

Protocol scope — exactly what the reproduction's tiers need:

- request line + headers + optional ``Content-Length`` body;
- query parameters through :meth:`HttpRequest.from_url` (repeated
  names become lists, the servlet-API behaviour the services expect);
- ``application/x-www-form-urlencoded`` bodies merge into ``params``
  the same way;
- the ``repro_session`` cookie becomes ``request.session_id`` — the
  wire form of the session id the in-process model passes directly;
- hard limits on header and body size (a malformed or hostile peer
  costs a bounded buffer, then a :class:`ProtocolError` → 400).

Anything outside that scope (transfer-encoded request bodies, line
folding, HTTP/2) raises :class:`ProtocolError` rather than guessing.
"""

from __future__ import annotations

from urllib.parse import parse_qsl

from repro.errors import ReproError
from repro.mvc.http import HttpRequest

#: name of the cookie carrying the session id over the wire
SESSION_COOKIE = "repro_session"

_CRLF = b"\r\n"
_HEADER_END = b"\r\n\r\n"
_SUPPORTED_VERSIONS = ("HTTP/1.0", "HTTP/1.1")


class ProtocolError(ReproError):
    """The peer sent bytes that are not a well-formed HTTP/1.x request
    (or exceeded the parser's limits).  The edge answers 400 and closes."""


def canonical_header(name: str) -> str:
    """Normalize a wire header name to the Title-Case form the
    in-process tiers look up (``if-none-match`` → ``If-None-Match``)."""
    return "-".join(part.capitalize() for part in name.split("-"))


def session_id_from_headers(headers: dict) -> str | None:
    """The session id carried by the request's cookies, if any."""
    cookie_header = headers.get("Cookie", "")
    for part in cookie_header.split(";"):
        name, _sep, value = part.strip().partition("=")
        if name == SESSION_COOKIE and value:
            return value
    return None


class RequestParser:
    """Feed bytes in, take complete :class:`HttpRequest` objects out."""

    def __init__(self, max_header_bytes: int = 32768,
                 max_body_bytes: int = 1 << 20):
        self.max_header_bytes = max_header_bytes
        self.max_body_bytes = max_body_bytes
        self._buffer = bytearray()
        self.requests_parsed = 0

    def feed(self, data: bytes) -> list[HttpRequest]:
        """Consume ``data`` and return every request it completes.

        Pipelined requests all come out of one call; a partial request
        stays buffered for the next.  Raises :class:`ProtocolError` on
        malformed input — the buffer is then poisoned and the
        connection must close (HTTP/1.x framing cannot resynchronize).
        """
        self._buffer.extend(data)
        requests: list[HttpRequest] = []
        while True:
            request = self._try_parse_one()
            if request is None:
                break
            requests.append(request)
        return requests

    def _try_parse_one(self) -> HttpRequest | None:
        head_end = self._buffer.find(_HEADER_END)
        if head_end < 0:
            if len(self._buffer) > self.max_header_bytes:
                raise ProtocolError(
                    f"request head exceeds {self.max_header_bytes} bytes"
                )
            return None
        head = bytes(self._buffer[:head_end])
        body_start = head_end + len(_HEADER_END)
        method, target, version, headers = self._parse_head(head)
        body_length = self._body_length(headers)
        if len(self._buffer) - body_start < body_length:
            return None  # body still in flight
        body = bytes(self._buffer[body_start:body_start + body_length])
        del self._buffer[:body_start + body_length]
        self.requests_parsed += 1
        return self._build_request(method, target, version, headers, body)

    def _parse_head(self, head: bytes) -> tuple[str, str, str, dict]:
        try:
            text = head.decode("latin-1")
        except UnicodeDecodeError as exc:  # pragma: no cover - latin-1 total
            raise ProtocolError(f"undecodable request head: {exc}") from exc
        lines = text.split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3:
            raise ProtocolError(f"malformed request line: {lines[0]!r}")
        method, target, version = parts
        if version not in _SUPPORTED_VERSIONS:
            raise ProtocolError(f"unsupported protocol version {version!r}")
        if not target.startswith("/"):
            raise ProtocolError(f"unsupported request target {target!r}")
        headers: dict = {}
        for line in lines[1:]:
            if not line:
                continue
            if line[0] in " \t":
                raise ProtocolError("obsolete header line folding")
            name, sep, value = line.partition(":")
            if not sep or not name.strip():
                raise ProtocolError(f"malformed header line: {line!r}")
            headers[canonical_header(name.strip())] = value.strip()
        return method, target, version, headers

    def _body_length(self, headers: dict) -> int:
        declared = headers.get("Content-Length")
        if declared is None:
            if "Transfer-Encoding" in headers:
                raise ProtocolError("transfer-encoded request bodies are "
                                    "not supported")
            return 0
        try:
            length = int(declared)
        except ValueError as exc:
            raise ProtocolError(
                f"bad Content-Length {declared!r}"
            ) from exc
        if length < 0:
            raise ProtocolError(f"negative Content-Length {length}")
        if length > self.max_body_bytes:
            raise ProtocolError(
                f"request body of {length} bytes exceeds "
                f"{self.max_body_bytes}"
            )
        return length

    def _build_request(self, method: str, target: str, version: str,
                       headers: dict, body: bytes) -> HttpRequest:
        request = HttpRequest.from_url(
            target, method=method, headers=headers,
            session_id=session_id_from_headers(headers),
        )
        request.http_version = version
        content_type = headers.get("Content-Type", "")
        if body and content_type.startswith(
                "application/x-www-form-urlencoded"):
            for name, value in parse_qsl(body.decode("latin-1"),
                                         keep_blank_values=True):
                existing = request.params.get(name)
                if existing is None:
                    request.params[name] = value
                elif isinstance(existing, list):
                    existing.append(value)
                else:
                    request.params[name] = [existing, value]
        return request
