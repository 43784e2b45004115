"""The benchmark's own HTTP/1.1 client: a sans-IO response parser plus a
small blocking client on top of it.

Deliberately independent of ``repro.httpcore.client``: a benchmark that
parses responses with the program's own code cannot see a framing bug
both sides share.  Scope is what the edge emits — ``Content-Length``
and chunked bodies, bodiless 304/204, gzip content encoding, keep-alive
and ``Set-Cookie``.
"""

from __future__ import annotations

import socket
import zlib

#: the Date line is excluded from wire-byte counts (see README: the
#: value changes every second, its length never)
_DATE_PREFIX = b"\r\nDate: "
_BODYLESS = (204, 304)


class WireError(Exception):
    """The peer sent bytes that are not a well-formed HTTP/1.1 response,
    hung up mid-response, or did not answer in time."""


class Response:
    """One parsed response.  ``body`` is the identity body (dechunked,
    gunzipped); ``wire_bytes`` counts what crossed the socket minus the
    ``Date`` line; ``decode_error`` names a gzip/chunk failure."""

    __slots__ = ("status", "headers", "body", "wire_bytes", "decode_error")

    def __init__(self, status: int, headers: dict, body: bytes,
                 wire_bytes: int, decode_error: str | None = None):
        self.status = status
        self.headers = headers
        self.body = body
        self.wire_bytes = wire_bytes
        self.decode_error = decode_error


class ResponseParser:
    """Feed bytes in, take complete :class:`Response` objects out."""

    def __init__(self):
        self._buffer = bytearray()
        self._head: tuple | None = None  # (status, headers, body_start)

    def feed(self, data: bytes) -> list[Response]:
        self._buffer += data
        responses = []
        while True:
            response = self._next()
            if response is None:
                return responses
            responses.append(response)

    @property
    def mid_response(self) -> bool:
        """True while bytes of an incomplete response are buffered."""
        return bool(self._buffer)

    def _next(self) -> Response | None:
        buffer = self._buffer
        if self._head is None:
            end = buffer.find(b"\r\n\r\n")
            if end < 0:
                return None
            self._head = self._parse_head(bytes(buffer[:end]), end + 4)
        status, headers, body_start = self._head
        decode_error = None
        if status in _BODYLESS:
            raw_body, consumed = b"", body_start
        elif headers.get("Transfer-Encoding", "").lower() == "chunked":
            parsed = _dechunk(buffer, body_start)
            if parsed is None:
                return None
            raw_body, consumed = parsed
        else:
            length = headers.get("Content-Length")
            if length is None or not length.isdigit():
                raise WireError("response has neither Content-Length "
                                "nor chunked framing")
            consumed = body_start + int(length)
            if len(buffer) < consumed:
                return None
            raw_body = bytes(buffer[body_start:consumed])
        if headers.get("Content-Encoding") == "gzip":
            try:
                raw_body = zlib.decompress(raw_body, 31)
            except zlib.error as exc:
                decode_error, raw_body = f"gzip: {exc}", b""
        wire_bytes = consumed
        date_at = buffer.find(_DATE_PREFIX, 0, body_start)
        if date_at >= 0:
            wire_bytes -= buffer.find(b"\r\n", date_at + 2) - date_at
        del buffer[:consumed]
        self._head = None
        return Response(status, headers, raw_body, wire_bytes, decode_error)

    @staticmethod
    def _parse_head(head: bytes, body_start: int) -> tuple:
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ", 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/1.") \
                or not parts[1].isdigit():
            raise WireError(f"bad status line {lines[0]!r}")
        headers: dict = {}
        for line in lines[1:]:
            name, sep, value = line.partition(":")
            if not sep:
                raise WireError(f"bad header line {line!r}")
            headers[name] = value.strip()
        return int(parts[1]), headers, body_start


def _dechunk(buffer: bytearray, start: int) -> tuple | None:
    """The reassembled chunked body starting at ``start`` and the offset
    just past its terminator, or ``None`` while it is incomplete."""
    pieces = []
    position = start
    while True:
        line_end = buffer.find(b"\r\n", position)
        if line_end < 0:
            return None
        size_field = bytes(buffer[position:line_end]).split(b";")[0].strip()
        try:
            size = int(size_field, 16)
        except ValueError:
            raise WireError(f"bad chunk size {size_field!r}") from None
        data_start = line_end + 2
        data_end = data_start + size
        if len(buffer) < data_end + 2:
            return None
        if buffer[data_end:data_end + 2] != b"\r\n":
            raise WireError("chunk data not terminated by CRLF")
        if size == 0:
            return b"".join(pieces), data_end + 2
        pieces.append(bytes(buffer[data_start:data_end]))
        position = data_end + 2


class CookieJar:
    """Name → value, fed from ``Set-Cookie``, rendered as ``Cookie``."""

    def __init__(self):
        self.cookies: dict[str, str] = {}

    def absorb(self, response: Response) -> None:
        set_cookie = response.headers.get("Set-Cookie")
        if set_cookie:
            name, _sep, value = set_cookie.split(";", 1)[0].partition("=")
            self.cookies[name.strip()] = value.strip()

    def header(self) -> str:
        return "; ".join(f"{k}={v}" for k, v in self.cookies.items())


def encode_request(target: str, headers: dict | None = None,
                   cookie: str = "", method: str = "GET") -> bytes:
    """The wire form of one bodiless keep-alive request."""
    lines = [f"{method} {target} HTTP/1.1", "Host: bench"]
    if cookie:
        lines.append(f"Cookie: {cookie}")
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def connect(address: tuple, timeout: float) -> socket.socket:
    """A keep-alive connection that sends small requests at once."""
    connection = socket.create_connection(address, timeout=timeout)
    connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return connection


class Client:
    """A blocking one-connection client with a cookie jar — used for the
    oracle sample, ``/_status`` reads, warm-up and the admin login.  The
    timed phases use :mod:`loadgen`, which multiplexes the same parser."""

    def __init__(self, address: tuple, timeout: float = 5.0):
        self.address = address
        self.timeout = timeout
        self.jar = CookieJar()
        self._socket: socket.socket | None = None
        self._parser = ResponseParser()

    def request(self, target: str, headers: dict | None = None,
                jar: CookieJar | None = None) -> Response:
        """One round trip; ``jar`` overrides the client's own cookies
        (the admin session rides whichever connection is free).  A
        kept-alive connection the server has since timed out is reopened
        once — every request sent here is safe to repeat unanswered."""
        if jar is None:
            jar = self.jar
        payload = encode_request(target, headers, jar.header())
        reused = self._socket is not None
        try:
            response = self._round_trip(payload)
        except (OSError, WireError):
            if not reused or self._parser.mid_response:
                raise
            response = self._round_trip(payload)
        jar.absorb(response)
        if response.headers.get("Connection", "").lower() == "close":
            self.close()
        return response

    def _round_trip(self, payload: bytes) -> Response:
        if self._socket is None:
            self._socket = connect(self.address, self.timeout)
            self._parser = ResponseParser()
        try:
            self._socket.sendall(payload)
            while True:
                data = self._socket.recv(65536)
                if not data:
                    raise WireError("connection closed before a response")
                responses = self._parser.feed(data)
                if responses:
                    return responses[0]
        except (OSError, WireError):
            self.close()
            raise

    def close(self) -> None:
        if self._socket is not None:
            self._socket.close()
            self._socket = None

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
