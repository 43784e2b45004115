"""A small blocking HTTP/1.1 client for driving the real edges.

Tests, benchmarks, and examples need to exercise the servers over real
sockets — keep-alive reuse, pipelining, chunked bodies, slow-client
behaviour — without pulling in an external HTTP library.  This client
is deliberately minimal and observable:

- one :class:`WireClient` per connection; ``request()`` reuses it
  until the server closes (mirroring a browser's keep-alive);
- every exchange's raw bytes are kept (``last_raw``) so the E19
  byte-identity oracle can compare full wire responses, not parsed
  projections;
- an optional cookie jar carries the ``repro_session`` cookie, making
  logged-in flows work over the wire exactly like the in-process
  :class:`~repro.app.Browser`;
- ``trickle_read`` reads a response a few bytes at a time with sleeps
  — the pathological slow client E19 uses to show the async edge does
  not let one bad reader stall the loop.
"""

from __future__ import annotations

import socket
import time

from repro.errors import ReproError
from repro.httpcore.parsing import SESSION_COOKIE

_HEADER_END = b"\r\n\r\n"


class WireError(ReproError):
    """The server closed or violated framing mid-response — whether the
    close arrives as an orderly EOF or as the kernel's reset / broken
    pipe (which of the two is a race the caller should not see)."""


class WireResponse:
    """One parsed response plus its raw bytes."""

    def __init__(self, status: int, reason: str, headers: dict,
                 body: bytes, raw: bytes):
        self.status = status
        self.reason = reason
        self.headers = headers
        self.body = body
        self.raw = raw

    @property
    def text(self) -> str:
        return self.body.decode()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<WireResponse {self.status} {len(self.body)}B>"


def _bodyless(status: int) -> bool:
    return status in (204, 304) or 100 <= status < 200


class WireClient:
    """A blocking keep-alive connection to one server address."""

    def __init__(self, address: tuple, timeout: float = 10.0,
                 cookies: bool = False):
        self.address = address
        self.timeout = timeout
        self.cookies = cookies
        self.session_id: str | None = None
        self.last_raw: bytes = b""
        self._sock: socket.socket | None = None
        self._buffer = bytearray()

    # -- connection lifecycle ------------------------------------------------

    def connect(self) -> "WireClient":
        if self._sock is None:
            self._sock = socket.create_connection(
                self.address, timeout=self.timeout
            )
        return self

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None
        self._buffer.clear()

    def __enter__(self) -> "WireClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def connected(self) -> bool:
        return self._sock is not None

    # -- requests ------------------------------------------------------------

    def build_request(self, target: str, method: str = "GET",
                      headers: dict | None = None,
                      http_version: str = "HTTP/1.1") -> bytes:
        merged = dict(headers or {})
        merged.setdefault("Host", f"{self.address[0]}:{self.address[1]}")
        if self.cookies and self.session_id and "Cookie" not in merged:
            merged["Cookie"] = f"{SESSION_COOKIE}={self.session_id}"
        lines = [f"{method} {target} {http_version}"]
        lines.extend(f"{name}: {value}" for name, value in merged.items())
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")

    def send_raw(self, data: bytes) -> None:
        self.connect()
        assert self._sock is not None
        try:
            self._sock.sendall(data)
        except ConnectionError as exc:
            raise WireError(
                f"server closed the connection before the request: {exc}"
            ) from exc

    def request(self, target: str, method: str = "GET",
                headers: dict | None = None,
                http_version: str = "HTTP/1.1") -> WireResponse:
        """One full request/response exchange on this connection."""
        self.send_raw(self.build_request(target, method, headers,
                                         http_version))
        response = self.read_response()
        if self.cookies:
            self._absorb_cookie(response)
        return response

    def _absorb_cookie(self, response: WireResponse) -> None:
        set_cookie = response.headers.get("Set-Cookie", "")
        name, _sep, value = set_cookie.split(";")[0].partition("=")
        if name == SESSION_COOKIE and value:
            self.session_id = value

    # -- response reading ----------------------------------------------------

    def read_response(self) -> WireResponse:
        """Read exactly one response (Content-Length or chunked)."""
        raw = bytearray()
        head = self._read_until(_HEADER_END, raw)
        status, reason, headers = self._parse_head(head)
        if _bodyless(status):
            body = b""
        elif headers.get("Transfer-Encoding", "").lower() == "chunked":
            body = self._read_chunked(raw)
        else:
            length = int(headers.get("Content-Length", "0"))
            body = self._read_exact(length, raw)
        self.last_raw = bytes(raw)
        return WireResponse(status, reason, headers, body, self.last_raw)

    def _parse_head(self, head: bytes) -> tuple[int, str, dict]:
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ", 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/"):
            raise WireError(f"malformed status line {lines[0]!r}")
        status = int(parts[1])
        reason = parts[2] if len(parts) == 3 else ""
        headers: dict = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _sep, value = line.partition(":")
            headers[name.strip()] = value.strip()
        return status, reason, headers

    def _read_until(self, marker: bytes, raw: bytearray) -> bytes:
        while True:
            index = self._buffer.find(marker)
            if index >= 0:
                end = index + len(marker)
                head = bytes(self._buffer[:end])
                del self._buffer[:end]
                raw.extend(head)
                return head[:-len(marker)]
            self._fill()

    def _read_exact(self, count: int, raw: bytearray) -> bytes:
        while len(self._buffer) < count:
            self._fill()
        data = bytes(self._buffer[:count])
        del self._buffer[:count]
        raw.extend(data)
        return data

    def _read_chunked(self, raw: bytearray) -> bytes:
        body = bytearray()
        while True:
            size_line = self._read_until(b"\r\n", raw)
            size = int(size_line.split(b";")[0], 16)
            data = self._read_exact(size + 2, raw)  # chunk + CRLF
            if size == 0:
                return bytes(body)
            body.extend(data[:-2])

    def _fill(self) -> None:
        assert self._sock is not None, "client is not connected"
        try:
            data = self._sock.recv(65536)
        except ConnectionError as exc:
            raise WireError(
                f"server closed the connection mid-response: {exc}"
            ) from exc
        if not data:
            raise WireError("server closed the connection mid-response")
        self._buffer.extend(data)

    # -- pathological clients ------------------------------------------------

    def trickle_read(self, total_timeout: float = 30.0) -> bytes:
        """Read whatever the server sends 16 bytes at a time, with a
        20 ms sleep between reads — a slow mobile client.  Returns
        everything read once the socket would block past its timeout or
        closes."""
        assert self._sock is not None, "client is not connected"
        received = bytearray(self._buffer)
        self._buffer.clear()
        deadline = time.monotonic() + total_timeout
        self._sock.settimeout(0.3)
        try:
            while time.monotonic() < deadline:
                try:
                    data = self._sock.recv(16)
                except socket.timeout:
                    break
                if not data:
                    break
                received.extend(data)
                time.sleep(0.02)
        finally:
            self._sock.settimeout(self.timeout)
        return bytes(received)
