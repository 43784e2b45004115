"""HTTP substrate: requests, responses, sessions.

The paper's architecture runs over HTTP/servlets; the reproduction
models the protocol objects in-process.  Requests carry parameters,
headers (the ``User-Agent`` drives §5's multi-device rule selection) and
a session id; the :class:`SessionStore` provides the "session-level
information" (§1) that login units bind users into.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from urllib.parse import parse_qsl, quote, urlencode


@dataclass
class HttpRequest:
    """One client request."""

    path: str
    params: dict = field(default_factory=dict)
    method: str = "GET"
    headers: dict = field(default_factory=dict)
    session_id: str | None = None
    #: protocol version of the wire request; in-process requests keep
    #: the 1.1 default (keep-alive semantics live in repro.httpcore)
    http_version: str = "HTTP/1.1"

    @classmethod
    def from_url(cls, url: str, method: str = "GET",
                 headers: dict | None = None,
                 session_id: str | None = None) -> "HttpRequest":
        """Parse ``/path?a=1&b=2`` into a request.

        Repeated parameters (checkbox groups) become lists, single ones
        plain strings — the usual servlet-API behaviour.
        """
        path, _sep, query = url.partition("?")
        params: dict = {}
        for name, value in parse_qsl(query, keep_blank_values=True):
            if name in params:
                existing = params[name]
                if isinstance(existing, list):
                    existing.append(value)
                else:
                    params[name] = [existing, value]
            else:
                params[name] = value
        return cls(path=path, params=params, method=method,
                   headers=dict(headers or {}), session_id=session_id)

    def get(self, name: str, default=None):
        return self.params.get(name, default)

    @property
    def user_agent(self) -> str:
        return self.headers.get("User-Agent", "")


@dataclass
class HttpResponse:
    """One server response.

    ``encoded_body`` is the wire form when a ``Content-Encoding`` was
    negotiated (gzip); ``body`` always keeps the identity text, the way
    an in-process test client wants to read it.
    """

    status: int = 200
    body: str = ""
    content_type: str = "text/html"
    headers: dict = field(default_factory=dict)
    encoded_body: bytes | None = None
    #: the request's span tree when tracing is on (set by the front
    #: controller); in-process tests read it, the wire never carries it
    trace: object | None = None

    @classmethod
    def redirect(cls, location: str) -> "HttpResponse":
        return cls(status=302, headers={"Location": location})

    @classmethod
    def not_modified(cls, etag: str, headers: dict | None = None) -> "HttpResponse":
        """A 304 revalidation answer: no body, just the validator."""
        merged = dict(headers or {})
        merged["ETag"] = etag
        return cls(status=304, headers=merged)

    @classmethod
    def not_found(cls, what: str = "") -> "HttpResponse":
        return cls(status=404, body=f"Not found: {what}", content_type="text/plain")

    @classmethod
    def forbidden(cls, why: str = "login required") -> "HttpResponse":
        return cls(status=403, body=why, content_type="text/plain")

    @property
    def is_redirect(self) -> bool:
        return self.status in (301, 302, 303, 307, 308)

    @property
    def location(self) -> str | None:
        return self.headers.get("Location")

    @property
    def etag(self) -> str | None:
        return self.headers.get("ETag")

    @property
    def wire_length(self) -> int:
        """Bytes this response puts on the wire (304s carry none)."""
        if self.status == 304:
            return 0
        if self.encoded_body is not None:
            return len(self.encoded_body)
        return len(self.body.encode())


def build_url(path: str, params: dict | None = None) -> str:
    """Assemble a URL with properly encoded query parameters.

    List/tuple values (checkbox groups) expand doseq-style into one
    ``name=value`` pair per element, so a multi-select round-trips
    through :meth:`HttpRequest.from_url` unchanged.
    """
    if not params:
        return path
    encoded = encode_query(params)
    return f"{path}?{encoded}" if encoded else path


def encode_query(params: dict) -> str:
    """:func:`build_url`'s query string (no ``?``): ``None`` values
    skipped, lists doseq.  The query of a merged dict is the ``&``-join
    of its parts' non-empty queries, in order."""
    return urlencode(
        [(k, v) for k, v in params.items() if v is not None],
        quote_via=quote, doseq=True,
    )


class Session:
    """Per-client conversational state (the paper's state objects that
    "persist between consecutive requests", §2).

    Mutations are lock-guarded: one user can have several in-flight
    requests (frames, retries) served by different worker threads.
    """

    def __init__(self, session_id: str):
        self.id = session_id
        self.attributes: dict = {}
        self.user_oid: int | None = None
        self.username: str | None = None
        self._lock = threading.RLock()

    @property
    def is_authenticated(self) -> bool:
        return self.user_oid is not None

    def login(self, user_oid: int, username: str) -> None:
        with self._lock:
            self.user_oid = user_oid
            self.username = username

    def logout(self) -> None:
        with self._lock:
            self.user_oid = None
            self.username = None
            self.attributes.clear()

    def get(self, name: str, default=None):
        with self._lock:
            return self.attributes.get(name, default)

    def set(self, name: str, value) -> None:
        with self._lock:
            self.attributes[name] = value


class SessionStore:
    """Creates and tracks sessions (a servlet container's session map).

    Thread-safe: two concurrent first requests with the same (or no)
    session id resolve to exactly one :class:`Session` object each."""

    def __init__(self) -> None:
        self._sessions: dict[str, Session] = {}
        self._ids = itertools.count(1)
        self._lock = threading.RLock()

    def get_or_create(self, session_id: str | None) -> Session:
        with self._lock:
            if session_id is not None and session_id in self._sessions:
                return self._sessions[session_id]
            new_id = session_id or f"s{next(self._ids)}"
            session = Session(new_id)
            self._sessions[new_id] = session
            return session

    def invalidate(self, session_id: str) -> None:
        with self._lock:
            self._sessions.pop(session_id, None)

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)
