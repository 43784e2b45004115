"""The thread-per-connection socket front for the application tier.

The paper's runtime exists to serve "a high number of users" (§1): the
servlet container hands each incoming connection to a worker thread,
and every tier below — pooled connections, shared business components,
the two-level cache — is built to be shared by those threads.  A
:class:`ThreadedAppServer` is that container's socket edge in its
classic shape: :meth:`~ThreadedAppServer.listen` gives each accepted
connection a worker slot for its whole keep-alive lifetime, with
protocol state delegated to the shared sans-IO :mod:`repro.httpcore`
machine (the same parser/encoder/keep-alive logic the async edge uses,
so the two edges emit byte-identical buffered responses by
construction).  A connection holds its slot while idle between
requests — the architectural cost E19 measures against the event-loop
edge.
"""

from __future__ import annotations

import socket
import threading

from repro.errors import ContainerError
from repro.httpcore import (
    HttpConnection,
    ProtocolError,
    encode_simple,
    http_date,
)
from repro.mvc.http import HttpResponse
from repro.obs.metrics import MetricsRegistry
from repro.util import shut_socket


class ThreadedAppServer:
    """Serves an application over HTTP, one thread per connection.

    ``app`` is anything with ``handle(request) -> HttpResponse`` (a
    :class:`~repro.app.WebApplication`, with or without a deployed
    business tier).  Call :meth:`listen` to start serving and
    :meth:`stop` (or leave the ``with`` block) to stop.
    """

    def __init__(self, app, workers: int = 4, idle_timeout: float = 5.0):
        if workers <= 0:
            raise ContainerError("an app server needs at least one worker")
        self.app = app
        self.workers = workers
        self.idle_timeout = idle_timeout
        self._lock = threading.Lock()
        # a worker slot per live connection
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._conn_slots: threading.Semaphore | None = None
        self._open_sockets: set[socket.socket] = set()
        self._stopping = False
        self.requests_served = 0
        self.failures = 0  # requests whose handler raised (bugs, not 4xx/5xx)
        # Delivery-tier observability: what actually crossed the wire.
        # Counters live in a per-server registry (a restarted server
        # starts from zero without disturbing the application's
        # metrics); the snapshot is exported into the application's
        # registry as an ``appserver`` collector for ``/_status``.
        self.metrics = MetricsRegistry()
        self._bytes_counter = self.metrics.counter("appserver.bytes_on_wire")
        app_obs = getattr(getattr(app, "ctx", None), "obs", None)
        if app_obs is not None:
            app_obs.metrics.register_collector("appserver", self.stats)

    # -- lifecycle -----------------------------------------------------------

    def stop(self) -> None:
        """Close the listener and every open connection; join the
        accept thread.  The application stays open: its owner closes it
        (servers are routinely restarted against a live application)."""
        self._stopping = True
        if self._listener is not None:
            shut_socket(self._listener)
            self._listener = None
        with self._lock:
            open_sockets = list(self._open_sockets)
        for sock in open_sockets:
            shut_socket(sock)
        if self._conn_slots is not None:
            # the accept thread may be waiting for a slot: hand it one,
            # and it sees ``_stopping``
            self._conn_slots.release()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
            self._accept_thread = None
        self._stopping = False

    def __enter__(self) -> "ThreadedAppServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _count_response(self, response: HttpResponse) -> None:
        """Delivery counters for one response written to the wire."""
        self.metrics.counter(f"appserver.status.{response.status}").inc()
        self._bytes_counter.inc(response.wire_length)

    # -- the socket front ------------------------------------------------------

    def listen(self, host: str = "127.0.0.1", port: int = 0) -> tuple:
        """Serve HTTP over a real socket, thread-per-connection.

        Each accepted connection takes one of ``workers`` slots for its
        *entire* keep-alive lifetime — the classic servlet-container
        shape, where an idle keep-alive connection still pins a thread.
        Excess connections queue in the listen backlog until a slot
        frees.  Protocol behaviour (parsing, keep-alive vs close,
        session cookies, response encoding) is entirely the shared
        :mod:`repro.httpcore` machine.  Returns the bound address.
        """
        if self._listener is not None:
            raise ContainerError("app server is already listening")
        self._conn_slots = threading.Semaphore(self.workers)
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen(128)
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, args=(listener,),
            name="appserver-accept", daemon=True,
        )
        self._accept_thread.start()
        return listener.getsockname()

    @property
    def address(self) -> tuple | None:
        """The bound (host, port) of the socket front, if listening."""
        return self._listener.getsockname() if self._listener else None

    def _accept_loop(self, listener: socket.socket) -> None:
        while True:
            # take the slot *before* accepting: connections past the
            # worker count wait in the kernel backlog, which is exactly
            # the thread-per-connection bottleneck E19 measures
            self._conn_slots.acquire()
            if self._stopping:
                return
            try:
                sock, _addr = listener.accept()
            except OSError:  # listener shut down by stop()
                self._conn_slots.release()
                return
            with self._lock:
                self._open_sockets.add(sock)
            threading.Thread(
                target=self._serve_connection, args=(sock,),
                name="appserver-conn", daemon=True,
            ).start()

    def _serve_connection(self, sock: socket.socket) -> None:
        conn = HttpConnection()
        sock.settimeout(self.idle_timeout)
        try:
            while not conn.should_close and not self._stopping:
                try:
                    data = sock.recv(65536)
                except (socket.timeout, OSError):
                    break
                if not data:
                    break
                bad_request = None
                try:
                    requests = conn.receive_bytes(data)
                except ProtocolError as exc:
                    # answer what came before the bad bytes, then 400
                    requests, bad_request = exc.requests, exc
                for request in requests:
                    try:
                        response = self.app.handle(request)
                    except Exception:  # handler bug: answer 500, hang up
                        with self._lock:
                            self.failures += 1
                        sock.sendall(encode_simple(
                            500, "internal server error", date=http_date()
                        ))
                        conn.mark_close()
                        break
                    self._count_response(response)
                    with self._lock:
                        self.requests_served += 1
                    sock.sendall(conn.send_response(
                        request, response, date=http_date()
                    ))
                    if conn.should_close:
                        break
                if bad_request is not None and not conn.should_close:
                    sock.sendall(encode_simple(
                        400, f"bad request: {bad_request}", date=http_date()))
                    break
        except OSError:
            pass  # peer vanished mid-write; nothing left to tell it
        finally:
            with self._lock:
                self._open_sockets.discard(sock)
            try:
                sock.close()
            except OSError:
                pass
            self._conn_slots.release()

    # -- observation ----------------------------------------------------------

    @property
    def status_counts(self) -> dict[int, int]:
        """Responses delivered, by HTTP status (read from the registry)."""
        prefix = "appserver.status."
        return {
            int(name[len(prefix):]): value
            for name, value in self.metrics.counters(prefix).items()
        }

    @property
    def bytes_on_wire(self) -> int:
        """Total response bytes as encoded for the wire."""
        return self._bytes_counter.value

    def stats(self) -> dict:
        with self._lock:
            return {
                "workers": self.workers,
                "requests_served": self.requests_served,
                "failures": self.failures,
                "status_counts": dict(self.status_counts),
                "bytes_on_wire": self.bytes_on_wire,
            }
