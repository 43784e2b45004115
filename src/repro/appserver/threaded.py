"""A threaded request front end for the application tier.

The paper's runtime exists to serve "a high number of users" (§1): the
servlet container dispatches each incoming request to a worker thread,
and every tier below — pooled connections, shared business components,
the two-level cache — is built to be shared by those threads.  This
module is that dispatch layer for the reproduction: a
:class:`ThreadedAppServer` owns N worker threads which pull
:class:`~repro.mvc.http.HttpRequest` objects off a queue and run them
through the application's full request path concurrently.

Experiment E13 drives it to show that read-heavy traffic scales with
workers (threads overlap the data tier's simulated I/O waits) while
write-heavy traffic stays linearizable on the rdb tier's write lock.

:meth:`ThreadedAppServer.listen` adds a real socket front in the
classic thread-per-connection shape: each accepted connection gets a
worker slot for its whole keep-alive lifetime, protocol state
delegated to the shared sans-IO :mod:`repro.httpcore` machine (the
same parser/encoder/keep-alive logic the async edge uses, so the two
edges emit byte-identical buffered responses by construction).  A connection
holds its slot while idle between requests — the architectural cost
E19 measures against the event-loop edge.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from concurrent.futures import Future

from repro.errors import ContainerError
from repro.httpcore import (
    HttpConnection,
    ProtocolError,
    encode_simple,
    http_date,
)
from repro.mvc.http import HttpRequest, HttpResponse
from repro.obs.metrics import MetricsRegistry

_STOP = object()


class ThreadedAppServer:
    """Dispatches requests across a pool of worker threads.

    ``app`` is anything with ``handle(request) -> HttpResponse`` (a
    :class:`~repro.app.WebApplication`, with or without a deployed
    business tier).  Use as a context manager, or call :meth:`start` /
    :meth:`stop` explicitly.
    """

    def __init__(self, app, workers: int = 4, queue_capacity: int = 0,
                 idle_timeout: float = 5.0):
        if workers <= 0:
            raise ContainerError("an app server needs at least one worker")
        self.app = app
        self.workers = workers
        self.idle_timeout = idle_timeout
        self._queue: queue.Queue = queue.Queue(queue_capacity)
        self._threads: list[threading.Thread] = []
        self._lock = threading.Lock()
        # socket front (listen()): a worker slot per live connection
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._conn_slots: threading.Semaphore | None = None
        self._open_sockets: set[socket.socket] = set()
        self._stopping = False
        self.requests_served = 0
        self.failures = 0  # requests whose handler raised (bugs, not 4xx/5xx)
        self.served_per_worker: list[int] = []
        self.total_queue_wait_seconds = 0.0
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

    @property
    def running(self) -> bool:
        return bool(self._threads)

    def start(self) -> "ThreadedAppServer":
        if self._threads:
            raise ContainerError("app server already started")
        self.served_per_worker = [0] * self.workers
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._work, args=(index,),
                name=f"appserver-worker-{index}", daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        return self

    def stop(self, close_app: bool = False) -> None:
        """Drain the workers and join them.

        With ``close_app=True`` the application itself is shut down
        after the last worker exits (``app.close()``), which flushes and
        closes a durable data tier deterministically — every commit the
        workers acknowledged is on disk before ``stop`` returns.  The
        default leaves the application running (seed behaviour: servers
        are routinely restarted against a live application)."""
        self._stopping = True
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None
        with self._lock:
            open_sockets = list(self._open_sockets)
        for sock in open_sockets:
            try:
                sock.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
            self._accept_thread = None
        if self._threads:
            for _ in self._threads:
                self._queue.put(_STOP)
            for thread in self._threads:
                thread.join()
            self._threads = []
        self._stopping = False
        if close_app:
            close = getattr(self.app, "close", None)
            if close is not None:
                close()

    def __enter__(self) -> "ThreadedAppServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- dispatch ------------------------------------------------------------

    def submit(self, request: HttpRequest) -> Future:
        """Enqueue one request; the future resolves to its response."""
        if not self._threads:
            raise ContainerError("app server is not running")
        future: Future = Future()
        self._queue.put((request, future, time.monotonic()))
        return future

    def get(self, url: str, session_id: str | None = None,
            headers: dict | None = None) -> Future:
        return self.submit(HttpRequest.from_url(
            url, headers=headers, session_id=session_id
        ))

    def serve(self, requests, timeout: float | None = None) -> list[HttpResponse]:
        """Submit every request and wait for all responses, in order."""
        futures = [self.submit(request) for request in requests]
        return [future.result(timeout) for future in futures]

    def _work(self, index: int) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP:
                return
            request, future, enqueued_at = item
            waited = time.monotonic() - enqueued_at
            try:
                response = self.app.handle(request)
            except BaseException as exc:  # surface to the submitter
                with self._lock:
                    self.failures += 1
                future.set_exception(exc)
            else:
                with self._lock:
                    self.requests_served += 1
                    self.served_per_worker[index] += 1
                    self.total_queue_wait_seconds += waited
                self._count_response(response)
                future.set_result(response)

    def _count_response(self, response: HttpResponse) -> None:
        """Delivery counters, shared by the queue and socket fronts."""
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
            try:
                sock, _addr = listener.accept()
            except OSError:  # listener closed by stop()
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
                try:
                    requests = conn.receive_bytes(data)
                except ProtocolError as exc:
                    sock.sendall(encode_simple(400, f"bad request: {exc}",
                                               date=http_date()))
                    break
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
                "served_per_worker": list(self.served_per_worker),
                "total_queue_wait_seconds": self.total_queue_wait_seconds,
                "status_counts": dict(self.status_counts),
                "bytes_on_wire": self.bytes_on_wire,
            }
