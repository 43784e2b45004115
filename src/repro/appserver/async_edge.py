"""The event-loop edge: one thread owns every connection.

The thread-per-connection front (:meth:`ThreadedAppServer.listen`) pins
a worker for a connection's whole keep-alive lifetime — mostly spent
idle, waiting for the next request.  This module inverts the shape: a
single asyncio event loop owns *all* accepted sockets and builds the
pages it has measured to be short; worker threads take only work that
waits or has not been measured.

Each accepted socket is one :class:`_EdgeConnection`, an
:class:`asyncio.Protocol` the loop calls back when bytes arrive.  The
read callback feeds the connection's sans-IO parser and triages every
request it completes with the front controller's own pipeline
(:meth:`FrontController.begin` and :meth:`FrontController.open_stream`
on the loop, the stream's chunks on the loop or a worker,
:meth:`FrontController.complete` on a worker, each continuing from the
same state), cheapest first:

1. **inline** — ``begin(request, peek=True)`` routes, protects and
   looks the page cache up once; a stored page (200 or ETag 304) is
   written to the transport *inside the read callback*: no coroutine,
   task, future or timer, no thread handoff, no rendering;
2. **streamed** — on a cache miss with a streaming-capable view
   renderer, ``open_stream(state)`` — still in the read callback —
   checks the template, admits the page and claims its build: bounded
   work, no action and no render.  The head (chunked transfer
   encoding) is written right there, before any chunk is built.  The
   request's task then builds the page in one of two places, chosen
   per page id (the mapping's, not the cache key's):

   - *on the loop*, when the page's previous build had no chunk as
     long as ``sys.getswitchinterval()``, the renderer is in
     compile-time mode and the data tier does not wait
     (:meth:`FrontController.builds_only_compute`).  The task pulls
     each chunk and yields once, so a hit on another connection waits
     at most one chunk; it writes what it holds at most once per
     switch interval and when the page ends, since each write costs
     the reader a wakeup.  Under the GIL a
     worker adds no parallel compute to a pure-Python page, only
     hand-offs; and a worker-built chunk already keeps the loop off
     the GIL for up to one chunk or one switch interval, so the loop
     never makes a hit wait longer than that;
   - *on a worker* otherwise — a page never built yet (it is measured
     before it is trusted), a runtime-mode transformation, a data tier
     with ``io_delay`` (a worker overlaps those waits, the loop would
     serialise them) or a chunk over the budget: the stream's one hop,
     each rendered chunk crossing back to the loop as it completes.

   An exception raised while opening a stream is answered like a
   worker's: a 500 and a close;
3. **buffered** — everything else (operations, redirects, 404 and
   403, ``X-Trace`` requests, ``/_status``, misses without streaming,
   and a miss whose build another request holds — that follower waits
   on a worker, never on the loop) goes to a worker once, comes back
   from ``complete`` whole and is written out with a
   ``Content-Length``.

Paths 2 and 3 are the task path: the request gets one task, which
owns the connection until its response is written.  Reading pauses
meanwhile, so a connection answers its requests strictly in order —
pipelined requests parsed behind it wait in the connection's queue,
and a malformed one gets its 400 (and a close) after every response
before it.  Flow control is the transport's: ``pause_writing`` pauses
reading (and the inline answers) until ``resume_writing``; the task
path's ``drain`` waits for the same signal and fails once the peer is
gone, which is what stops a stream for a vanished reader.  The idle
timeout is one timer per connection that re-arms itself from the last
read or task-path response; a connection with a request in flight or
queued is never idle.

An application without a staged front controller — a bare ``handle``,
or a wrapper whose ``handle`` must see every request, like the fleet's
:class:`~repro.appserver.fleet.ReplicaGate` — gets ``app.handle`` on a
worker for every request.

Protocol behaviour — parsing, keep-alive, session cookies, encoding —
is the same sans-IO :mod:`repro.httpcore` machine the threaded edge
uses, which is what makes the two edges' *buffered* responses
byte-identical by construction (E19's oracle, whose async app renders
through a plain function: a renderer without ``stream_chunks`` is
never streamed).  A streamed miss is framed differently on purpose and
carries no validator: no ``ETag``, no gzip negotiation, and a 200 even
to a matching ``If-None-Match`` — its de-chunked body is the buffered
body, and the revisit is served from the stored entry with all three.  The edge keeps its own metrics registry (open
connections, inline hits, streamed bytes, time-to-first-byte) and
exports it as an ``edge`` collector on the application's ``/_status``.

The loop runs in a daemon thread so synchronous tests and benchmarks
can drive the server with blocking clients.
"""

from __future__ import annotations

import asyncio
import sys
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor

from repro.errors import ContainerError
from repro.httpcore import (
    HttpConnection,
    LAST_CHUNK,
    ProtocolError,
    encode_chunk,
    encode_simple,
    http_date,
)
from repro.mvc.http import HttpResponse
from repro.obs.metrics import MetricsRegistry

#: sentinel closing a stream's chunk queue
_EOF = object()


class AsyncAppServer:
    """An asyncio edge in front of a (threaded) application.

    ``app`` is anything with ``handle(request) -> HttpResponse``; when
    it has a ``front`` controller the edge drives that pipeline's
    ``begin`` / ``open_stream`` / ``complete`` steps for the inline,
    streamed and buffered paths.
    ``workers`` bounds the compute pool — the *same* number the
    threaded edge gets in E19, so the comparison isolates what owns
    the idle connections, not how much computes.
    """

    def __init__(self, app, workers: int = 4, idle_timeout: float = 5.0):
        if workers <= 0:
            raise ContainerError("the async edge needs at least one worker")
        self.app = app
        self.workers = workers
        self.idle_timeout = idle_timeout
        self._front = getattr(app, "front", None)
        self._pool: ThreadPoolExecutor | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._loop_thread: threading.Thread | None = None
        self._server: asyncio.AbstractServer | None = None
        self._address: tuple | None = None
        self._started = threading.Event()
        self._stop_event: asyncio.Event | None = None
        #: open connections, touched only on the loop thread
        self._live: set[_EdgeConnection] = set()
        #: page id → seconds its last streamed build's longest chunk
        #: took; a page absent here has not been measured yet
        self._longest_chunk: dict[str, float] = {}

        self.metrics = MetricsRegistry()
        self._open_gauge = self.metrics.gauge("edge.open_connections")
        self._connections = self.metrics.counter("edge.connections_total")
        self._requests = self.metrics.counter("edge.requests_total")
        self._inline_hits = self.metrics.counter("edge.inline_hits")
        self._inline_304s = self.metrics.counter("edge.inline_304s")
        self._dispatches = self.metrics.counter("edge.worker_dispatches")
        self._failures = self.metrics.counter("edge.handler_failures")
        self._streams = self.metrics.counter("edge.streamed_responses")
        self._streamed_bytes = self.metrics.counter("edge.streamed_bytes")
        self._wire_bytes = self.metrics.counter("edge.bytes_on_wire")
        self._ttfb = self.metrics.histogram("edge.ttfb_seconds")
        app_obs = getattr(getattr(app, "ctx", None), "obs", None)
        if app_obs is not None:
            app_obs.metrics.register_collector("edge", self.stats)

    # -- lifecycle -------------------------------------------------------------

    def listen(self, host: str = "127.0.0.1", port: int = 0) -> tuple:
        """Start the loop thread and bind; returns the bound address."""
        if self._loop_thread is not None:
            raise ContainerError("async edge is already listening")
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="edge-worker"
        )
        self._loop_thread = threading.Thread(
            target=self._run_loop, args=(host, port),
            name="edge-loop", daemon=True,
        )
        self._loop_thread.start()
        if not self._started.wait(timeout=10):
            raise ContainerError("async edge failed to start")
        assert self._address is not None
        return self._address

    @property
    def address(self) -> tuple | None:
        return self._address

    def stop(self) -> None:
        """Close the listener and every connection; join the loop."""
        loop = self._loop
        if loop is not None and self._stop_event is not None:
            loop.call_soon_threadsafe(self._stop_event.set)
        if self._loop_thread is not None:
            self._loop_thread.join(timeout=10)
            self._loop_thread = None
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        self._loop = None
        self._server = None
        self._address = None
        self._started.clear()

    def __enter__(self) -> "AsyncAppServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _run_loop(self, host: str, port: int) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._serve(host, port))
        finally:
            try:
                pending = asyncio.all_tasks(loop)
                for task in pending:
                    task.cancel()
                if pending:
                    loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True)
                    )
            finally:
                loop.close()

    async def _serve(self, host: str, port: int) -> None:
        loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._server = await loop.create_server(
            lambda: _EdgeConnection(self, loop), host, port, backlog=1024
        )
        self._address = self._server.sockets[0].getsockname()
        self._started.set()
        try:
            await self._stop_event.wait()
        finally:
            self._server.close()
            connections = list(self._live)
            tasks = [c.task for c in connections if c.task is not None]
            for connection in connections:
                connection.abort()
            await asyncio.gather(*tasks, return_exceptions=True)
            # one more pass, so every aborted transport reports
            # connection_lost (and closes its socket) before the loop does
            await asyncio.sleep(0)

    # -- one request -----------------------------------------------------------

    def _answer_inline(self, request, conn: HttpConnection,
                       writer: "_EdgeConnection"):
        """Answer ``request`` on the loop as far as it can be: a stored
        page whole, a streamed miss up to its head.

        Returns None when nothing is left to do, else the request's
        worker half, ``(answer, *arguments)``: the coroutine function
        its one task runs.
        """
        self._requests.inc()
        started = time.perf_counter()
        # route + protect + one page-cache look, on the loop; a stored
        # page never leaves it
        front = self._front
        if front is None:
            return (self._answer_on_worker, request, conn, writer,
                    self.app.handle, request, started)
        state = front.begin(request, peek=True)
        if isinstance(state, HttpResponse):
            self._inline_hits.inc()  # the stored page itself
            if state.status == 304:
                self._inline_304s.inc()
            self._write_whole(request, state, conn, writer, started)
            return None
        try:
            streamed = front.open_stream(state)
        except Exception:  # handler bug: answer 500, hang up
            self._write_failure(conn, writer)
            return None
        if streamed is not None:
            head = conn.send_response(request, streamed.response,
                                      date=http_date(), chunked=True)
            writer.write(head)
            self._ttfb.record(time.perf_counter() - started)
            self._wire_bytes.inc(len(head))
            return (self._write_stream, streamed, state.mapping.page_id,
                    conn, writer)
        return (self._answer_on_worker, request, conn, writer,
                front.complete, state, started)

    async def _answer_on_worker(self, request, conn: HttpConnection,
                                writer: "_EdgeConnection", work, argument,
                                started: float) -> None:
        """The rest of the pipeline on a worker, from the loop's state,
        answered whole."""
        loop = asyncio.get_running_loop()
        self._dispatches.inc()
        try:
            response = await loop.run_in_executor(self._pool, work, argument)
        except Exception:  # handler bug: answer 500, hang up
            self._write_failure(conn, writer)
        else:
            self._write_whole(request, response, conn, writer, started)
        await writer.drain()

    def _write_failure(self, conn: HttpConnection,
                       writer: "_EdgeConnection") -> None:
        self._failures.inc()
        payload = encode_simple(500, "internal server error", date=http_date())
        conn.mark_close()
        writer.write(payload)
        self._wire_bytes.inc(len(payload))

    def _write_whole(self, request, response, conn: HttpConnection,
                     writer: "_EdgeConnection", started: float) -> None:
        payload = conn.send_response(request, response, date=http_date())
        writer.write(payload)
        self._ttfb.record(time.perf_counter() - started)
        self._wire_bytes.inc(len(payload))

    async def _write_stream(self, streamed, page_id: str,
                            conn: HttpConnection,
                            writer: "_EdgeConnection") -> None:
        """Build a streamed page and write its chunks; the read callback
        has already written its head.

        The page is built on the loop when its last build had no chunk
        as long as ``sys.getswitchinterval()`` and the front
        controller's builds only compute, else on a worker — so a page
        is measured before it is trusted (the module docstring says
        why).  Either way a reader that vanishes stops the build, and
        closing the chunk iterator releases the page-cache
        single-flight slot without storing.
        """
        self._streams.inc()
        longest = self._longest_chunk.get(page_id)
        if (longest is not None and longest < sys.getswitchinterval()
                and self._front.builds_only_compute()):
            build = self._build_on_loop
        else:
            self._dispatches.inc()
            build = self._build_on_worker
        try:
            await build(streamed, page_id, writer)
            await writer.drain()  # raises if the build stopped for a lost peer
            writer.write(LAST_CHUNK)
            self._wire_bytes.inc(len(LAST_CHUNK))
            await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            conn.mark_close()
            raise
        except Exception:
            # mid-stream failure: the head already promised a 200, so
            # the only honest signal is a truncated chunked body + close
            # (the front controller's ledger says 500)
            self._failures.inc()
            conn.mark_close()

    def _write_framed(self, framed: bytes,
                      writer: "_EdgeConnection") -> None:
        writer.write(framed)
        self._streamed_bytes.inc(len(framed))
        self._wire_bytes.inc(len(framed))

    async def _build_on_loop(self, streamed, page_id: str,
                             writer: "_EdgeConnection") -> None:
        """Pull the chunks on the loop, yielding once after each, so
        other connections wait at most one chunk.  What they add up to
        is written at most once per switch interval, counted from the
        head, and when the page ends: each write costs the reader a
        wakeup, and a page built here is short, so its body usually
        leaves in one write.  A chunk is timed on the wall clock — the
        stall the loop's other connections see."""
        chunks = streamed.chunks
        budget = sys.getswitchinterval()
        longest = None  # until a chunk has been timed
        held: list[bytes] = []  # framed, not written yet
        written = time.perf_counter()
        try:
            while True:
                started = time.perf_counter()
                chunk = next(chunks, None)
                now = time.perf_counter()
                longest = max(longest or 0.0, now - started)
                if chunk is None:
                    break
                if chunk:
                    held.append(encode_chunk(chunk.encode()))
                if held and now - written >= budget:
                    self._write_framed(b"".join(held), writer)
                    held.clear()
                    written = now
                    await writer.drain()
                await asyncio.sleep(0)
            if held:
                self._write_framed(b"".join(held), writer)
        finally:
            chunks.close()  # releases the single-flight slot
            if longest is not None:
                self._longest_chunk[page_id] = longest

    async def _build_on_worker(self, streamed, page_id: str,
                               writer: "_EdgeConnection") -> None:
        """The stream's one worker hop: the producer drains the chunk
        iterator on the pool, pushing each chunk into an asyncio queue
        via ``call_soon_threadsafe``; the loop side writes and drains,
        so a slow reader backpressures only its own connection.  The
        producer stops when the loop side leaves (``abort``) or the
        peer is gone.  A chunk is timed in thread CPU time, so that
        waiting for the GIL does not count against the page."""
        loop = asyncio.get_running_loop()
        queue: asyncio.Queue = asyncio.Queue()
        abort = threading.Event()

        def produce() -> None:
            chunks = streamed.chunks
            longest = None  # until a chunk has been timed
            try:
                while not (abort.is_set() or writer.lost):
                    started = time.thread_time()
                    chunk = next(chunks, None)
                    longest = max(longest or 0.0,
                                  time.thread_time() - started)
                    if chunk is None:
                        break
                    if chunk:
                        loop.call_soon_threadsafe(queue.put_nowait, chunk)
            except Exception as exc:
                loop.call_soon_threadsafe(queue.put_nowait, exc)
            finally:
                chunks.close()  # releases the single-flight slot
                if longest is not None:
                    self._longest_chunk[page_id] = longest
                loop.call_soon_threadsafe(queue.put_nowait, _EOF)

        # The read callback wrote the head before this task was
        # scheduled, so no worker competes for the GIL while it is
        # sent.  Opening the stream there ran only bounded steps — a
        # template lookup, the admission check, the flight claim; the
        # action, the render and a runtime-mode transformation all run
        # here, in the producer.
        producer = loop.run_in_executor(self._pool, produce)
        try:
            await writer.drain()
            while (item := await queue.get()) is not _EOF:
                if isinstance(item, Exception):
                    raise item
                self._write_framed(encode_chunk(item.encode()), writer)
                await writer.drain()
        finally:
            abort.set()
            # drain the producer so the flight slot is released before
            # the connection object is torn down
            try:
                await producer
            except asyncio.CancelledError:
                pass

    # -- observation -----------------------------------------------------------

    def stats(self) -> dict:
        return {
            "workers": self.workers,
            "open_connections": self._open_gauge.value,
            "connections_total": self._connections.value,
            "requests_total": self._requests.value,
            "inline_hits": self._inline_hits.value,
            "inline_304s": self._inline_304s.value,
            "worker_dispatches": self._dispatches.value,
            "handler_failures": self._failures.value,
            "streamed_responses": self._streams.value,
            "streamed_bytes": self._streamed_bytes.value,
            "bytes_on_wire": self._wire_bytes.value,
            "ttfb": self._ttfb.to_dict(),
        }


class _EdgeConnection(asyncio.Protocol):
    """One accepted socket, driven by the loop's callbacks.

    Requests are answered strictly in order: the read callback answers
    stored pages itself, and the first request that needs a worker gets
    one task that owns the connection — reading paused, later requests
    queued — until its response is written.  It is also the worker
    path's writer: ``write`` and ``drain`` are what the edge's response
    writers call.
    """

    def __init__(self, edge: AsyncAppServer,
                 loop: asyncio.AbstractEventLoop):
        self.edge = edge
        self.loop = loop
        self.http = HttpConnection()
        self.transport: asyncio.Transport | None = None
        self.queued: deque = deque()  # parsed, not yet answered
        self.bad_request: ProtocolError | None = None
        self.task: asyncio.Task | None = None  # the worker-path request
        self.write_paused = False
        self.writable: asyncio.Future | None = None
        self.lost = False
        self.last_active = 0.0
        self.deadline: asyncio.TimerHandle | None = None

    # -- asyncio callbacks -----------------------------------------------------

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.write = transport.write  # the writers' ``write``, unwrapped
        edge = self.edge
        edge._connections.inc()
        edge._open_gauge.inc()
        edge._live.add(self)
        self.last_active = self.loop.time()
        self.deadline = self.loop.call_later(edge.idle_timeout,
                                             self._check_idle)

    def data_received(self, data: bytes) -> None:
        self.last_active = self.loop.time()
        try:
            self.queued.extend(self.http.receive_bytes(data))
        except ProtocolError as exc:
            self.queued.extend(exc.requests)
            self.bad_request = exc
        if self.task is None:
            self._answer_queued()

    def pause_writing(self) -> None:
        self.write_paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.write_paused = False
        waiter, self.writable = self.writable, None
        if waiter is not None and not waiter.done():
            waiter.set_result(None)
        if self.task is None:
            self._answer_queued()
            self._resume_reading()

    def connection_lost(self, exc) -> None:
        self.lost = True
        self.queued.clear()
        edge = self.edge
        edge._open_gauge.dec()
        edge._live.discard(self)
        if self.deadline is not None:
            self.deadline.cancel()
            self.deadline = None
        waiter, self.writable = self.writable, None
        if waiter is not None and not waiter.done():
            waiter.set_exception(ConnectionResetError("connection lost"))

    # -- the worker path's writer ----------------------------------------------

    async def drain(self) -> None:
        """Wait until the transport takes more; raises once the peer
        is gone."""
        if self.lost:
            raise ConnectionResetError("connection lost")
        if self.write_paused:
            self.writable = self.loop.create_future()
            await self.writable

    # -- requests --------------------------------------------------------------

    def _answer_queued(self) -> None:
        """Answer parsed requests in order until one needs a worker,
        the transport asks for a pause, or the connection ends."""
        http = self.http
        while self.queued and not (http.should_close or self.write_paused):
            request = self.queued.popleft()
            deferred = self.edge._answer_inline(request, http, self)
            if deferred is not None:
                self.transport.pause_reading()
                self.task = self.loop.create_task(self._on_worker(*deferred))
                return
        if http.should_close:
            self.transport.close()
        elif self.bad_request is not None and not self.queued:
            self.transport.write(encode_simple(
                400, f"bad request: {self.bad_request}", date=http_date()
            ))
            http.mark_close()
            self.transport.close()

    async def _on_worker(self, answer, *arguments) -> None:
        try:
            await answer(*arguments)
        except ConnectionError:
            self.http.mark_close()  # the peer vanished mid-response
        finally:
            self.task = None
            self.last_active = self.loop.time()
        if not self.lost:
            self._answer_queued()
            self._resume_reading()

    def _resume_reading(self) -> None:
        if self.task is None and not self.write_paused:
            self.transport.resume_reading()

    def _check_idle(self) -> None:
        """The connection's one deadline: close after ``idle_timeout``
        with nothing read or answered, unless a request is in flight or
        queued."""
        delay = self.edge.idle_timeout
        if self.task is None and not self.queued and not self.write_paused:
            delay += self.last_active - self.loop.time()
            if delay <= 0:
                self.deadline = None
                self.transport.close()
                return
        self.deadline = self.loop.call_later(delay, self._check_idle)

    def abort(self) -> None:
        """Server shutdown: cancel the request in flight, drop the
        socket."""
        if self.task is not None:
            self.task.cancel()
        self.transport.abort()
