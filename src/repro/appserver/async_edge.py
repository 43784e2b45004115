"""The event-loop edge: one thread owns every connection.

The thread-per-connection front (:meth:`ThreadedAppServer.listen`) pins
a worker for a connection's whole keep-alive lifetime — mostly spent
idle, waiting for the next request.  This module inverts the shape: a
single asyncio event loop owns *all* accepted sockets, and threads are
spent only on work that actually computes.

The edge drives the front controller's own pipeline in two halves
(:meth:`FrontController.begin` on the loop, :meth:`FrontController.
complete` on a worker, continuing from the same state), which makes the
per-request triage, cheapest first:

1. **inline** — ``begin(request, peek=True)`` routes, protects and
   looks the page cache up once; a stored page (200 or ETag 304) is
   answered directly on the loop: no thread handoff, no rendering,
   bounded lock-cheap work;
2. **streamed** — on a cache miss with a streaming-capable view
   renderer, ``complete(state, stream=True)`` returns the response head
   plus a chunk iterator: the head and the compiled template's static
   prefix leave immediately (chunked transfer encoding) while a worker
   thread runs the unit services, each rendered slot crossing back to
   the loop as it completes;
3. **buffered** — everything else (operations, redirects, ``X-Trace``
   requests, misses without streaming) comes back from ``complete``
   whole and is written out with a ``Content-Length``.

An application without a staged front controller — a bare ``handle``,
or a wrapper whose ``handle`` must see every request, like the fleet's
:class:`~repro.appserver.fleet.ReplicaGate` — gets ``app.handle`` on a
worker for every request.

Protocol behaviour — parsing, keep-alive, session cookies, encoding —
is the same sans-IO :mod:`repro.httpcore` machine the threaded edge
uses, which is what makes the two edges' *buffered* responses
byte-identical by construction (E19's oracle, run with
``stream=False``).  A streamed miss is framed differently on purpose
and carries no validator: no ``ETag``, no gzip negotiation, and a 200
even to a matching ``If-None-Match`` — its de-chunked body is the
buffered body, and the revisit is served from the stored entry with
all three.  The edge keeps its own metrics registry (open
connections, inline hits, streamed bytes, time-to-first-byte) and
exports it as an ``edge`` collector on the application's ``/_status``.

The loop runs in a daemon thread so synchronous tests and benchmarks
can drive the server with blocking clients.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.errors import ContainerError
from repro.httpcore import (
    HttpConnection,
    LAST_CHUNK,
    ProtocolError,
    StreamedPage,
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
    ``begin`` / ``complete`` halves for the inline and streamed paths.
    ``workers`` bounds the compute pool — the *same* number the
    threaded edge gets in E19, so the comparison isolates what owns
    the idle connections, not how much computes.
    """

    def __init__(self, app, workers: int = 4, idle_timeout: float = 5.0,
                 stream: bool = True):
        if workers <= 0:
            raise ContainerError("the async edge needs at least one worker")
        self.app = app
        self.workers = workers
        self.idle_timeout = idle_timeout
        self.stream = stream
        self._front = getattr(app, "front", None)
        self._pool: ThreadPoolExecutor | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._loop_thread: threading.Thread | None = None
        self._server: asyncio.AbstractServer | None = None
        self._address: tuple | None = None
        self._started = threading.Event()
        self._stop_event: asyncio.Event | None = None

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
        self._stop_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, host, port, backlog=1024
        )
        self._address = self._server.sockets[0].getsockname()
        self._started.set()
        async with self._server:
            await self._stop_event.wait()

    # -- the connection loop ---------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        conn = HttpConnection()
        self._connections.inc()
        self._open_gauge.inc()
        try:
            while not conn.should_close:
                try:
                    data = await asyncio.wait_for(
                        reader.read(65536), timeout=self.idle_timeout
                    )
                except (asyncio.TimeoutError, ConnectionError):
                    break
                if not data:
                    break
                try:
                    requests = conn.receive_bytes(data)
                except ProtocolError as exc:
                    writer.write(encode_simple(
                        400, f"bad request: {exc}", date=http_date()
                    ))
                    await writer.drain()
                    break
                for request in requests:
                    await self._serve_request(request, conn, writer)
                    if conn.should_close:
                        break
        except (ConnectionError, asyncio.CancelledError):
            pass  # peer vanished or server stopping
        finally:
            self._open_gauge.dec()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_request(self, request, conn: HttpConnection,
                             writer: asyncio.StreamWriter) -> None:
        self._requests.inc()
        started = time.perf_counter()

        # 1. inline: route + protect + one page-cache look, on the loop;
        # a stored page never leaves it
        front = self._front
        if front is None:
            work, argument = self.app.handle, request
        else:
            state = front.begin(request, peek=True)
            if isinstance(state, HttpResponse):  # the stored page itself
                self._inline_hits.inc()
                if state.status == 304:
                    self._inline_304s.inc()
                self._write_whole(request, state, conn, writer, started)
                await writer.drain()
                return
            work, argument = self._complete, state

        # 2/3. the rest of the pipeline on a worker, from that state; a
        # StreamedPage comes back early, an HttpResponse complete
        loop = asyncio.get_running_loop()
        self._dispatches.inc()
        try:
            result = await loop.run_in_executor(self._pool, work, argument)
        except Exception:  # handler bug: answer 500, hang up
            self._failures.inc()
            payload = encode_simple(
                500, "internal server error", date=http_date()
            )
            conn.mark_close()
            writer.write(payload)
            self._wire_bytes.inc(len(payload))
            await writer.drain()
            return
        if isinstance(result, StreamedPage):
            await self._write_stream(request, result, conn, writer, started)
            return
        self._write_whole(request, result, conn, writer, started)
        await writer.drain()

    def _complete(self, state):
        """Worker-thread entry: streamed when possible, else buffered."""
        return self._front.complete(state, stream=self.stream)

    def _write_whole(self, request, response, conn: HttpConnection,
                     writer: asyncio.StreamWriter, started: float) -> None:
        payload = conn.send_response(request, response, date=http_date())
        writer.write(payload)
        self._ttfb.record(time.perf_counter() - started)
        self._wire_bytes.inc(len(payload))

    async def _write_stream(self, request, streamed, conn: HttpConnection,
                            writer: asyncio.StreamWriter,
                            started: float) -> None:
        """Send the head now, then relay chunks as a worker renders them.

        The producer runs on the worker pool, pushing rendered chunks
        into an asyncio queue via ``call_soon_threadsafe``; the loop
        side writes and drains, so a slow reader backpressures only its
        own connection.  A reader that disconnects mid-stream flips
        ``abort`` — the producer stops rendering and the generator's
        ``close()`` releases the page-cache single-flight slot.
        """
        self._streams.inc()
        loop = asyncio.get_running_loop()
        queue: asyncio.Queue = asyncio.Queue()
        abort = threading.Event()
        done = {"completed": False}

        def produce() -> None:
            try:
                for chunk in streamed.chunks:
                    if abort.is_set():
                        return
                    if chunk:
                        loop.call_soon_threadsafe(queue.put_nowait, chunk)
                done["completed"] = True
            except Exception as exc:
                loop.call_soon_threadsafe(queue.put_nowait, exc)
            finally:
                streamed.chunks.close()  # releases the single-flight slot
                loop.call_soon_threadsafe(queue.put_nowait, _EOF)

        head = conn.send_response(request, streamed.response,
                                  date=http_date(), chunked=True)
        # The second hand-off stays: returning from the first one is
        # where the worker yields the GIL, so the loop can put the head
        # on the wire *before* the unit services run.  Rendering inside
        # the first hop saved a wake-up and cost the early first byte
        # (p50 0.23 ms -> 0.58 ms).
        producer = loop.run_in_executor(self._pool, produce)
        try:
            writer.write(head)
            self._ttfb.record(time.perf_counter() - started)
            self._wire_bytes.inc(len(head))
            await writer.drain()
            while True:
                item = await queue.get()
                if item is _EOF:
                    break
                if isinstance(item, Exception):
                    # mid-stream failure: the head already promised a
                    # 200, so the only honest signal is a truncated
                    # chunked body + close (the front controller's
                    # ledger says 500)
                    self._failures.inc()
                    conn.mark_close()
                    return
                framed = encode_chunk(item.encode())
                writer.write(framed)
                self._streamed_bytes.inc(len(framed))
                self._wire_bytes.inc(len(framed))
                await writer.drain()
            writer.write(LAST_CHUNK)
            self._wire_bytes.inc(len(LAST_CHUNK))
            await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            conn.mark_close()
            raise
        finally:
            abort.set()
            # drain the producer so the flight slot is released before
            # the connection object is torn down
            try:
                await producer
            except asyncio.CancelledError:
                pass
            if not done["completed"]:
                conn.mark_close()

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
