"""The load generator: one thread multiplexing a few keep-alive
connections with ``selectors``.

Two loop disciplines over the same engine:

- **closed** — a connection's next request is sent when its previous
  one completes (callers that wait: saturation capacity);
- **open** — requests come due on a schedule fixed before the phase
  starts and are timed *from the due time*, so a stall delays every
  request that was due during it, not only the one in flight.

A request waits for a free connection in due order; requests of the
admin's write chain (``Req.lane``) additionally wait for the previous
chain step, like one person working through a form.
"""

from __future__ import annotations

import random
import selectors
import socket
import time
from collections import Counter, deque

from httpclient import (
    CookieJar,
    ResponseParser,
    WireError,
    connect,
    encode_request,
)
from stats import percentile

REPLY_TIMEOUT = 5.0
#: metrics are medians over windows of this many seconds
WINDOW = 1.0


class PhaseResult:
    """Everything one timed phase observed, client side."""

    def __init__(self, open_loop: bool, duration: float):
        self.open_loop = open_loop
        self.duration = duration
        self.attempted = 0
        self.errors: Counter = Counter()
        #: per group, one ``(when, seconds)`` per correct response: open
        #: loop — due time and latency from it; closed loop — completion
        #: time and round-trip time
        self.samples: dict[str, list] = {"read": [], "write": [], "probe": []}
        self.ttfb: list = []
        self.wire_bytes = 0
        self.responses = 0
        self.not_modified = 0
        self.gzipped = 0
        self.late: list = []
        self.backlog: list = []      # (seconds into phase, due-but-unsent)
        self.marks: list = []        # on_window() at 0, WINDOW, 2·WINDOW, …

    @property
    def failed(self) -> int:
        return sum(self.errors.values())

    def latencies(self, *groups: str) -> list:
        return [seconds for group in groups or self.samples
                for _when, seconds in self.samples[group]]

    def windowed(self, *groups: str) -> list[list]:
        """The samples' ``seconds`` split by ``when`` into the phase's
        whole windows.  A host stall lands in one or two windows; the
        median over windows does not see it."""
        windows = [[] for _ in range(int(self.duration / WINDOW))]
        for group in groups or self.samples:
            for when, seconds in self.samples[group]:
                index = int(when / WINDOW)
                if index < len(windows):
                    windows[index].append(seconds)
        return windows

    def load_health(self) -> dict:
        """How well the generator kept its own schedule."""
        late_p99 = percentile(self.late, 99) * 1e3 if self.late else 0.0
        quarter = self.duration / 4
        first = [b for t, b in self.backlog if t < quarter]
        last = [b for t, b in self.backlog if t >= 3 * quarter]
        growing = bool(first and last and
                       sum(last) / len(last) > sum(first) / len(first) + 1.0)
        return {
            "late_p99_ms": late_p99,
            "backlog_max": max((b for _t, b in self.backlog), default=0),
            "backlog_growing": int(growing),
        }


def due_times(rate: float, duration: float, seed: int) -> list:
    """Poisson arrivals at ``rate`` per second over ``duration``: the
    schedule exists before the first request is sent."""
    rng = random.Random(f"due/{seed}")
    times = []
    now = rng.expovariate(rate)
    while now < duration:
        times.append(now)
        now += rng.expovariate(rate)
    return times


class _Connection:
    def __init__(self, address: tuple):
        self.address = address
        self.jar = CookieJar()
        self.socket: socket.socket | None = None
        self.parser = ResponseParser()
        self.inflight: tuple | None = None  # (req, due, sent, jar)
        self.first_byte: float | None = None
        self.free_at = 0.0

    def open(self, selector) -> None:
        self.socket = connect(self.address, REPLY_TIMEOUT)
        self.parser = ResponseParser()
        selector.register(self.socket, selectors.EVENT_READ, self)

    def close(self, selector) -> None:
        if self.socket is not None:
            selector.unregister(self.socket)
            self.socket.close()
            self.socket = None


def run_phase(address: tuple, traffic, connections: int, duration: float,
              due: list | None = None, on_window=None) -> PhaseResult:
    """Drive ``traffic`` at ``address`` for ``duration`` seconds.

    With ``due`` (seconds from phase start, ascending) the phase is an
    open loop over exactly those arrivals; without it a closed loop.
    ``on_window()`` is sampled at every window boundary (the runner reads
    the server's CPU clock there) into ``PhaseResult.marks``.
    """
    result = PhaseResult(due is not None, duration)
    # select(2) takes microsecond timeouts; epoll rounds up to a whole
    # millisecond, which on hot-cached is several inter-arrival gaps
    selector = selectors.SelectSelector()
    conns = [_Connection(address) for _ in range(connections)]
    idle = deque(conns)
    pending: deque = deque()    # open loop: (req, due) awaiting a connection
    deferred: deque = deque()   # lane requests waiting for the chain
    lane_busy = False
    lane_free_at = 0.0
    next_due = 0
    clock = time.perf_counter
    started = clock()

    def take(now: float) -> tuple | None:
        """The next ``(req, due, ready)`` allowed out now, in due order."""
        if deferred and not lane_busy:
            return (*deferred.popleft(), lane_free_at)
        while True:
            if due is not None:
                if not pending:
                    return None
                item = pending.popleft()
            elif now < duration:
                item = (traffic.next(), now)
            else:
                return None
            if item[0].lane and lane_busy:
                deferred.append(item)
                continue
            return (*item, 0.0)

    def send(conn: _Connection, req, due_at: float,
             ready_at: float | None) -> None:
        """``ready_at`` is when what the request waited for (connection,
        lane) became free; ``None`` for a follow-up, which has no schedule
        to be late against."""
        nonlocal lane_busy
        req, headers, jar = traffic.prepare(req, conn.jar)
        lane_busy = lane_busy or req.lane
        result.attempted += 1
        conn.inflight = (req, due_at, clock() - started, jar)
        conn.first_byte = None
        if conn.socket is None:
            conn.open(selector)
        now = clock() - started
        conn.socket.sendall(encode_request(req.target, headers, jar.header()))
        conn.inflight = (req, due_at, now, jar)
        if result.open_loop and ready_at is not None:
            result.late.append(now - max(due_at, ready_at))

    def release(conn: _Connection, req, now: float) -> None:
        nonlocal lane_busy, lane_free_at
        if req.lane:
            lane_busy, lane_free_at = False, now
        conn.inflight = None
        conn.free_at = now
        idle.append(conn)

    def fail(conn: _Connection, reason: str, now: float) -> None:
        """The in-flight request is lost; the connection starts over."""
        result.errors[reason] += 1
        conn.close(selector)
        release(conn, conn.inflight[0], now)

    def complete(conn: _Connection, response, now: float) -> None:
        req, due_at, sent, jar = conn.inflight
        jar.absorb(response)
        result.responses += 1
        result.wire_bytes += response.wire_bytes
        if response.status == 304:
            result.not_modified += 1
        if response.headers.get("Content-Encoding") == "gzip":
            result.gzipped += 1
        error = traffic.verify(req, response)
        if error:
            result.errors[error] += 1
        else:
            result.samples[req.group].append(
                (due_at, now - due_at) if result.open_loop
                else (now, now - sent))
            result.ttfb.append(conn.first_byte - sent)
        if response.headers.get("Connection", "").lower() == "close":
            conn.close(selector)
        follow = None if error else traffic.followup(req, response)
        if follow is None:
            release(conn, req, now)
            return
        try:
            send(conn, follow, now, None)  # due the moment its cause arrived
        except OSError:
            fail(conn, "connection_error", clock() - started)

    marks_wanted = int(duration / WINDOW) + 1 if on_window else 0
    try:
        while True:
            now = clock() - started
            while len(result.marks) < marks_wanted \
                    and now >= len(result.marks) * WINDOW:
                result.marks.append(on_window())
            if due is not None:
                while next_due < len(due) and due[next_due] <= now:
                    pending.append((traffic.next(), due[next_due]))
                    next_due += 1
            elif now >= duration:
                deferred.clear()
            while idle:
                item = take(now)
                if item is None:
                    break
                conn = idle.popleft()
                req, due_at, ready_at = item
                try:
                    send(conn, req, due_at, max(ready_at, conn.free_at))
                except OSError:
                    fail(conn, "connection_error", clock() - started)
            result.backlog.append((now, len(pending) + len(deferred)))

            busy = [c for c in conns if c.inflight is not None]
            schedule_left = due is not None and next_due < len(due)
            drained = not (busy or pending or deferred or schedule_left)
            if drained and (due is not None or now >= duration):
                break
            timeout = REPLY_TIMEOUT
            if busy:
                oldest = min(c.inflight[2] for c in busy)
                timeout = oldest + REPLY_TIMEOUT - now
            if schedule_left and idle:
                timeout = min(timeout, due[next_due] - now)
            for key, _events in selector.select(max(timeout, 0.0)):
                conn = key.data
                try:
                    data = conn.socket.recv(262144)
                    now = clock() - started
                    if not data:
                        raise WireError("connection closed by the server")
                    if conn.first_byte is None:
                        conn.first_byte = now
                    responses = conn.parser.feed(data)
                except (OSError, WireError):
                    if conn.inflight is None:
                        conn.close(selector)  # an idle connection timed out
                    else:
                        fail(conn, "connection_error", clock() - started)
                    continue
                for response in responses:
                    if conn.inflight is not None:  # else: unsolicited bytes
                        complete(conn, response, now)
            now = clock() - started
            for conn in busy:
                if conn.inflight is not None \
                        and now - conn.inflight[2] > REPLY_TIMEOUT:
                    fail(conn, "no_reply", now)
        while len(result.marks) < marks_wanted:
            result.marks.append(on_window())
    finally:
        for conn in conns:
            conn.close(selector)
        selector.close()
    return result
