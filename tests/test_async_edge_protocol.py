"""The async edge's connection protocol over real sockets.

``test_async_edge.py`` covers the triage (inline, streamed, buffered)
and the two edges' byte identity; here is what the connection itself
owes a client whatever path a request takes:

- shutdown: ``stop()`` with keep-alive connections still open returns
  promptly and leaves nothing on the ``asyncio`` logger;
- the idle timeout: an idle keep-alive connection is closed, a
  connection whose response is still being built is not;
- a page-cache hit is answered in the read callback, with no task,
  future or timer;
- a streamed miss is opened in the read callback too: its head and
  static prefix leave while the first dynamic slot is still held.  A
  page's first build is one executor submission; a page measured as
  short is built on the loop, with none, unless its data tier waits
  (``io_delay``) or its last loop-built chunk ran past the switch
  interval.  Everything served buffered (``X-Trace``, an operation,
  the follower of a held build) is one submission, with the threaded
  edge's bytes; the sampling countdown is drawn once per request;
- order: pipelined requests are answered in the order they were sent,
  a page-cache hit behind a worker-path miss included, and a malformed
  request gets its 400 and close only after the responses before it;
- the per-response constants both edges share: the memoized ``Date``
  text and the bounded header-name memo.
"""

from __future__ import annotations

import logging
import socket
import sys
import threading
import time
from collections import Counter
from email.utils import formatdate, parsedate_to_datetime

import pytest

from repro.appserver import AsyncAppServer, ThreadedAppServer
from repro.httpcore import http_date, parsing, wire
from repro.httpcore.client import WireClient, WireError
from tests.test_async_edge import (
    _GatedRenderer,
    build_full_stack_app,
    volume_url,
)


def _count_submissions(edge: AsyncAppServer) -> list:
    """Record every callable the edge hands its worker pool."""
    submitted = []
    pool = edge._pool
    original = pool.submit

    def submit(fn, *args, **kwargs):
        submitted.append(fn)
        return original(fn, *args, **kwargs)

    pool.submit = submit
    return submitted


def _without(raw: bytes, *names: bytes) -> bytes:
    """The wire response minus the named header lines."""
    return b"\r\n".join(line for line in raw.split(b"\r\n")
                        if not line.startswith(names))


def _await_eof(client: WireClient) -> None:
    """The server closes the connection: reading raises on EOF (or a
    reset) within the client's timeout, never a response."""
    with pytest.raises(WireError, match="server closed"):
        client.read_response()


class TestShutdown:
    def test_stop_with_open_keep_alive_logs_nothing(self, caplog):
        """One connection served and closed, one served and left open:
        ``stop()`` is prompt and quiet.  Rounds repeat because the
        close races the stop (the old edge logged a cancelled
        connection task when the stop found it closing)."""
        app = build_full_stack_app()
        url = volume_url(app)
        for _round in range(10):
            edge = AsyncAppServer(app, workers=2)
            address = edge.listen()
            closed, kept = WireClient(address), WireClient(address)
            try:
                assert closed.request(url).status == 200
                assert kept.request(url).status == 200
                closed.close()
                time.sleep(0)  # let the loop thread see the close first
                with caplog.at_level(logging.INFO, logger="asyncio"):
                    started = time.monotonic()
                    edge.stop()
                    elapsed = time.monotonic() - started
            finally:
                kept.close()
                edge.stop()
            assert elapsed < 2.0, f"stop() took {elapsed:.2f}s"
            logged = [record.getMessage() for record in caplog.records
                      if record.name.startswith("asyncio")]
            assert logged == []

    def test_stop_beside_a_reader_that_stopped_reading(self):
        """A client pipelines more hits than the socket buffers hold and
        reads none: the connection waits on flow control, and ``stop()``
        drops it instead of waiting for a flush that never comes."""
        app = build_full_stack_app()
        url = volume_url(app)
        edge = AsyncAppServer(app, workers=2)
        address = edge.listen()
        stalled = socket.socket()
        try:
            with WireClient(address) as warm:
                warm.request(url)  # stores the page: every request a hit
            stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            stalled.settimeout(5.0)
            stalled.connect(address)
            stalled.sendall(warm.build_request(url) * 1500)
            served, deadline = 1, time.monotonic() + 5.0
            while time.monotonic() < deadline:  # until the writes stall
                time.sleep(0.1)
                answered = edge.stats()["requests_total"]
                if answered == served > 1:
                    break
                served = answered
            assert 1 < served < 1500
            started = time.monotonic()
            edge.stop()
            elapsed = time.monotonic() - started
        finally:
            stalled.close()
            edge.stop()
        assert elapsed < 2.0, f"stop() took {elapsed:.2f}s"


class TestIdleTimeout:
    def test_idle_keep_alive_connection_is_closed(self):
        app = build_full_stack_app()
        with AsyncAppServer(app, workers=2, idle_timeout=0.2) as edge:
            with WireClient(edge.listen(), timeout=5.0) as client:
                assert client.request(volume_url(app)).status == 200
                started = time.monotonic()
                _await_eof(client)
                waited = time.monotonic() - started
        assert 0.1 <= waited < 3.0, f"closed after {waited:.2f}s idle"

    def test_a_held_miss_is_not_cut(self):
        """The stream's first dynamic chunk parks on a gate for three
        idle timeouts: the response arrives whole, and the connection
        still serves the next request."""
        app = build_full_stack_app()
        gate = threading.Event()
        app.front.view_renderer = _GatedRenderer(
            app.front.view_renderer, gate
        )
        url = volume_url(app)
        release = threading.Timer(0.6, gate.set)
        with AsyncAppServer(app, workers=2, idle_timeout=0.2) as edge:
            with WireClient(edge.listen(), timeout=5.0) as client:
                release.start()
                try:
                    held = client.request(url)
                finally:
                    release.join(timeout=5.0)
                assert not release.is_alive()
                assert held.status == 200
                assert held.headers["Transfer-Encoding"] == "chunked"
                again = client.request(url)  # an inline hit
        assert again.status == 200
        assert held.body == again.body
        assert held.text == app.get(url).body


class TestInlineHit:
    def test_a_hit_costs_the_loop_no_task_future_or_timer(self):
        """A stored page is answered inside the read callback.  (The
        idle deadline is far off, so its one re-arm cannot fall inside
        the counted window.)"""
        app = build_full_stack_app()
        url = volume_url(app)
        with AsyncAppServer(app, workers=2, idle_timeout=60.0) as edge:
            with WireClient(edge.listen()) as client:
                client.request(url)  # a streamed miss stores the page
                loop = edge._loop
                made = Counter()

                def counting(name):
                    original = getattr(loop, name)

                    def counted(*args, **kwargs):
                        made[name] += 1
                        return original(*args, **kwargs)

                    return counted

                for name in ("create_task", "create_future", "call_later",
                             "call_at"):
                    setattr(loop, name, counting(name))
                hits_before = edge.stats()["inline_hits"]
                for _ in range(20):
                    assert client.request(url).status == 200
                hits = edge.stats()["inline_hits"] - hits_before
                made_by_hits = dict(made)
        assert hits == 20
        assert made_by_hits == {}


class _BurningRenderer:
    """Wraps the real (compile-time) renderer; while ``burn`` is set,
    a stream's second chunk spins the CPU for twice the switch
    interval before it is handed out."""

    def __init__(self, inner):
        self.inner = inner
        self.mode = inner.mode
        self.fragment_cache = inner.fragment_cache
        self.burn = False

    def __call__(self, *args, **kwargs):
        return self.inner(*args, **kwargs)

    def stream_chunks(self, *args):
        chunks = self.inner.stream_chunks(*args)
        if not self.burn:
            return chunks

        def burning():
            try:
                yield next(chunks)
                deadline = time.perf_counter() + 2 * sys.getswitchinterval()
                while time.perf_counter() < deadline:
                    pass
                yield from chunks
            finally:
                chunks.close()

        return burning()


def _submissions_per_miss(app, url: str, misses: int, prepare=None) -> list:
    """Serve ``url`` as a streamed page-cache miss ``misses`` times on
    one connection; the executor submissions each miss made.
    ``prepare(number)`` runs before miss ``number``.  The page is
    rendered in process first, so the edge's first build does not plan
    the statements (a cold build may run past the switch interval)."""
    expected = app.get(url).body
    per_miss = []
    with AsyncAppServer(app, workers=2) as edge:
        with WireClient(edge.listen()) as client:
            submitted = _count_submissions(edge)
            for number in range(misses):
                app.page_cache.flush()
                if prepare is not None:
                    prepare(number)
                before = len(submitted)
                response = client.request(url)
                per_miss.append(len(submitted) - before)
                assert response.headers["Transfer-Encoding"] == "chunked"
                assert response.text == expected
            stats = edge.stats()
    assert stats["worker_dispatches"] == sum(per_miss)
    assert stats["streamed_responses"] == misses
    return per_miss


class TestOneHopStream:
    def test_a_measured_page_is_built_on_the_loop(self):
        """A page's first streamed build is measured on a worker (one
        submission); its next builds run on the loop (none)."""
        app = build_full_stack_app()
        assert _submissions_per_miss(app, volume_url(app), 3) == [1, 0, 0]

    def test_a_page_that_waits_is_built_on_a_worker(self):
        """With a data tier that waits, every build is one
        submission: a worker overlaps the waits."""
        app = build_full_stack_app()
        app.database.io_delay = 0.001
        assert _submissions_per_miss(app, volume_url(app), 3) == [1, 1, 1]

    def test_a_chunk_over_the_switch_interval_sends_the_page_back(self):
        """The second build runs on the loop and one of its chunks
        burns twice the switch interval: the third build is one
        submission again."""
        app = build_full_stack_app()
        renderer = _BurningRenderer(app.front.view_renderer)
        app.front.view_renderer = renderer

        def burn_on_the_second(number):
            renderer.burn = number == 1

        assert _submissions_per_miss(app, volume_url(app), 3,
                                     burn_on_the_second) == [1, 0, 1]

    def test_head_and_prefix_arrive_while_the_first_slot_is_held(self):
        app = build_full_stack_app()
        gate = threading.Event()
        app.front.view_renderer = _GatedRenderer(
            app.front.view_renderer, gate
        )
        url = volume_url(app)
        page_id = app.controller.resolve(url.split("?")[0]).page_id
        template = app.front.view_renderer.inner.template_for(page_id)
        static_prefix = next(template.render_chunks(None))
        with AsyncAppServer(app, workers=2) as edge:
            with WireClient(edge.listen(), timeout=5.0) as client:
                try:
                    client.send_raw(client.build_request(url))
                    raw = bytearray()
                    head = client._read_until(b"\r\n\r\n", raw)
                    size = int(client._read_until(b"\r\n", raw), 16)
                    prefix = client._read_exact(size + 2, raw)[:-2]
                    held = not gate.is_set() and bool(
                        app.page_cache._in_flight)
                finally:
                    gate.set()
                rest = client._read_chunked(raw)
        assert head.startswith(b"HTTP/1.1 200")
        assert b"Transfer-Encoding: chunked" in head
        assert held  # the build was still parked on the gate
        assert prefix == static_prefix.encode()
        assert (prefix + rest).decode() == app.get(url).body
        assert not app.page_cache._in_flight

    @pytest.mark.parametrize("case", ["x-trace", "operation"])
    def test_buffered_requests_are_one_submission_with_the_same_bytes(
            self, case):
        """What cannot stream keeps its one hop to ``complete`` and the
        bytes the threaded edge sends for it (``Date`` aside, and the
        timings of an ``X-Trace`` summary)."""
        apps = build_full_stack_app(), build_full_stack_app()
        if case == "x-trace":
            target, headers = volume_url(apps[0]), {"X-Trace": "1"}
        else:
            target, headers = apps[0].operation_url(
                "admin", "Login", {"username": "admin", "password": "secret"}
            ), {}
        threaded = ThreadedAppServer(apps[0], workers=2)
        try:
            with WireClient(threaded.listen()) as client:
                expected = client.request(target, headers=dict(headers))
        finally:
            threaded.stop()
        with AsyncAppServer(apps[1], workers=2) as edge:
            with WireClient(edge.listen()) as client:
                submitted = _count_submissions(edge)
                got = client.request(target, headers=dict(headers))
        assert len(submitted) == 1
        assert "Transfer-Encoding" not in got.headers
        assert got.status == (200 if case == "x-trace" else 302)
        assert (_without(got.raw, b"Date: ", b"X-Trace: ")
                == _without(expected.raw, b"Date: ", b"X-Trace: "))

    def test_follower_of_a_held_build_is_one_submission(self):
        """A miss whose build another stream holds waits for it on a
        worker and gets the stored page, as a threaded hit would."""
        app = build_full_stack_app()
        gate = threading.Event()
        app.front.view_renderer = _GatedRenderer(
            app.front.view_renderer, gate
        )
        url = volume_url(app)
        cache, refused = app.page_cache, []
        claim = cache._claim

        def claim_and_report(key):
            leader_event = claim(key)
            if leader_event is not None:
                refused.append(key)  # a follower of the held build
            return leader_event

        cache._claim = claim_and_report
        with AsyncAppServer(app, workers=2) as edge:
            address = edge.listen()
            with WireClient(address, timeout=5.0) as leader, \
                    WireClient(address, timeout=5.0) as follower:
                submitted = _count_submissions(edge)
                try:
                    leader.send_raw(leader.build_request(url))
                    leader._read_until(b"\r\n\r\n", bytearray())
                    follower.send_raw(follower.build_request(url))
                    # refused twice: the loop's open_stream, then the
                    # worker's get_or_build, which parks on the flight
                    deadline = time.monotonic() + 5.0
                    while len(refused) < 2 and time.monotonic() < deadline:
                        time.sleep(0.01)
                    time.sleep(0.05)  # into the flight event's wait
                finally:
                    gate.set()
                got = follower.read_response()
                leader._read_chunked(bytearray())
        assert len(submitted) == 2  # the leader's producer, the follower
        assert app.page_cache.stats.coalesced == 1

        twin = build_full_stack_app()
        threaded = ThreadedAppServer(twin, workers=2)
        try:
            address = threaded.listen()
            with WireClient(address) as first, WireClient(address) as hit:
                first.request(url)  # stores the page
                expected = hit.request(url)
        finally:
            threaded.stop()
        assert "Transfer-Encoding" not in got.headers
        assert _without(got.raw, b"Date: ") == \
            _without(expected.raw, b"Date: ")

    def test_half_of_twenty_misses_are_sampled_at_trace_every_2(self):
        app = build_full_stack_app()
        app.ctx.obs.trace_every = 2
        url = volume_url(app)
        with AsyncAppServer(app, workers=2) as edge:
            with WireClient(edge.listen()) as client:
                for _ in range(20):
                    app.page_cache.flush()
                    response = client.request(url)
                    assert response.headers["Transfer-Encoding"] == \
                        "chunked"
                streamed = edge.stats()["streamed_responses"]
        histogram = app.ctx.obs.metrics.histogram("http.request_seconds")
        assert streamed == 20
        assert histogram.count == 10
        assert dict(app.front.status_counts) == {200: 20}


class TestPipelining:
    def test_hit_miss_revalidation_answered_in_order(self):
        app = build_full_stack_app()
        hit_url, miss_url = volume_url(app, 1), volume_url(app, 2)
        with AsyncAppServer(app, workers=2) as edge:
            with WireClient(edge.listen()) as client:
                client.request(hit_url)  # a streamed miss stores the page
                etag = client.request(hit_url).headers["ETag"]
                inline_before = edge.stats()["inline_hits"]
                client.send_raw(
                    client.build_request(hit_url)
                    + client.build_request(miss_url)
                    + client.build_request(
                        hit_url, headers={"If-None-Match": etag})
                )
                hit = client.read_response()
                miss = client.read_response()
                revalidated = client.read_response()
                stats = edge.stats()
        assert hit.status == 200 and hit.headers["ETag"] == etag
        assert "Transfer-Encoding" not in hit.headers
        assert miss.status == 200
        assert miss.headers["Transfer-Encoding"] == "chunked"
        assert miss.text == app.get(miss_url).body
        assert revalidated.status == 304 and revalidated.body == b""
        assert stats["inline_hits"] == inline_before + 2
        assert stats["inline_304s"] == 1

    @pytest.mark.parametrize("server", [AsyncAppServer, ThreadedAppServer],
                             ids=["async", "threaded"])
    @pytest.mark.parametrize("stored", [True, False],
                             ids=["after-hit", "after-miss"])
    def test_malformed_request_answered_after_the_valid_one(self, stored,
                                                            server):
        app = build_full_stack_app()
        url = volume_url(app)
        with server(app, workers=2) as edge:
            with WireClient(edge.listen(), timeout=5.0) as client:
                if stored:
                    assert client.request(url).status == 200
                client.send_raw(client.build_request(url)
                                + b"BROKEN\r\n\r\n")
                valid = client.read_response()
                rejected = client.read_response()
                _await_eof(client)
        assert valid.status == 200
        assert valid.text == app.get(url).body
        assert rejected.status == 400
        assert rejected.headers["Connection"] == "close"


class TestPerResponseConstants:
    def test_canonical_header_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(parsing, "_canonical_memo", {})
        for number in range(10_000):
            name = f"x-custom-{number}"
            assert parsing.canonical_header(name) == f"X-Custom-{number}"
        assert len(parsing._canonical_memo) == parsing.CANONICAL_MEMO_CAP
        assert parsing.canonical_header("x-custom-0") == "X-Custom-0"
        assert parsing.canonical_header("if-none-match") == "If-None-Match"
        assert parsing.canonical_header("ACCEPT-encoding") == \
            "Accept-Encoding"
        assert len(parsing._canonical_memo) == parsing.CANONICAL_MEMO_CAP

    def test_http_date_is_now(self):
        before = time.time()
        text = http_date()
        after = time.time()
        stamp = parsedate_to_datetime(text).timestamp()
        assert int(before) <= stamp <= after
        assert text == formatdate(stamp, usegmt=True)

    def test_http_date_formats_an_explicit_timestamp(self):
        assert http_date(784111777) == "Sun, 06 Nov 1994 08:49:37 GMT"
        assert http_date(784111777.9) == "Sun, 06 Nov 1994 08:49:37 GMT"

    def test_http_date_changes_with_the_second(self, monkeypatch):
        class Clock:
            now = 784111777.2

            def time(self):
                return self.now

        clock = Clock()
        monkeypatch.setattr(wire, "time", clock)
        monkeypatch.setattr(wire, "_date_memo", (-1, ""))
        assert http_date() == "Sun, 06 Nov 1994 08:49:37 GMT"
        clock.now = 784111777.95
        assert http_date() == "Sun, 06 Nov 1994 08:49:37 GMT"
        clock.now = 784111778.0
        assert http_date() == "Sun, 06 Nov 1994 08:49:38 GMT"
