"""The two socket edges over real connections.

The sans-IO protocol matrix lives in ``test_httpcore.py``; here the
threaded and async edges are driven through actual sockets with the
:class:`~repro.httpcore.client.WireClient`:

- keep-alive semantics on the wire (the seed's threaded server had no
  wire tier at all, so ``Connection: close`` / HTTP/1.0 behaviour is a
  regression surface now);
- the async edge's triage: inline page-cache hits, worker-pool
  dispatch, chunked streaming;
- byte-identity between the edges (the E19 oracle, asserted here on a
  small probe set);
- failure modes: a trickle-reading client must not stall other
  connections, and a mid-stream disconnect must leak neither a worker
  slot nor the page-cache single-flight slot;
- one pipeline behind both edges: a page-cache miss on the async edge
  is resolved once, observed (trace, latency histogram, final status)
  and gated like the same request on the threaded edge.
"""

from __future__ import annotations

import threading
import time
from collections import Counter

import pytest

from repro.app import WebApplication
from repro.appserver import AsyncAppServer, ThreadedAppServer
from repro.appserver.fleet import MIN_LSN_HEADER, ReplicaGate
from repro.caching import FragmentCache, PageCache, UnitBeanCache
from repro.codegen import generate_project
from repro.errors import QueryError
from repro.httpcore import StreamedPage
from repro.httpcore.client import WireClient, WireError
from repro.mvc.http import HttpRequest, HttpResponse
from repro.presentation import PresentationRenderer
from repro.presentation.jsp import PageTemplate, RenderContext
from repro.presentation.renderer import default_stylesheet
from repro.workloads.acm import build_acm_model, seed_acm_data


def build_full_stack_app() -> WebApplication:
    """The ACM application with presentation, fragments and page cache
    — the full delivery stack both edges front."""
    model = build_acm_model()
    for unit in model.all_units():
        if unit.kind != "entry":
            unit.cacheable = True
    project = generate_project(model)
    renderer = PresentationRenderer(
        project.skeletons, default_stylesheet("ACM"),
        fragment_cache=FragmentCache(),
    )
    app = WebApplication(
        model, view_renderer=renderer, bean_cache=UnitBeanCache(),
        page_cache=PageCache(),
    )
    seed_acm_data(app, volumes=3, issues_per_volume=2, papers_per_issue=2)
    return app


def volume_url(app: WebApplication, oid: int = 1) -> str:
    view = app.model.find_site_view("public")
    unit = view.find_page("Volume Page").unit("Volume data")
    return app.page_url("public", "Volume Page", {f"{unit.id}.oid": oid})


def stream_or_build(app: WebApplication, url: str):
    """What an async-edge worker runs for a page-cache miss: the
    pipeline continued from the loop-side state, streaming allowed."""
    state = app.front.begin(HttpRequest.from_url(url), peek=True)
    return app.front.complete(state, stream=True)


def wire_chunks(raw: bytes) -> list[bytes]:
    """The data chunks of a chunked wire response, framing removed."""
    body = raw[raw.index(b"\r\n\r\n") + 4:]
    chunks = []
    while True:
        size_line, _sep, body = body.partition(b"\r\n")
        size = int(size_line, 16)
        if size == 0:
            return chunks
        chunks.append(body[:size])
        body = body[size + 2:]


@pytest.fixture(scope="module")
def app() -> WebApplication:
    return build_full_stack_app()


@pytest.fixture(scope="module")
def threaded_addr(app):
    server = ThreadedAppServer(app, workers=2)
    address = server.listen()
    yield address
    server.stop()


@pytest.fixture(scope="module")
def async_edge(app):
    edge = AsyncAppServer(app, workers=2)
    edge.listen()
    yield edge
    edge.stop()


# -- the client's own contract --------------------------------------------------


class _ClosedPeerSocket:
    """A socket whose peer has already closed: the kernel may answer a
    send or a recv with an error instead of an orderly EOF."""

    def __init__(self, send_error=None, recv_error=None):
        self.send_error = send_error
        self.recv_error = recv_error

    def sendall(self, data):
        if self.send_error is not None:
            raise self.send_error

    def recv(self, size):
        if self.recv_error is not None:
            raise self.recv_error
        return b""

    def close(self):
        pass


class TestWireClientPeerClose:
    """However a server-side close surfaces — EOF, reset, broken pipe —
    the client reports :class:`WireError` (the race behind the once
    flaky ``test_malformed_request_gets_400_and_close``)."""

    @pytest.mark.parametrize("stub", [
        _ClosedPeerSocket(send_error=BrokenPipeError(32, "Broken pipe")),
        _ClosedPeerSocket(send_error=ConnectionResetError(104, "reset")),
        _ClosedPeerSocket(recv_error=ConnectionResetError(104, "reset")),
        _ClosedPeerSocket(),  # orderly EOF
    ], ids=["send-epipe", "send-reset", "recv-reset", "recv-eof"])
    def test_request_raises_wire_error(self, stub):
        client = WireClient(("127.0.0.1", 1))
        client._sock = stub
        with pytest.raises(WireError, match="server closed the connection"):
            client.request("/anything")


# -- the threaded socket front ------------------------------------------------


class TestThreadedSocketFront:
    def test_keep_alive_reuses_connection(self, app, threaded_addr):
        url = volume_url(app)
        with WireClient(threaded_addr, cookies=True) as client:
            first = client.request(url)
            second = client.request(url)
        assert first.status == second.status == 200
        assert first.headers["Connection"] == "keep-alive"
        assert first.body == second.body

    def test_connection_close_honored(self, app, threaded_addr):
        with WireClient(threaded_addr) as client:
            response = client.request(
                volume_url(app), headers={"Connection": "close"}
            )
            assert response.headers["Connection"] == "close"
            # the server actually closes: the next read sees EOF
            client._sock.settimeout(5)
            assert client._sock.recv(1) == b""

    def test_http10_closes_by_default(self, app, threaded_addr):
        with WireClient(threaded_addr) as client:
            response = client.request(
                volume_url(app), http_version="HTTP/1.0"
            )
            assert response.headers["Connection"] == "close"
            client._sock.settimeout(5)
            assert client._sock.recv(1) == b""

    def test_http10_keep_alive_persists(self, app, threaded_addr):
        with WireClient(threaded_addr) as client:
            first = client.request(
                volume_url(app), http_version="HTTP/1.0",
                headers={"Connection": "keep-alive"},
            )
            assert first.headers["Connection"] == "keep-alive"
            second = client.request(
                volume_url(app), http_version="HTTP/1.0",
                headers={"Connection": "keep-alive"},
            )
            assert second.status == 200

    def test_malformed_request_gets_400_and_close(self, threaded_addr):
        with WireClient(threaded_addr) as client:
            client.send_raw(b"BROKEN\r\n\r\n")
            response = client.read_response()
            assert response.status == 400
            with pytest.raises(WireError):
                client.request("/anything")

    def test_session_cookie_over_the_wire(self, app, threaded_addr):
        with WireClient(threaded_addr, cookies=True) as client:
            client.request(volume_url(app))
            assert client.session_id is not None
            again = client.request(volume_url(app))
            # presented cookie is honored: no new assignment
            assert "Set-Cookie" not in again.headers


# -- the async edge -----------------------------------------------------------


class TestAsyncEdge:
    def test_conditional_get_inline(self, app, async_edge):
        url = volume_url(app)
        with WireClient(async_edge.address, cookies=True) as client:
            first = client.request(url)
            assert first.status == 200
            etag = first.headers["ETag"]
            revalidated = client.request(
                url, headers={"If-None-Match": etag}
            )
            assert revalidated.status == 304
            assert revalidated.body == b""
        assert async_edge.metrics.counter("edge.inline_304s").value >= 1

    def test_second_request_served_inline(self, app, async_edge):
        url = volume_url(app, oid=2)
        with WireClient(async_edge.address, cookies=True) as client:
            first = client.request(url)
            hits_before = async_edge.metrics.counter("edge.inline_hits").value
            second = client.request(url)
            assert async_edge.metrics.counter(
                "edge.inline_hits"
            ).value == hits_before + 1
        assert first.body == second.body
        # the inline hit never dispatched to a worker
        assert second.headers.get("Transfer-Encoding") is None

    def test_streamed_miss_matches_buffered(self, app, async_edge):
        url = volume_url(app, oid=3)
        app.page_cache.flush()
        with WireClient(async_edge.address, cookies=True) as client:
            streamed = client.request(url)
            assert streamed.headers.get("Transfer-Encoding") == "chunked"
            cached = client.request(url)
        assert streamed.body == cached.body
        assert streamed.text == app.get(url).body

    def test_operation_takes_worker_path(self, app, async_edge):
        home = f"/{app.model.find_site_view('public').id}"
        with WireClient(async_edge.address, cookies=True) as client:
            response = client.request(home)
            assert response.status == 302

    def test_open_connection_gauge(self, app, async_edge):
        with WireClient(async_edge.address) as client:
            client.request(volume_url(app))
            assert async_edge.metrics.gauge(
                "edge.open_connections"
            ).value >= 1


# -- byte identity between the edges ------------------------------------------


def _strip_date(raw: bytes) -> bytes:
    return b"\r\n".join(
        line for line in raw.split(b"\r\n")
        if not line.startswith(b"Date: ")
    )


class TestByteIdentity:
    def test_edges_emit_identical_bytes(self):
        """Same requests, same order → same wire bytes (modulo Date).

        Streaming is off on the async side: a streamed first visit is
        chunk-framed, deliberately different framing for the same body.
        Everything else — hits, 304s, gzip, redirects, 404s — must be
        byte-identical, because both edges share one protocol machine.
        """
        app_a = build_full_stack_app()
        app_b = build_full_stack_app()
        threaded = ThreadedAppServer(app_a, workers=2)
        edge = AsyncAppServer(app_b, workers=2, stream=False)
        addr_a = threaded.listen()
        addr_b = edge.listen()
        url = volume_url(app_a)
        home = f"/{app_a.model.find_site_view('public').id}"
        probes = [
            (url, {}),
            (url, {}),                                    # page-cache hit
            (url, {"Accept-Encoding": "gzip"}),           # precomputed gzip
            (home, {}),                                   # home redirect
            ("/nope/nothing", {}),                        # 404
        ]
        try:
            with WireClient(addr_a, cookies=True) as ca, \
                    WireClient(addr_b, cookies=True) as cb:
                for target, headers in probes:
                    ra = ca.request(target, headers=dict(headers))
                    rb = cb.request(target, headers=dict(headers))
                    assert _strip_date(ra.raw) == _strip_date(rb.raw), target
                # conditional revisit with the matching validator
                etag = ca.request(url).headers["ETag"]
                ra = ca.request(url, headers={"If-None-Match": etag})
                cb.request(url)
                rb = cb.request(url, headers={"If-None-Match": etag})
                assert ra.status == rb.status == 304
                assert _strip_date(ra.raw) == _strip_date(rb.raw)
        finally:
            threaded.stop()
            edge.stop()


# -- handler failures ---------------------------------------------------------


class _ExplodingApp:
    """An application whose handler has a bug: every request raises."""

    def handle(self, request):
        raise RuntimeError("handler bug")


class TestHandlerFailures:
    """A handler exception is a 500 and a hang-up on both edges — never
    a silently dropped connection."""

    def test_threaded_front_answers_500_and_closes(self):
        server = ThreadedAppServer(_ExplodingApp(), workers=1)
        address = server.listen()
        try:
            with WireClient(address) as client:
                response = client.request("/anything")
                assert response.status == 500
                assert response.headers["Connection"] == "close"
                client._sock.settimeout(5)
                assert client._sock.recv(1) == b""
            assert server.failures == 1
        finally:
            server.stop()

    def test_async_edge_answers_500_and_closes(self):
        edge = AsyncAppServer(_ExplodingApp(), workers=1)
        address = edge.listen()
        try:
            with WireClient(address) as client:
                response = client.request("/anything")
                assert response.status == 500
                assert response.headers["Connection"] == "close"
                client._sock.settimeout(5)
                assert client._sock.recv(1) == b""
            assert edge.metrics.counter("edge.handler_failures").value == 1
        finally:
            edge.stop()


# -- pathological clients -----------------------------------------------------


class TestSlowAndDisconnectingClients:
    def test_trickle_reader_does_not_stall_others(self, app, async_edge):
        """One client reading a few bytes at a time must not delay the
        event loop's service of everyone else."""
        url = volume_url(app)
        with WireClient(async_edge.address) as warm:
            warm.request(url)  # ensure a cached entry exists

        trickler = WireClient(async_edge.address).connect()
        trickler.send_raw(trickler.build_request(url))

        latencies = []
        with WireClient(async_edge.address) as fast:
            for _ in range(20):
                started = time.perf_counter()
                assert fast.request(url).status == 200
                latencies.append(time.perf_counter() - started)
        trickler.trickle_read(total_timeout=2.0)
        trickler.close()
        latencies.sort()
        assert latencies[-1] < 1.0, (
            f"fast client stalled behind the trickler: {latencies[-1]:.3f}s"
        )

    def test_midstream_disconnect_leaks_nothing(self):
        """A client dropping mid-stream must release the page-cache
        single-flight slot and its worker-pool slot."""
        app = build_full_stack_app()
        gate = threading.Event()
        app.front.view_renderer = _GatedRenderer(
            app.front.view_renderer, gate
        )
        edge = AsyncAppServer(app, workers=2)
        address = edge.listen()
        url = volume_url(app)
        try:
            victim = WireClient(address).connect()
            victim.send_raw(victim.build_request(url))
            # read only the head, then vanish mid-body
            victim._read_until(b"\r\n\r\n", bytearray())
            victim.close()
            gate.set()  # let the gated stream finish rendering

            deadline = time.monotonic() + 5
            while app.page_cache._in_flight and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not app.page_cache._in_flight, "single-flight slot leaked"

            # every worker slot still serves: more sequential requests
            # than pool slots, all fine
            with WireClient(address, cookies=True) as client:
                for _ in range(4):
                    assert client.request(url).status == 200
        finally:
            edge.stop()


class TestStreamedMissAccounting:
    """A streamed build is a page-cache miss like a buffered one: the
    miss is counted where the build is claimed, so ``/_status`` reports
    a truthful page ``hit_rate`` on the async edge (it read 1.0 for a
    cache that only ever streamed its misses)."""

    def test_streamed_builds_count_their_misses(self):
        app = build_full_stack_app()
        stats = app.page_cache.stats
        urls = [volume_url(app, oid) for oid in (1, 2, 3)]
        for url in urls:
            streamed = stream_or_build(app, url)
            assert isinstance(streamed, StreamedPage)
            assert "".join(streamed.chunks)
        for url in urls:
            response = app.front.begin(HttpRequest.from_url(url), peek=True)
            assert isinstance(response, HttpResponse)
            assert response.status == 200
        assert (stats.misses, stats.hits) == (len(urls), len(urls))
        assert stats.hit_rate == 0.5

    def test_follower_of_a_streamed_build_is_one_hit(self):
        """Losing ``begin_flight`` and falling back to the buffered
        build costs the follower what any coalesced lookup costs: no
        second miss."""
        app = build_full_stack_app()
        stats = app.page_cache.stats
        url = volume_url(app)
        leader = stream_or_build(app, url)
        responses = []
        follower = threading.Thread(target=lambda: responses.append(
            stream_or_build(app, url)
        ))
        follower.start()
        time.sleep(0.05)  # the follower is parked on the flight event
        body = "".join(leader.chunks)
        follower.join(timeout=5.0)
        assert not follower.is_alive()
        assert isinstance(responses[0], HttpResponse)  # asked to stream
        assert responses[0].status == 200 and responses[0].body == body
        assert (stats.misses, stats.hits) == (1, 1)
        assert stats.coalesced == 1
        assert not app.page_cache._in_flight


class _GatedRenderer:
    """Wraps the real renderer; the stream's first dynamic chunk parks
    on a gate so the test can disconnect the client mid-stream."""

    def __init__(self, inner, gate):
        self.inner = inner
        self.fragment_cache = inner.fragment_cache
        self.gate = gate

    def __call__(self, *args, **kwargs):
        return self.inner(*args, **kwargs)

    def stream_chunks(self, page_id, request, controller,
                      page_result_factory):
        chunks = self.inner.stream_chunks(
            page_id, request, controller, page_result_factory
        )

        def gated():
            try:
                gated_once = False
                for chunk in chunks:
                    yield chunk
                    if not gated_once:
                        gated_once = True
                        self.gate.wait(timeout=10)
            finally:
                chunks.close()

        return gated()


# -- one pipeline behind both edges --------------------------------------------


class _NeverCatchesUp:
    """A replication client whose replica never reaches the token."""

    def wait_for_lsn(self, lsn, timeout):
        return False


class TestOnePipeline:
    """The async edge drives the front controller's own stages, so a
    page-cache miss is resolved once and observed, counted and gated
    like the same request on the threaded edge."""

    def test_a_miss_is_resolved_once(self):
        app = build_full_stack_app()
        calls = Counter()

        def spy(target, name):
            original = getattr(target, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            setattr(target, name, counted)

        spy(app.front.sessions, "get_or_create")
        spy(app.page_cache, "peek")
        with AsyncAppServer(app, workers=2) as edge:
            with WireClient(edge.listen()) as client:
                response = client.request(volume_url(app))
        assert response.headers.get("Transfer-Encoding") == "chunked"
        assert calls == {"get_or_create": 1, "peek": 1}

    def test_x_trace_is_answered_buffered_with_its_summary(self):
        """The summary header needs the finished trace, so a forced
        trace takes the worker's buffered path — on a miss (which would
        have streamed) and on a hit (which the loop would have served
        inline, untraced)."""
        app = build_full_stack_app()
        url = volume_url(app)
        with AsyncAppServer(app, workers=2) as edge:
            with WireClient(edge.listen(), cookies=True) as client:
                miss = client.request(url, headers={"X-Trace": "1"})
                hit = client.request(url, headers={"X-Trace": "1"})
        for response in (miss, hit):
            assert response.status == 200
            assert "Content-Length" in response.headers
            assert "Transfer-Encoding" not in response.headers
            assert response.headers["X-Trace"].startswith("GET /")
        assert "rdb=" in miss.headers["X-Trace"]
        assert "rdb=" not in hit.headers["X-Trace"]
        assert miss.body == hit.body

    @pytest.mark.parametrize("server_class",
                             [ThreadedAppServer, AsyncAppServer])
    def test_every_page_get_is_timed_at_trace_every_1(self, server_class):
        app = build_full_stack_app()
        app.ctx.obs.trace_every = 1
        urls = [volume_url(app, oid) for oid in (1, 2, 3)]
        urls.append(app.page_url("public", "Volumes"))
        server = server_class(app, workers=2)
        try:
            with WireClient(server.listen(), cookies=True) as client:
                for url in urls:  # distinct pages: every one is a miss
                    assert client.request(url).status == 200
        finally:
            server.stop()
        histogram = app.ctx.obs.metrics.histogram("http.request_seconds")
        assert histogram.count == len(urls)
        assert dict(app.front.status_counts) == {200: len(urls)}

    def test_sampled_streamed_build_carries_its_trace(self):
        """The chunk generator opens the trace on the thread that runs
        it and closes it when the build ends."""
        app = build_full_stack_app()
        app.ctx.obs.trace_every = 1
        streamed = stream_or_build(app, volume_url(app))
        assert streamed.response.trace is None  # nothing has run yet
        assert "".join(streamed.chunks)
        trace = streamed.response.trace
        assert trace.root.duration is not None
        assert trace.spans_named("mvc.action") and trace.spans_in("rdb")

    def test_midstream_failure_is_a_counted_500(self):
        """A unit service raising on a streamed miss: the client sees a
        truncated chunked body and a close (the head had promised a
        200), the ledgers see a failure."""
        app = build_full_stack_app()

        def explode(*args, **kwargs):
            raise QueryError("the data tier is gone")

        app.front.page_action.page_service.compute_page = explode
        with AsyncAppServer(app, workers=2) as edge:
            with WireClient(edge.listen()) as client:
                client.send_raw(client.build_request(volume_url(app)))
                head = client._read_until(b"\r\n\r\n", bytearray())
                assert head.startswith(b"HTTP/1.1 200")
                assert b"Transfer-Encoding: chunked" in head
                with pytest.raises(WireError):
                    client._read_chunked(bytearray())
            assert edge.metrics.counter("edge.handler_failures").value == 1
        assert dict(app.front.status_counts) == {500: 1}
        assert not app.page_cache._in_flight

    def test_replica_gate_sees_every_request(self):
        """A wrapper's ``handle`` must not be bypassed: a tokened read
        the replica cannot satisfy is a 503 whether the page is cached
        (the loop would have answered it inline) or not (a worker would
        have streamed it)."""
        app = build_full_stack_app()
        cached, uncached = volume_url(app, 1), volume_url(app, 2)
        assert app.get(cached).status == 200
        gate = ReplicaGate(app, _NeverCatchesUp(), wait_timeout=0.01)
        with AsyncAppServer(gate, workers=2) as edge:
            with WireClient(edge.listen(), cookies=True) as client:
                for url in (cached, uncached):
                    response = client.request(
                        url, headers={MIN_LSN_HEADER: "9"}
                    )
                    assert response.status == 503, url
                    assert response.headers["Retry-After"] == "1"
                assert client.request(cached).status == 200
        assert gate.stats() == {"lsn_waits": 2, "lsn_timeouts": 2}

    def test_streamed_chunk_list_is_render_chunks(self):
        """The wire pin: a client of a streamed Volume Page receives
        exactly the non-empty parts of ``render_chunks``, in order, one
        chunk each — and their join is ``render``."""
        app = build_full_stack_app()
        url = volume_url(app)
        with AsyncAppServer(app, workers=2) as edge:
            with WireClient(edge.listen(), cookies=True) as client:
                streamed = client.request(url)
        assert streamed.headers.get("Transfer-Encoding") == "chunked"

        request = HttpRequest.from_url(url)
        session = app.front.sessions.get_or_create(None)
        mapping = app.controller.resolve(request.path)
        outcome = app.front.page_action.perform(mapping, request, session)
        renderer = app.front.view_renderer
        template = renderer.template_for(mapping.page_id)
        context = RenderContext(outcome.page_result, app.controller,
                                request, renderer.fragment_cache)
        parts = list(template.render_chunks(lambda: context))
        expected = [part.encode() for part in parts if part]
        assert len(expected) > 1
        assert wire_chunks(streamed.raw) == expected
        assert "".join(parts) == template.render(context)
        assert "".join(parts).encode() == streamed.body


# -- the streaming render mode ------------------------------------------------


class TestRenderChunks:
    def test_join_equals_render(self, app):
        """The chunk iterator's concatenation is the buffered render."""
        renderer = app.front.view_renderer
        url = volume_url(app)
        response = app.get(url)
        request = HttpRequest.from_url(url)
        session = app.front.sessions.get_or_create(None)
        request.session_id = session.id
        mapping = app.controller.resolve(request.path)
        outcome = app.front.page_action.perform(mapping, request, session)
        chunks = list(renderer.stream_chunks(
            mapping.page_id, request, app.controller,
            lambda: outcome.page_result,
        ))
        assert len(chunks) > 1
        assert "".join(chunks) == response.body

    def test_static_prefix_streams_before_model_runs(self):
        """Everything before the first dynamic slot leaves the template
        without touching the page result factory."""
        template = PageTemplate.from_xml("p1", (
            "<html><head><title>t</title></head><body>"
            '<webml:dataUnit unit="u1"/></body></html>'
        ))
        calls = []

        def factory():
            calls.append(1)
            raise RuntimeError("stop here")

        chunks = template.render_chunks(factory)
        prefix = next(chunks)
        assert "<title>t</title>" in prefix
        assert calls == [], "context was built before the first slot"
        with pytest.raises(RuntimeError):
            next(chunks)

    def test_pipeline_stage_names(self, app):
        assert app.front.PIPELINE == (
            "route", "protect", "execute", "deliver"
        )
