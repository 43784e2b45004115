"""E19: the delivery stack's edge tier — threaded vs event-loop.

The paper's architecture serves "a high number of users" (§1) from a
threaded servlet container; E13 showed compute scales with workers.
This experiment measures what the *connections* cost: a
thread-per-connection edge pins a worker for a connection's whole
keep-alive lifetime — mostly idle — while the async edge owns every
socket on one event loop and spends threads only on work that
computes.  Both edges share the sans-IO :mod:`repro.httpcore` protocol
machine, which the byte-identity phase proves: same requests, same
wire bytes, modulo ``Date``.

Phases:

- **byte identity** — replay a probe set (fresh renders, cache hits,
  gzip, 304 revalidations, redirects, 404s) against both edges and
  diff raw wire bytes;
- **sustained connections** — open many keep-alive connections at
  equal worker counts: the threaded edge serves exactly ``workers`` of
  them, the async edge serves all;
- **TTFB** — cached pages served inline on the loop answer faster
  than a full render computes; a cache-miss *streamed* page gets its
  first bytes out before the same miss, served buffered (an app whose
  renderer cannot stream), has computed its response;
- **slow client** — a trickle-reading client must not move another
  client's p99;
- **hits beside streamed misses** — the hit p50 / p99 on one
  connection while a second connection streams cache misses of one
  page, twice: a page the edge builds on its event loop (measured
  short, the data tier does not wait) and the same page over a data
  tier with ``io_delay``, which the edge builds on a worker.  A
  loop-built page yields to the loop after every chunk, so a hit waits
  at most one chunk.

``REPRO_FAST=1`` (CI) shrinks request counts, not the assertions.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.app import WebApplication
from repro.appserver import AsyncAppServer, ThreadedAppServer
from repro.bench import ExperimentReport, save_report
from repro.caching import FragmentCache, PageCache, UnitBeanCache
from repro.codegen import generate_project
from repro.httpcore.client import WireClient
from repro.presentation import PresentationRenderer
from repro.presentation.renderer import default_stylesheet
from repro.workloads.acm import build_acm_model, seed_acm_data

FAST = bool(os.environ.get("REPRO_FAST"))
#: compute pool size, identical on both edges — the comparison isolates
#: who owns idle connections, not how much computes
WORKERS = 4
#: concurrent keep-alive connections opened against each edge
CONNECTIONS = 24
TTFB_SAMPLES = 15 if FAST else 60
FAST_CLIENT_REQUESTS = 25 if FAST else 100
HITS_BESIDE_MISSES = 100 if FAST else 400
#: the data tier's wait per statement for the worker-built case
IO_DELAY = 0.001
SEED_SCALE = dict(volumes=4, issues_per_volume=3, papers_per_issue=4)

_RESULTS: dict[str, dict] = {}


def _build() -> WebApplication:
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
    seed_acm_data(app, **SEED_SCALE)
    app.ctx.stats.reset()
    return app


def _buffered(app: WebApplication) -> WebApplication:
    """``app`` rendering through a plain function: a renderer without
    ``stream_chunks`` is never streamed, so every miss is answered
    whole."""
    render = app.front.view_renderer
    app.front.view_renderer = lambda *args: render(*args)
    return app


def _url_pool(app: WebApplication) -> list[str]:
    view = app.model.find_site_view("public")
    volume_data = view.find_page("Volume Page").unit("Volume data")
    paper_data = view.find_page("Paper details").unit("Paper data")
    return [
        app.page_url("public", "Volume Page", {f"{volume_data.id}.oid": 1}),
        app.page_url("public", "Volumes"),
        app.page_url("public", "Volume Page", {f"{volume_data.id}.oid": 2}),
        app.page_url("public", "Paper details", {f"{paper_data.id}.oid": 1}),
        app.page_url("public", "Browse papers"),
    ]


def _strip_date(raw: bytes) -> bytes:
    return b"\r\n".join(
        line for line in raw.split(b"\r\n")
        if not line.startswith(b"Date: ")
    )


# -- byte identity ------------------------------------------------------------


def test_e19_byte_identity():
    """Both edges answer an identical request sequence with identical
    wire bytes (modulo Date).  The async side's misses are buffered
    (:func:`_buffered`): a streamed first visit is chunk-framed — same
    body, different framing — so the oracle compares the shared
    buffered path.
    """
    app_a, app_b = _build(), _buffered(_build())
    threaded = ThreadedAppServer(app_a, workers=WORKERS)
    edge = AsyncAppServer(app_b, workers=WORKERS)
    addr_a, addr_b = threaded.listen(), edge.listen()
    pool = _url_pool(app_a)
    home = f"/{app_a.model.find_site_view('public').id}"

    probes: list[tuple[str, dict]] = []
    for url in pool:
        probes.append((url, {}))                       # fresh render
    for url in pool:
        probes.append((url, {}))                       # page-cache hit
        probes.append((url, {"Accept-Encoding": "gzip"}))
    probes.append((home, {}))                          # home redirect
    probes.append(("/nope/nothing", {}))               # 404

    mismatches = 0
    compared = 0
    try:
        with WireClient(addr_a, cookies=True) as ca, \
                WireClient(addr_b, cookies=True) as cb:
            etags: dict[str, str] = {}
            for target, headers in probes:
                ra = ca.request(target, headers=dict(headers))
                rb = cb.request(target, headers=dict(headers))
                compared += 1
                if _strip_date(ra.raw) != _strip_date(rb.raw):
                    mismatches += 1
                if ra.status == 200 and "ETag" in ra.headers:
                    etags[target] = ra.headers["ETag"]
            for target, etag in etags.items():         # 304 revalidation
                ra = ca.request(target, headers={"If-None-Match": etag})
                rb = cb.request(target, headers={"If-None-Match": etag})
                compared += 1
                assert ra.status == rb.status == 304
                if _strip_date(ra.raw) != _strip_date(rb.raw):
                    mismatches += 1
    finally:
        threaded.stop()
        edge.stop()

    _RESULTS["byte_identity"] = {
        "probes": compared, "mismatches": mismatches,
    }
    assert mismatches == 0, f"{mismatches}/{compared} probe responses differ"


# -- sustained keep-alive connections -----------------------------------------


def _serve_count(address: tuple, url: str, connections: int,
                 window: float) -> int:
    """Open ``connections`` keep-alive sockets, fire one request on
    each, and count how many get a response within ``window``."""
    clients = [WireClient(address, timeout=window).connect()
               for _ in range(connections)]
    try:
        for client in clients:
            client.send_raw(client.build_request(url))

        def try_read(client: WireClient) -> bool:
            try:
                return client.read_response().status == 200
            except Exception:
                return False

        with ThreadPoolExecutor(max_workers=connections) as pool:
            served = sum(pool.map(try_read, clients))
        return served
    finally:
        for client in clients:
            client.close()


def test_e19_sustained_connections():
    """At equal worker counts the async edge sustains every keep-alive
    connection; the threaded edge serves exactly its worker count —
    the rest wait in the backlog behind idle-but-held threads."""
    app_a, app_b = _build(), _build()
    # idle_timeout far above the window: served threaded connections
    # keep holding their slots, which is precisely the architecture
    # under measurement
    threaded = ThreadedAppServer(app_a, workers=WORKERS, idle_timeout=60.0)
    edge = AsyncAppServer(app_b, workers=WORKERS, idle_timeout=60.0)
    addr_a, addr_b = threaded.listen(), edge.listen()
    url_a, url_b = _url_pool(app_a)[0], _url_pool(app_b)[0]
    try:
        with WireClient(addr_a) as warm:
            warm.request(url_a)
        with WireClient(addr_b) as warm:
            warm.request(url_b)
        window = 3.0
        threaded_served = _serve_count(addr_a, url_a, CONNECTIONS, window)
        async_served = _serve_count(addr_b, url_b, CONNECTIONS, window)
    finally:
        threaded.stop()
        edge.stop()

    ratio = async_served / max(threaded_served, 1)
    _RESULTS["sustained_connections"] = {
        "workers": WORKERS,
        "connections": CONNECTIONS,
        "threaded_served": threaded_served,
        "async_served": async_served,
        "ratio": round(ratio, 2),
    }
    assert threaded_served <= WORKERS + 1, (
        "thread-per-connection edge served past its worker count"
    )
    assert async_served == CONNECTIONS
    assert ratio >= 5.0, (
        f"async edge sustained only {ratio:.1f}x the threaded "
        f"connections ({async_served} vs {threaded_served})"
    )


# -- time to first byte -------------------------------------------------------


def _ttfb_once(client: WireClient, url: str,
               headers: dict | None = None) -> float:
    """Seconds from request sent to the response head's first bytes."""
    client.send_raw(client.build_request(url, headers=headers))
    started = time.perf_counter()
    client._fill()
    elapsed = time.perf_counter() - started
    client.read_response()
    return elapsed


def _miss_samples(client: WireClient, app: WebApplication, url: str,
                  measure) -> list[float]:
    """``measure`` one request per sample, each a miss at the page *and*
    the bean level — a build whose unit services really run, so the
    buffered response has real work to finish before its first byte.
    The streamed head does not wait for that work wherever the chunks
    are then built: the read callback writes it before the first chunk
    is asked for."""
    samples = []
    for _ in range(TTFB_SAMPLES):
        app.page_cache.flush()
        app.ctx.bean_cache.flush()
        samples.append(measure(client, url))
    return samples


def _full_response_once(client: WireClient, url: str) -> float:
    started = time.perf_counter()
    response = client.request(url)
    elapsed = time.perf_counter() - started
    assert response.status == 200
    return elapsed


def test_e19_ttfb_cached_vs_render():
    """Inline cache hits answer in less than a full render's p50, and
    a cache-miss streamed page gets its head out before the *buffered*
    edge — same URL, same flushes, :func:`_buffered` — has its response
    ready (the static prefix leaves while the unit services run).
    ``full_render_p50_ms`` is the streaming edge's own last byte: the
    cost of the whole streamed exchange, not what streaming is compared
    with."""
    app = _build()
    edge = AsyncAppServer(app, workers=WORKERS)
    address = edge.listen()
    url = _url_pool(app)[0]
    try:
        with WireClient(address, cookies=True) as client:
            client.request(url)  # warm
            cached = [_ttfb_once(client, url) for _ in range(TTFB_SAMPLES)]
            render = _miss_samples(client, app, url, _full_response_once)
            streamed_ttfb = _miss_samples(client, app, url, _ttfb_once)
    finally:
        edge.stop()

    buffered_app = _buffered(_build())
    buffered_edge = AsyncAppServer(buffered_app, workers=WORKERS)
    address = buffered_edge.listen()
    try:
        with WireClient(address, cookies=True) as client:
            client.request(url)  # warm
            buffered = _miss_samples(client, buffered_app, url,
                                     _full_response_once)
    finally:
        buffered_edge.stop()

    cached_p50 = statistics.median(cached)
    render_p50 = statistics.median(render)
    stream_p50 = statistics.median(streamed_ttfb)
    buffered_p50 = statistics.median(buffered)
    ttfb_stats = edge.metrics.histogram("edge.ttfb_seconds").to_dict()
    _RESULTS["ttfb"] = {
        "cached_p50_ms": round(cached_p50 * 1e3, 3),
        "full_render_p50_ms": round(render_p50 * 1e3, 3),
        "buffered_full_p50_ms": round(buffered_p50 * 1e3, 3),
        "streamed_first_byte_p50_ms": round(stream_p50 * 1e3, 3),
        "edge_histogram": ttfb_stats,
        "streamed_responses": edge.metrics.counter(
            "edge.streamed_responses").value,
    }
    assert buffered_edge.metrics.counter(
        "edge.streamed_responses").value == 0
    assert cached_p50 < render_p50, (
        f"inline cached TTFB {cached_p50 * 1e3:.2f}ms not below full "
        f"render p50 {render_p50 * 1e3:.2f}ms"
    )
    assert stream_p50 < buffered_p50, (
        f"streamed first byte {stream_p50 * 1e3:.2f}ms not below the "
        f"buffered response {buffered_p50 * 1e3:.2f}ms"
    )


# -- slow clients -------------------------------------------------------------


def test_e19_slow_client_isolation():
    """A trickle-reading client is its own problem: other clients' p99
    on the async edge stays flat while the trickler drains."""
    app = _build()
    edge = AsyncAppServer(app, workers=WORKERS)
    address = edge.listen()
    url = _url_pool(app)[0]
    try:
        with WireClient(address) as warm:
            warm.request(url)

        trickler = WireClient(address).connect()
        trickler.send_raw(trickler.build_request(url))

        latencies = []
        with WireClient(address) as fast:
            for _ in range(FAST_CLIENT_REQUESTS):
                started = time.perf_counter()
                assert fast.request(url).status == 200
                latencies.append(time.perf_counter() - started)
        trickler.trickle_read(total_timeout=2.0)
        trickler.close()
    finally:
        edge.stop()

    latencies.sort()
    p99 = latencies[int(len(latencies) * 0.99) - 1]
    _RESULTS["slow_client"] = {
        "fast_requests": len(latencies),
        "fast_p50_ms": round(statistics.median(latencies) * 1e3, 3),
        "fast_p99_ms": round(p99 * 1e3, 3),
    }
    assert p99 < 1.0, (
        f"fast clients' p99 {p99 * 1e3:.1f}ms while a trickler drains"
    )


# -- hits beside streamed misses -----------------------------------------------


def _percentile(samples: list[float], share: float) -> float:
    ordered = sorted(samples)
    return ordered[max(0, int(len(ordered) * share) - 1)]


def _hits_beside_misses(io_delay: float) -> dict:
    """Time page-cache hits on one connection while a second one
    streams misses of the Volume Page, each also a bean-level miss (a
    cache-busting parameter makes every key new; the page id, which the
    edge's placement is decided by, stays one).  The page's first build
    happens before the clock starts, so the edge has measured it; it
    is rendered in process before that, so the measured build is not
    the one that plans the statements."""
    app = _build()
    hit_url, miss_url = _url_pool(app)[1], _url_pool(app)[0]
    app.get(miss_url)
    app.page_cache.flush()
    edge = AsyncAppServer(app, workers=WORKERS)
    address = edge.listen()
    done = threading.Event()
    streamed = []

    def stream_misses() -> None:
        with WireClient(address) as client:
            while not done.is_set():
                app.ctx.bean_cache.flush()
                response = client.request(f"{miss_url}&bust={len(streamed)}")
                assert response.headers["Transfer-Encoding"] == "chunked"
                streamed.append(response.status)

    try:
        with WireClient(address) as client:
            client.request(hit_url)  # stored: every later request a hit
            client.request(miss_url)  # the page's first build, measured
            app.database.io_delay = io_delay
            dispatched = edge.stats()["worker_dispatches"]
            streamer = threading.Thread(target=stream_misses)
            streamer.start()
            while not streamed and streamer.is_alive():  # misses flow
                time.sleep(0.001)
            latencies = []
            for _ in range(HITS_BESIDE_MISSES):
                started = time.perf_counter()
                assert client.request(hit_url).status == 200
                latencies.append(time.perf_counter() - started)
            done.set()
            streamer.join(timeout=30)
            dispatched = edge.stats()["worker_dispatches"] - dispatched
    finally:
        done.set()
        edge.stop()
    return {
        "io_delay_ms": io_delay * 1e3,
        "hits": len(latencies),
        "hit_p50_ms": round(statistics.median(latencies) * 1e3, 3),
        "hit_p99_ms": round(_percentile(latencies, 0.99) * 1e3, 3),
        "misses_streamed": len(streamed),
        "miss_worker_share": round(dispatched / max(len(streamed), 1), 3),
    }


def test_e19_hits_beside_streamed_misses():
    """A measured page over a data tier that does not wait is built on
    the loop, one chunk between yields; the same page over a waiting
    data tier is built on a worker.  Either way a hit on another
    connection is answered between chunks, never behind a page."""
    on_loop = _hits_beside_misses(0.0)
    on_worker = _hits_beside_misses(IO_DELAY)
    _RESULTS["hits_beside_misses"] = {"loop_built": on_loop,
                                      "worker_built": on_worker}
    # the clients share this process's GIL: now and then a loop-built
    # chunk waits past the switch interval and sends the page back to
    # a worker for one build
    assert on_loop["miss_worker_share"] < 0.1
    assert on_worker["miss_worker_share"] == 1.0
    for case in (on_loop, on_worker):
        assert case["misses_streamed"] > 0
        assert case["hit_p99_ms"] < 1000.0, case


# -- the report ---------------------------------------------------------------


def test_e19_report():
    needed = ("byte_identity", "sustained_connections", "ttfb",
              "slow_client", "hits_beside_misses")
    if not all(key in _RESULTS for key in needed):
        pytest.skip("needs the measuring tests in this module run first")

    identity = _RESULTS["byte_identity"]
    sustained = _RESULTS["sustained_connections"]
    ttfb = _RESULTS["ttfb"]
    slow = _RESULTS["slow_client"]
    beside = _RESULTS["hits_beside_misses"]

    report = ExperimentReport(
        "E19", "transport-agnostic delivery: threaded vs async edge",
        "§1/§4 high number of users",
    )
    report.add("byte-identical responses", "all probes",
               f"{identity['probes'] - identity['mismatches']}"
               f"/{identity['probes']}",
               "threaded vs async, Date header excluded")
    report.add(
        f"keep-alive connections sustained at {sustained['workers']} "
        "workers",
        f">= 5x threaded",
        f"{sustained['async_served']} vs {sustained['threaded_served']} "
        f"({sustained['ratio']}x)",
        f"{sustained['connections']} concurrent connections",
    )
    report.add("cached-page TTFB vs full render p50",
               "faster inline",
               f"{ttfb['cached_p50_ms']}ms vs "
               f"{ttfb['full_render_p50_ms']}ms",
               "page-cache hit served on the event loop")
    report.add("streamed first byte on a cache miss",
               "before the buffered response",
               f"{ttfb['streamed_first_byte_p50_ms']}ms vs "
               f"{ttfb['buffered_full_p50_ms']}ms",
               "same miss buffered; static prefix streams "
               "while unit services run")
    report.add("fast-client p99 beside a trickle reader",
               "< 1s", f"{slow['fast_p99_ms']}ms",
               f"{slow['fast_requests']} requests on the loop")
    for name, case in beside.items():
        built = "on the loop" if name == "loop_built" else (
            f"on a worker (io_delay {case['io_delay_ms']:g} ms)")
        report.add(f"hit p50 / p99 beside misses built {built}",
                   "at most one chunk behind",
                   f"{case['hit_p50_ms']}ms / {case['hit_p99_ms']}ms",
                   f"{case['hits']} hits, {case['misses_streamed']} "
                   "streamed misses on a second connection")
    save_report(report, json_payload=dict(_RESULTS))
