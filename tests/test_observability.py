"""Tests for repro.obs: span trees and their contextvar propagation,
the metrics registry, the slow-query ring, the ``/_status`` endpoint,
and the end-to-end guarantee that a rendered page's trace matches the
statements and cache probes the request actually performed."""

import json
import threading
import time

import pytest

from repro.app import WebApplication
from repro.caching import FragmentCache, PageCache, UnitBeanCache
from repro.codegen import generate_project
from repro.obs import (
    Histogram,
    MetricsRegistry,
    SlowQueryLog,
    attach_span,
    current_span,
    span,
    trace,
)
from repro.presentation import PresentationRenderer
from repro.presentation.renderer import default_stylesheet

from tests.conftest import build_acm_webml, seed_acm


class TestTrace:
    def test_span_tree_nesting(self):
        with trace("GET /x", page="p") as t:
            with span("mvc.action", tier="mvc"):
                with span("services.unit", tier="services"):
                    pass
                attach_span("rdb.select", "rdb", 0.0, 0.001, {"rows": 3})
        root = t.root
        assert root.name == "GET /x"
        assert root.duration is not None
        (action,) = root.children
        assert [c.name for c in action.children] == \
            ["services.unit", "rdb.select"]
        assert action.children[1].tags == {"rows": 3}

    def test_current_span_restored_after_trace(self):
        with trace("GET /x"):
            assert current_span() is not None
        assert current_span() is None

    def test_span_without_trace_is_a_noop(self):
        with span("anything", tier="cache") as probe:
            assert probe is None
        assert attach_span("rdb.select", "rdb", 0.0, 0.1) is None

    def test_tier_totals_exclude_the_root(self):
        with trace("GET /x") as t:
            attach_span("rdb.select", "rdb", 0.0, 0.002)
            attach_span("rdb.select", "rdb", 0.0, 0.003)
        count, seconds = t.tier_totals()["rdb"]
        assert count == 2
        assert seconds == pytest.approx(0.005)
        assert "mvc" not in t.tier_totals()  # only the root was mvc

    def test_summary_is_one_line_with_tiers(self):
        with trace("GET /pv/p1") as t:
            attach_span("rdb.select", "rdb", 0.0, 0.002)
        summary = t.summary()
        assert "\n" not in summary
        assert summary.startswith("GET /pv/p1 ")
        assert "rdb=1/2.00ms" in summary

    def test_to_dict_round_trips_through_json(self):
        with trace("GET /x") as t:
            with span("mvc.render", tier="mvc"):
                pass
        doc = json.loads(json.dumps(t.to_dict()))
        assert doc["children"][0]["name"] == "mvc.render"

    def test_new_threads_do_not_inherit_the_span(self):
        seen = []
        with trace("GET /x"):
            worker = threading.Thread(target=lambda: seen.append(current_span()))
            worker.start()
            worker.join()
        assert seen == [None]


class TestMetrics:
    def test_counter_and_gauge(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert registry.counter("c") is counter  # create-once identity
        gauge = registry.gauge("g")
        gauge.set(3)
        gauge.set(1)
        assert gauge.value == 1
        assert gauge.max_value == 3

    def test_histogram_percentiles_within_bucket_width(self):
        h = Histogram()
        for _ in range(90):
            h.record(0.001)
        for _ in range(10):
            h.record(0.1)
        # log2 buckets promise estimates within a factor of 2
        assert 0.0005 <= h.p50 <= 0.002
        assert 0.05 <= h.p95 <= 0.2
        assert h.count == 100
        assert h.mean == pytest.approx((90 * 0.001 + 10 * 0.1) / 100)
        doc = h.to_dict()
        assert doc["count"] == 100
        assert doc["p99_ms"] >= doc["p50_ms"]

    def test_counters_prefix_filter(self):
        registry = MetricsRegistry()
        registry.counter("http.status.200").inc()
        registry.counter("http.status.304").inc(2)
        registry.counter("other").inc()
        assert registry.counters("http.status.") == {
            "http.status.200": 1, "http.status.304": 2,
        }

    def test_snapshot_polls_collectors(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.register_collector("pool", lambda: {"in_use": 2})
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"c": 1}
        assert snapshot["external"]["pool"] == {"in_use": 2}

    def test_broken_collector_cannot_break_the_snapshot(self):
        registry = MetricsRegistry()

        def broken():
            raise RuntimeError("boom")

        registry.register_collector("bad", broken)
        assert "boom" in snapshot_error(registry)


def snapshot_error(registry) -> str:
    return registry.snapshot()["external"]["bad"]["error"]


class TestSlowQueryLog:
    def test_threshold_filters_fast_statements(self):
        log = SlowQueryLog(threshold_seconds=0.01)
        assert not log.observe("SELECT fast", 0.001)
        assert log.observe("SELECT slow", 0.02, access="index:paper(oid)")
        assert len(log) == 1
        entry = log.entries()[0]
        assert entry.sql == "SELECT slow"
        assert entry.access == "index:paper(oid)"

    def test_ring_drops_the_oldest(self):
        log = SlowQueryLog(capacity=2, threshold_seconds=0.0)
        for i in range(3):
            log.observe(f"q{i}", 0.1)
        assert [e.sql for e in log.entries()] == ["q2", "q1"]  # newest first
        stats = log.stats()
        assert stats["recorded_total"] == 3
        assert stats["held"] == 2


class TestTracePropagation:
    """The ISSUE's cross-tier guarantee: a rendered page's trace holds
    exactly one rdb span per executed statement (and no cache spans
    when no cache level is deployed)."""

    def _assert_trace_matches_query_log(self, app, url):
        app.ctx.obs.trace_every = 1  # deterministic: trace every request
        db = app.database
        selects_before = db.stats.selects
        queries_before = app.ctx.stats.queries_executed
        response = app.get(url)
        assert response.status == 200
        t = response.trace
        assert t is not None
        executed = db.stats.selects - selects_before
        assert executed > 0
        assert executed == app.ctx.stats.queries_executed - queries_before
        rdb_spans = t.spans_in("rdb")
        assert len(rdb_spans) == executed
        assert all(s.name == "rdb.select" for s in rdb_spans)
        assert t.spans_in("cache") == []  # no cache levels deployed
        assert len(t.spans_named("services.unit")) >= 1

    def test_volumes_page(self, acm_app):
        self._assert_trace_matches_query_log(
            acm_app, acm_app.page_url("public", "Volumes")
        )

    def test_volume_detail_page(self, acm_app, acm_oids):
        view = acm_app.model.find_site_view("public")
        page = view.find_page("Volume Page")
        unit = page.unit("Volume data")
        url = (f"/{view.id}/{page.id}"
               f"?{unit.id}.oid={acm_oids['volumes'][0]}")
        self._assert_trace_matches_query_log(acm_app, url)

    def test_batch_loader_savings_counter(self, acm_app, acm_oids):
        from repro.services.batching import load_grouped

        sql = ("SELECT oid, number FROM issue "
               "WHERE volume_to_issue_oid = :parent")
        grouped = load_grouped(
            acm_app.ctx, sql, "parent", acm_oids["volumes"]
        )
        assert grouped is not None and len(grouped) == 2
        counters = acm_app.ctx.obs.metrics.counters("services.batch.")
        # two parents collapsed into one IN-list query: one query saved
        assert counters["services.batch.saved_queries"] == 1


def _cached_app():
    """The ACM application with all three cache levels active."""
    model = build_acm_webml()
    for unit in model.all_units():
        if unit.kind != "entry":
            unit.cacheable = True
    project = generate_project(model)
    stylesheet = default_stylesheet("ACM")
    for rule in stylesheet.unit_rules:
        rule.set_attrs["fragment"] = "cache"
    fragment_cache = FragmentCache()
    page_cache = PageCache()
    renderer = PresentationRenderer(
        project.skeletons, stylesheet, fragment_cache=fragment_cache
    )
    app = WebApplication(model, view_renderer=renderer,
                         bean_cache=UnitBeanCache(), page_cache=page_cache)
    seed_acm(app)
    app.ctx.stats.reset()
    app.ctx.obs.trace_every = 1  # deterministic: trace every request
    return app, page_cache, fragment_cache, app.ctx.bean_cache


class TestCacheProbeSpans:
    def test_first_request_misses_every_level(self):
        app, page_cache, fragment_cache, bean_cache = _cached_app()
        t = app.get(app.page_url("public", "Volumes")).trace
        (page_probe,) = [s for s in t.spans() if s.name == "cache.page"]
        assert page_probe.tags["hit"] is False
        bean_probes = [s for s in t.spans() if s.name == "cache.bean"]
        frag_probes = [s for s in t.spans() if s.name == "cache.fragment"]
        # one span per probe: the trace and the cache stats must agree
        assert len(bean_probes) == bean_cache.stats.lookups > 0
        assert len(frag_probes) == fragment_cache.stats.lookups > 0
        assert all(s.tags["hit"] is False
                   for s in bean_probes + frag_probes)
        assert len(t.spans_in("rdb")) > 0

    def test_page_hit_short_circuits_the_tree(self):
        app, *_ = _cached_app()
        url = app.page_url("public", "Volumes")
        app.get(url)
        t = app.get(url).trace
        (page_probe,) = [s for s in t.spans() if s.name == "cache.page"]
        assert page_probe.tags["hit"] is True
        assert t.spans_in("rdb") == []
        assert t.spans_in("services") == []

    def test_probe_counts_match_stats_after_page_flush(self):
        app, page_cache, fragment_cache, bean_cache = _cached_app()
        url = app.page_url("public", "Volumes")
        app.get(url)
        page_cache.flush()
        bean_before = bean_cache.stats.lookups
        frag_before = fragment_cache.stats.lookups
        t = app.get(url).trace
        bean_probes = [s for s in t.spans() if s.name == "cache.bean"]
        frag_probes = [s for s in t.spans() if s.name == "cache.fragment"]
        assert len(bean_probes) == bean_cache.stats.lookups - bean_before > 0
        assert len(frag_probes) == \
            fragment_cache.stats.lookups - frag_before > 0
        # lower levels survived the page flush: every probe is a hit,
        # so the rebuild never reaches the data tier
        assert all(s.tags["hit"] is True
                   for s in bean_probes + frag_probes)
        assert t.spans_in("rdb") == []


class TestTraceDelivery:
    def test_response_carries_the_trace(self, acm_app):
        acm_app.ctx.obs.trace_every = 1
        response = acm_app.get(acm_app.page_url("public", "Volumes"))
        assert response.trace is not None
        assert response.trace.root.name.startswith("GET /")
        # the wire header is opt-in
        assert "X-Trace" not in response.headers

    def test_sampling_traces_one_request_in_every_n(self, acm_app):
        from repro.obs import Observability

        obs = acm_app.ctx.obs
        every = Observability.DEFAULT_TRACE_EVERY
        assert obs.trace_every == every  # the shipped default
        url = acm_app.page_url("public", "Volumes")
        traced = [
            acm_app.get(url).trace is not None for _ in range(2 * every)
        ]
        assert traced.count(True) == 2  # ticks 0 and ``every``
        assert traced[0] is True and traced[1] is False

    def test_latency_histogram_rides_the_sampling_draw(self, acm_app):
        # unsampled requests must not pay for clock reads: only the
        # traced requests feed the request-latency histogram
        url = acm_app.page_url("public", "Volumes")
        histogram = acm_app.ctx.obs.metrics.histogram("http.request_seconds")
        for _ in range(acm_app.ctx.obs.trace_every):
            acm_app.get(url)
        assert histogram.count == 1
        # every request still counts: the dispatcher's per-status dict
        # is bumped unsampled, and /_status derives the total from it
        counts = acm_app.front.status_counts
        assert sum(counts.values()) == acm_app.ctx.obs.trace_every

    def test_x_trace_header_bypasses_sampling(self, acm_app):
        url = acm_app.page_url("public", "Volumes")
        acm_app.get(url)  # consume the first sampling slot
        response = acm_app.get(url, headers={"X-Trace": "1"})
        summary = response.headers["X-Trace"]
        assert summary.startswith("GET /")
        assert "rdb=" in summary

    def test_disabled_tracing_leaves_no_trace(self, acm_app):
        acm_app.ctx.obs.disable()
        response = acm_app.get(
            acm_app.page_url("public", "Volumes"),
            headers={"X-Trace": "1"},
        )
        assert response.status == 200
        assert response.trace is None
        assert "X-Trace" not in response.headers


class TestStatusEndpoint:
    def test_text_rendition(self, acm_app):
        acm_app.get(acm_app.page_url("public", "Volumes"))
        response = acm_app.get("/_status")
        assert response.status == 200
        assert response.content_type == "text/plain"
        assert "repro status" in response.body
        assert "http.requests" in response.body
        assert "rdb.statement_seconds" in response.body

    def test_json_rendition(self, acm_app):
        # pinned: under the default wall-clock threshold a descheduled
        # statement on a loaded host would count as slow
        acm_app.database.slow_log.threshold_seconds = 3600.0
        acm_app.get(acm_app.page_url("public", "Volumes"))
        response = acm_app.get("/_status?format=json")
        assert response.content_type == "application/json"
        doc = json.loads(response.body)
        assert doc["requests_served"] >= 1
        counters = doc["metrics"]["counters"]
        assert counters["http.requests"] >= 1
        assert counters["http.status.200"] >= 1
        assert "rdb.statement_seconds" in doc["metrics"]["histograms"]
        assert doc["metrics"]["external"]["rdb.pool"]["size"] == 8
        assert doc["slow_query_log"]["recorded_total"] == 0

    def test_accept_header_negotiates_json(self, acm_app):
        response = acm_app.get(
            "/_status", headers={"Accept": "application/json"}
        )
        assert response.content_type == "application/json"
        json.loads(response.body)

    def test_cache_levels_are_listed(self):
        app, *_ = _cached_app()
        doc = json.loads(app.get("/_status?format=json").body)
        assert doc["cache_levels"] == ["bean", "fragment", "page"]


class TestRdbInstrumentation:
    def test_slow_statements_recorded_with_access_path(self, acm_app):
        acm_app.database.slow_log.threshold_seconds = 0.0
        acm_app.get(acm_app.page_url("public", "Volumes"))
        log = acm_app.database.slow_log
        assert len(log) > 0
        assert all(e.access for e in log.entries())
        status = acm_app.get("/_status").body
        assert "[slow queries]" in status

    def test_status_counts_what_is_scanned_and_bounds_the_plan_cache(
            self, acm_app):
        from repro.rdb.database import PLAN_CACHE_CAP

        # Volumes walks ix_volume_year in order: 2 rows out, 2 read —
        # an unindexed ORDER BY reads every row to return one
        acm_app.get(acm_app.page_url("public", "Volumes"))
        acm_app.database.query(
            "SELECT title FROM paper ORDER BY pages LIMIT 1")
        doc = json.loads(acm_app.get("/_status?format=json").body)
        rdb = doc["metrics"]["external"]["rdb.database"]
        assert (rdb["rows_read"], rdb["rows_scanned"]) == (3, 6)
        assert rdb["plan_cache_size"] == 2
        assert rdb["plan_cache_cap"] == PLAN_CACHE_CAP
        assert rdb["plan_evictions"] == 0

    def test_statement_histogram_counts_every_statement(self, acm_app):
        hist = acm_app.ctx.obs.metrics.histogram("rdb.statement_seconds")
        before = hist.count
        selects_before = acm_app.database.stats.selects
        acm_app.get(acm_app.page_url("public", "Volumes"))
        assert hist.count - before == \
            acm_app.database.stats.selects - selects_before

    def test_pool_contention_feeds_histogram_and_gauge(self, acm_app):
        pool = acm_app.ctx.pool
        metrics = acm_app.ctx.obs.metrics
        held = [pool.acquire() for _ in range(pool.size)]
        released = threading.Event()

        def waiter():
            connection = pool.acquire(timeout=5)
            released.set()
            connection.close()

        worker = threading.Thread(target=waiter)
        worker.start()
        time.sleep(0.02)
        held.pop().close()
        assert released.wait(5)
        worker.join(5)
        for connection in held:
            connection.close()
        assert metrics.histogram("rdb.pool.wait_seconds").count >= 1
        assert metrics.gauge("rdb.pool.in_use").max_value == pool.size


class TestAppServerRegistryStats:
    def test_counters_live_in_the_registry(self, acm_app):
        from repro.appserver import ThreadedAppServer

        url = acm_app.page_url("public", "Volumes")
        with ThreadedAppServer(acm_app, workers=2) as server:
            first = server.get(url).result(5)
            server.get(url, headers={"If-None-Match": first.etag}).result(5)
        assert server.status_counts == {200: 1, 304: 1}
        assert server.bytes_on_wire == first.wire_length
        by_name = server.metrics.counters("appserver.status.")
        assert by_name == {"appserver.status.200": 1,
                          "appserver.status.304": 1}
        # and the app's /_status sees the server through its collector
        snapshot = acm_app.ctx.obs.metrics.snapshot()
        assert snapshot["external"]["appserver"]["requests_served"] == 2
