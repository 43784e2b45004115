"""E15 — the full-page delivery pipeline under mixed traffic.

§6's endpoint: with a conceptual model driving invalidation, *whole
rendered pages* can be cached and still never serve stale content.
The same zipfian traffic is replayed against three configurations of
the ACM application — all with the two-level (bean + fragment) cache
of E5 warm underneath:

- **off** — no page cache; every request runs the action + template
  path (the pre-PR pipeline, the baseline);
- **flush-all** — page cache on, but every write flushes every level
  (a cache with no model to consult);
- **scoped** — model-driven invalidation: a write drops exactly the
  pages/fragments/beans whose §6 dependency sets intersect the
  operation's write sets.

Every browser is *conditional* (real user agents revalidate with
``If-None-Match`` and negotiate gzip), so the run also measures the
delivery tier: bytes on the wire and the 304 ratio.  The mixed phase
interleaves admin ``CreatePaper`` writes, each followed by a public
read that must observe the new paper — a staleness violation anywhere
fails the experiment.

Run fast (CI smoke): ``REPRO_FAST=1 pytest benchmarks/bench_e15_delivery.py``.
"""

from __future__ import annotations

import os

import pytest

from repro.app import Browser, WebApplication
from repro.bench import ExperimentReport, save_report
from repro.caching import FragmentCache, PageCache, UnitBeanCache
from repro.codegen import generate_project
from repro.presentation import PresentationRenderer
from repro.presentation.renderer import default_stylesheet
from repro.workloads.acm import build_acm_model, seed_acm_data
from repro.workloads.traffic import TrafficGenerator, WriteAction

FAST = bool(os.environ.get("REPRO_FAST"))
READ_REQUESTS = 150 if FAST else 600
MIXED_REQUESTS = 120 if FAST else 480
#: one admin write per this many public reads in the mixed phase
WRITE_EVERY = 12
#: big enough that pages carry real content — the page-cache hit path
#: must win against substantial action + template work, not toy pages
SEED_SCALE = dict(volumes=10, issues_per_volume=8, papers_per_issue=8)

MODES = ("off", "flush-all", "scoped")

_RESULTS: dict[str, dict] = {}


def _build(mode: str):
    """The ACM application in one of the three E15 configurations."""
    model = build_acm_model()
    for unit in model.all_units():
        if unit.kind != "entry":
            unit.cacheable = True
    project = generate_project(model)
    stylesheet = default_stylesheet("ACM")
    for rule in stylesheet.unit_rules:
        rule.set_attrs["fragment"] = "cache"
    scoped = mode == "scoped"
    renderer = PresentationRenderer(
        project.skeletons, stylesheet,
        fragment_cache=FragmentCache(scoped=scoped),
    )
    page_cache = None if mode == "off" else PageCache(scoped=scoped)
    app = WebApplication(
        model, view_renderer=renderer, bean_cache=UnitBeanCache(),
        page_cache=page_cache,
    )
    seed_acm_data(app, **SEED_SCALE)
    app.ctx.stats.reset()
    return app, page_cache


def _url_pool(app: WebApplication) -> list[str]:
    """Most popular first: Figure 1's Volume Page — the content-heavy
    page the whole architecture is built around."""
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
    """One cold pass over the pool: percentiles then measure steady-state
    serving, not first-visit builds."""
    browser = Browser(app)
    for url in pool:
        assert browser.get(url).status == 200


def _admin_writer(app: WebApplication) -> Browser:
    writer = Browser(app)
    writer.get(app.operation_url(
        "admin", "Login", {"username": "admin", "password": "secret"}
    ))
    assert writer.status == 200
    return writer


def _write_factory(app: WebApplication):
    """CreatePaper writes with unique titles; each one's visibility is
    probed through the public keyword search — the read-after-write
    check a stale cache would fail."""
    view = app.model.find_site_view("public")
    matching = view.find_page("SearchResults").unit("Matching papers")

    def factory(index: int) -> WriteAction:
        title = f"E15 hot-off-the-press {index:04d}"
        return WriteAction(
            url=app.operation_url("admin", "CreatePaper",
                                  {"title": title, "pages": 7}),
            check_url=app.page_url("public", "SearchResults",
                                   {f"{matching.id}.keyword": title}),
            check_text=title,
        )

    return factory


def _record(phase: str, mode: str, report, page_cache) -> dict:
    measured = {
        "p50_ms": report.p50_ms,
        "p99_ms": report.p99_ms,
        "queries_per_request": report.queries_per_request,
        "bytes_on_wire": report.bytes_on_wire,
        "not_modified_ratio": report.not_modified_ratio,
        "staleness_violations": report.staleness_violations,
        "invalidation_precision": report.invalidation_precision,
        "page_hit_rate": page_cache.stats.hit_rate if page_cache else 0.0,
    }
    _RESULTS[f"{phase}:{mode}"] = measured
    return measured


def _run_read_heavy(mode: str, conditional: bool = True, phase: str = "read"):
    app, page_cache = _build(mode)
    pool = _url_pool(app)
    _warm(app, pool)
    traffic = TrafficGenerator(app, pool, seed=2003)
    report = traffic.run(READ_REQUESTS, sessions=4, conditional=conditional)
    assert report.errors == 0
    return _record(phase, mode, report, page_cache)


def _run_mixed(mode: str):
    app, page_cache = _build(mode)
    traffic = TrafficGenerator(app, _url_pool(app), seed=77)
    report = traffic.run(
        MIXED_REQUESTS, sessions=4, conditional=True,
        write_every=WRITE_EVERY, write_factory=_write_factory(app),
        writer=_admin_writer(app), page_cache=page_cache,
    )
    assert report.errors == 0
    assert report.writes == MIXED_REQUESTS // WRITE_EVERY
    return _record("mixed", mode, report, page_cache)


def test_e15_read_heavy_page_cache_speedup():
    off = _run_read_heavy("off")
    scoped = _run_read_heavy("scoped")
    # the headline claim: serving the stored response beats re-running
    # the action + template path by at least 5x at the median
    assert scoped["p50_ms"] * 5 <= off["p50_ms"], (
        f"page cache p50 {scoped['p50_ms']:.3f} ms not 5x faster than "
        f"{off['p50_ms']:.3f} ms without it"
    )
    assert scoped["p99_ms"] < off["p99_ms"]
    # conditional delivery: revisits revalidate instead of re-downloading,
    # and a 304 costs zero body bytes — against a client with no HTTP
    # cache the same traffic re-downloads every page in full
    plain = _run_read_heavy("scoped", conditional=False, phase="plain")
    assert scoped["not_modified_ratio"] > 0.5
    assert plain["not_modified_ratio"] == 0.0
    assert scoped["bytes_on_wire"] < plain["bytes_on_wire"] / 10
    assert scoped["queries_per_request"] <= off["queries_per_request"]


def test_e15_mixed_traffic_scoped_beats_flush_all():
    for mode in MODES:
        _run_mixed(mode)
    off = _RESULTS["mixed:off"]
    flush = _RESULTS["mixed:flush-all"]
    scoped = _RESULTS["mixed:scoped"]

    # correctness first: no configuration may ever serve a read that
    # misses a preceding write
    for mode in MODES:
        assert _RESULTS[f"mixed:{mode}"]["staleness_violations"] == 0

    # model-driven invalidation keeps unrelated pages alive...
    assert scoped["page_hit_rate"] > flush["page_hit_rate"]
    # ...because writes only drop their dependents (flush-all: nothing
    # survives any write)
    assert flush["invalidation_precision"] == 0.0
    assert scoped["invalidation_precision"] > 0.0
    # and the cached modes stay cheaper than no page cache at all
    assert scoped["p50_ms"] < off["p50_ms"]


def test_e15_report():
    needed = [f"read:{m}" for m in ("off", "scoped")] + ["plain:scoped"]
    needed += [f"mixed:{m}" for m in MODES]
    if not all(key in _RESULTS for key in needed):
        pytest.skip("component measurements did not run")

    report = ExperimentReport(
        "E15", "full-page delivery: page cache, conditional HTTP, "
               "scoped invalidation", "§6",
    )
    read_off, read_scoped = _RESULTS["read:off"], _RESULTS["read:scoped"]
    report.add(
        "read-heavy p50 / p99", "action+template path every request",
        f"{read_scoped['p50_ms']:.2f} / {read_scoped['p99_ms']:.2f} ms vs "
        f"{read_off['p50_ms']:.2f} / {read_off['p99_ms']:.2f} ms off",
        note=f"{read_off['p50_ms'] / read_scoped['p50_ms']:.1f}x at the "
             f"median ({READ_REQUESTS} requests)",
    )
    plain = _RESULTS["plain:scoped"]
    report.add(
        "read-heavy delivery", "full body every response",
        f"{read_scoped['not_modified_ratio']:.0%} 304s, "
        f"{read_scoped['bytes_on_wire']} B on the wire",
        note=f"{plain['bytes_on_wire']} B for a client without an HTTP "
             "cache",
    )
    for mode in MODES:
        measured = _RESULTS[f"mixed:{mode}"]
        report.add(
            f"mixed traffic, {mode}",
            "0 staleness violations",
            f"p50 {measured['p50_ms']:.2f} ms, "
            f"hit rate {measured['page_hit_rate']:.0%}, "
            f"precision {measured['invalidation_precision']:.0%}, "
            f"{measured['staleness_violations']} stale reads",
            note=f"{measured['queries_per_request']:.2f} queries/request",
        )
    save_report(report, json_payload={"phases": dict(_RESULTS)})
