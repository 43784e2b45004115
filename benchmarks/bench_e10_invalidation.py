"""E10 (ablation) — §6: model-driven invalidation versus flush-all.

§6's automatic invalidation exists because the conceptual model "clearly
exposes the Entity or Relationship on which the content of a unit
depends".  A cache without that knowledge has two blunt options: flush
everything on every write (safe but hit-starved) or rely on TTLs (serves
stale content inside the window).

The benchmark replays the same read/write mix against the three
strategies and reports hit rate and stale serves.  Expected shape:
model-driven keeps most of the hit rate of TTL with the zero staleness
of flush-all.
"""

import pytest

from repro.bench import ExperimentReport, save_report
from repro.caching import UnitBeanCache
from repro.services import GenericOperationService, GenericPageService
from repro.mvc.http import Session
from repro.workloads.acm import build_acm_application

READS_PER_WRITE = 9
ROUNDS = 30


class _FlushAllCache(UnitBeanCache):
    """The model-blind alternative: any write clears everything."""

    def invalidate_writes(self, entities=(), roles=()) -> int:
        return self.flush()


class _TtlOnlyCache(UnitBeanCache):
    """No invalidation at all; entries only expire by TTL (set long
    enough here that staleness is observable)."""

    def invalidate_writes(self, entities=(), roles=()) -> int:
        return 0


def _run_strategy(cache, benchmark=None):
    app, oids = build_acm_application(volumes=3, issues_per_volume=2,
                                      papers_per_issue=3)
    app.ctx.bean_cache = cache
    # operations invalidate through the bus, which only knows the
    # levels registered on it
    app.ctx.register_cache_level("bean", cache)
    for unit in app.model.all_units():
        if unit.kind != "entry":
            unit.cacheable = True
    # redeploy with the cacheable flags
    from repro.codegen import generate_project

    project = generate_project(app.model, validate=False)
    project.deploy(app.registry)

    page_service = GenericPageService(app.ctx)
    operation_service = GenericOperationService(app.ctx)
    view = app.model.find_site_view("public")
    volumes_page = app.registry.page(view.find_page("Volumes").id)
    browse_page = app.registry.page(view.find_page("Browse papers").id)
    admin_view = app.model.find_site_view("admin")
    create_paper = app.registry.operation(
        next(o for o in admin_view.operations if o.name == "CreatePaper").id
    )
    session = Session("bench")

    stale_serves = 0
    paper_count = app.database.row_count("paper")

    def one_round(round_number: int):
        nonlocal stale_serves, paper_count
        for _ in range(READS_PER_WRITE):
            page_service.compute_page(volumes_page, {})
            result = page_service.compute_page(browse_page, {})
            scroller = next(iter(result.beans.values()))
            if scroller.total is not None and scroller.total != paper_count:
                stale_serves += 1
        outcome = operation_service.execute(
            create_paper,
            {"title": f"Paper {round_number}", "pages": "5"},
            session,
        )
        assert outcome.ok
        paper_count += 1

    def run_all():
        for round_number in range(ROUNDS):
            one_round(round_number)
        return cache.stats.hit_rate

    if benchmark is not None:
        hit_rate = benchmark.pedantic(run_all, rounds=1, iterations=1)
    else:
        hit_rate = run_all()
    return {
        "hit_rate": hit_rate,
        "stale_serves": stale_serves,
        "invalidations": cache.stats.invalidations,
    }


_RESULTS: dict[str, dict] = {}


def test_e10_model_driven(benchmark):
    _RESULTS["model-driven"] = _run_strategy(UnitBeanCache(), benchmark)
    assert _RESULTS["model-driven"]["stale_serves"] == 0


def test_e10_flush_all(benchmark):
    _RESULTS["flush-all"] = _run_strategy(_FlushAllCache(), benchmark)
    assert _RESULTS["flush-all"]["stale_serves"] == 0


def test_e10_ttl_only(benchmark):
    _RESULTS["ttl-only"] = _run_strategy(_TtlOnlyCache(), benchmark)
    # without invalidation the scroller keeps serving the old count
    assert _RESULTS["ttl-only"]["stale_serves"] > 0


def test_e10_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    if set(_RESULTS) != {"model-driven", "flush-all", "ttl-only"}:
        pytest.skip("component measurements did not run")
    model_driven = _RESULTS["model-driven"]
    flush_all = _RESULTS["flush-all"]
    ttl_only = _RESULTS["ttl-only"]

    report = ExperimentReport(
        "E10", "invalidation precision: model-driven vs alternatives",
        "§6 (ablation)"
    )
    report.add("hit rate, model-driven", "high",
               f"{model_driven['hit_rate']:.1%}",
               note=f"{model_driven['invalidations']} precise invalidations")
    report.add("hit rate, flush-all", "lower (over-invalidates)",
               f"{flush_all['hit_rate']:.1%}",
               note=f"{flush_all['invalidations']} entries flushed")
    report.add("hit rate, no invalidation (TTL)", "highest but unsafe",
               f"{ttl_only['hit_rate']:.1%}")
    report.add("stale serves, model-driven", 0,
               model_driven["stale_serves"])
    report.add("stale serves, flush-all", 0, flush_all["stale_serves"])
    report.add("stale serves, no invalidation", "> 0 (the danger)",
               ttl_only["stale_serves"])
    save_report(report, json_payload=report.rows_payload())

    assert model_driven["hit_rate"] > flush_all["hit_rate"]
    assert model_driven["stale_serves"] == 0
