"""E13 — the thread-safe runtime under concurrent load.

The paper's architecture (§1, §4) exists to serve "a high number of
users": one servlet container dispatching requests to worker threads
over shared business components, pooled connections, and the two-level
cache.  This experiment runs ``app.handle`` on a pool of N threads
(a stdlib :class:`~concurrent.futures.ThreadPoolExecutor`) and verifies
the two properties a multithreaded runtime must deliver at once:

* **read-heavy traffic scales with workers** — data-tier round trips
  (simulated by ``Database.io_delay``, which sleeps outside the rdb
  locks exactly like a JDBC driver waiting on the wire) overlap across
  threads, so requests/sec grow with the worker count;
* **write traffic stays linearizable** — concurrent operations never
  lose updates, and the §6 model-driven bean cache never serves a bean
  that an operation already invalidated (each writer re-reads its own
  book through the full request path and must see its own price).

Run fast (CI smoke): ``REPRO_FAST=1 pytest benchmarks/bench_e13_concurrency.py``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.app import WebApplication
from repro.bench import ExperimentReport, save_report
from repro.caching import UnitBeanCache
from repro.mvc.http import HttpRequest
from repro.workloads.acm import build_acm_application
from repro.workloads.bookstore import build_bookstore_model, seed_bookstore
from repro.workloads.traffic import page_url_pool

FAST = bool(os.environ.get("REPRO_FAST"))

#: simulated data-tier round-trip per SQL statement (sleeps with the GIL
#: released, so worker threads overlap their waits — the mechanism that
#: makes threading pay off for I/O-bound page requests)
IO_DELAY = 0.003
WORKER_STEPS = (1, 4) if FAST else (1, 2, 4, 8)
READ_REQUESTS = 24 if FAST else 96
ACM_READ_REQUESTS = 24 if FAST else 64
WRITERS = 3
WRITES_PER_WRITER = 3 if FAST else 8
READERS = 3
READS_PER_READER = 6 if FAST else 24
#: full-mode acceptance: 4 workers at least double 1-worker throughput;
#: the CI smoke keeps a safety margin against noisy shared runners
SCALING_FLOOR = 1.5 if FAST else 2.0


def _content_renderer(page_result, request, controller) -> str:
    """A view that serializes bean *content*, so consistency checks can
    read the served price straight out of the response body."""
    payload = {
        bean.name: {"current": bean.current, "from_cache": bean.from_cache}
        for bean in page_result.beans.values()
    }
    return json.dumps(payload, default=str)


def _detail_url(app, view_name: str, page_name: str, unit_name: str,
                oid: int) -> str:
    """A page URL carrying the namespaced selection parameter of one
    unit (the same shape the controller's generated links use)."""
    view = app.model.find_site_view(view_name)
    page = view.find_page(page_name)
    unit = next(u for u in page.units if u.name == unit_name)
    return app.page_url(view_name, page_name, {f"{unit.id}.oid": oid})


def _build_bookstore(bean_cache=None, view_renderer=None):
    model = build_bookstore_model()
    if bean_cache is not None:
        # every content unit participates in the §6 bean cache
        for unit in model.all_units():
            if unit.kind != "entry":
                unit.cacheable = True
    app = WebApplication(model, view_renderer=view_renderer,
                         bean_cache=bean_cache)
    oids = seed_bookstore(app)
    app.ctx.stats.reset()
    app.database.stats.reset()
    return app, oids


def _bookstore_read_pool(app, oids) -> list[str]:
    pool = [app.page_url("shop", "Home"),
            app.page_url("shop", "Catalogue")]
    for genre in oids["genres"]:
        pool.append(_detail_url(app, "shop", "Genre Page", "Genre", genre))
    for book in oids["books"]:
        pool.append(_detail_url(app, "shop", "Book Page", "Book", book))
    return pool


def _throughput(app, pool: list[str], workers: int, requests: int) -> dict:
    """Serve ``requests`` URLs (round-robin) and measure requests/sec."""
    batch = [HttpRequest.from_url(pool[i % len(pool)])
             for i in range(requests)]
    with ThreadPoolExecutor(max_workers=workers) as executor:
        started = time.perf_counter()
        # a handler exception re-raises here
        responses = list(executor.map(app.handle, batch, timeout=60))
        elapsed = time.perf_counter() - started
    assert all(r.status == 200 for r in responses)
    return {
        "workers": workers,
        "requests": requests,
        "seconds": elapsed,
        "rps": requests / elapsed,
    }


# -- read-heavy scaling ------------------------------------------------------


def test_e13_read_scaling(benchmark):
    app, oids = _build_bookstore()
    app.database.io_delay = IO_DELAY
    pool = _bookstore_read_pool(app, oids)

    acm_app, _acm_oids = build_acm_application(
        volumes=3, issues_per_volume=2, papers_per_issue=3
    )
    acm_app.database.io_delay = IO_DELAY
    acm_pool = page_url_pool(acm_app, "public")

    def simulate():
        bookstore = [_throughput(app, pool, w, READ_REQUESTS)
                     for w in WORKER_STEPS]
        acm = [_throughput(acm_app, acm_pool, w, ACM_READ_REQUESTS)
               for w in (WORKER_STEPS[0], WORKER_STEPS[-1])]
        return bookstore, acm

    bookstore_runs, acm_runs = benchmark.pedantic(
        simulate, rounds=1, iterations=1
    )

    by_workers = {run["workers"]: run["rps"] for run in bookstore_runs}
    four = 4 if 4 in by_workers else WORKER_STEPS[-1]
    speedup = by_workers[four] / by_workers[1]
    acm_speedup = acm_runs[-1]["rps"] / acm_runs[0]["rps"]

    report = ExperimentReport(
        "E13", "concurrent request throughput and consistency",
        "§1/§4 multithreaded runtime",
    )
    for run in bookstore_runs:
        report.add(
            f"bookstore req/s at {run['workers']} worker(s)",
            "grows with workers", round(run["rps"], 1),
            f"{run['requests']} requests",
        )
    report.add(f"bookstore speedup at {four} workers", ">= 2x",
               round(speedup, 2), "I/O waits overlap across threads")
    report.add(f"ACM speedup at {acm_runs[-1]['workers']} workers",
               ">= 2x", round(acm_speedup, 2))
    save_report(report, json_payload={
        "bookstore_runs": bookstore_runs,
        "acm_runs": acm_runs,
        "bookstore_speedup": round(speedup, 3),
        "acm_speedup": round(acm_speedup, 3),
        "scaling_floor": SCALING_FLOOR,
    })

    assert speedup >= SCALING_FLOOR, (
        f"4-worker throughput only {speedup:.2f}x the single-worker run"
    )
    assert acm_speedup >= SCALING_FLOOR


# -- mixed read/write consistency -------------------------------------------


class _Violations:
    """Thread-safe tally of consistency violations, with descriptions."""

    def __init__(self):
        self._lock = threading.Lock()
        self.items: list[str] = []

    def record(self, description: str) -> None:
        with self._lock:
            self.items.append(description)

    def __len__(self) -> int:
        return len(self.items)


def _login(pool: ThreadPoolExecutor, app) -> str:
    request = HttpRequest.from_url(app.operation_url(
        "backoffice", "Login", {"username": "clerk", "password": "books"}
    ))
    pool.submit(app.handle, request).result(30.0)
    assert request.session_id is not None
    return request.session_id


def test_e13_mixed_consistency(benchmark):
    app, oids = _build_bookstore(bean_cache=UnitBeanCache(),
                                 view_renderer=_content_renderer)
    app.database.io_delay = IO_DELAY / 3
    violations = _Violations()
    read_pool = _bookstore_read_pool(app, oids)
    baseline_books = app.database.query(
        "SELECT COUNT(*) AS n FROM book", {}
    ).scalar()

    def writer(pool, index: int, book_oid: int, final_price: list):
        """Reprice one book repeatedly; after every write, re-read the
        book through the full request path (bean cache included) and
        demand read-own-write — a stale invalidated bean fails here."""
        session_id = _login(pool, app)
        read_url = _detail_url(app, "shop", "Book Page", "Book", book_oid)
        for step in range(WRITES_PER_WRITER):
            price = 100.0 + index * 100 + step
            pool.submit(app.handle, HttpRequest.from_url(
                app.operation_url("backoffice", "Reprice",
                                  {"oid": book_oid, "price": price}),
                session_id=session_id,
            )).result(30.0)
            final_price[index] = price
            response = pool.submit(
                app.handle, HttpRequest.from_url(read_url)
            ).result(30.0)
            served = json.loads(response.body)["Book"]["current"]
            if served is None or float(served["price"]) != price:
                violations.record(
                    f"writer {index}: wrote {price}, read "
                    f"{served and served['price']} (stale bean?)"
                )
        # one create per writer: concurrent inserts must not be lost
        pool.submit(app.handle, HttpRequest.from_url(
            app.operation_url("backoffice", "CreateBook", {
                "title": f"Concurrency in Practice vol. {index}",
                "price": 10.0 + index, "year": 2003,
            }),
            session_id=session_id,
        )).result(30.0)

    def reader(pool):
        for step in range(READS_PER_READER):
            response = pool.submit(app.handle, HttpRequest.from_url(
                read_pool[step % len(read_pool)]
            )).result(30.0)
            if response.status != 200:
                violations.record(f"reader got HTTP {response.status}")

    def simulate():
        final_price = [None] * WRITERS
        with ThreadPoolExecutor(max_workers=4) as pool:
            threads = [
                threading.Thread(
                    target=writer,
                    args=(pool, i, oids["books"][i], final_price),
                )
                for i in range(WRITERS)
            ] + [
                threading.Thread(target=reader, args=(pool,))
                for _ in range(READERS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        return final_price

    final_price = benchmark.pedantic(simulate, rounds=1, iterations=1)

    # no lost updates: the database holds each writer's last price...
    for index in range(WRITERS):
        stored = app.database.query(
            "SELECT price FROM book WHERE oid = :oid",
            {"oid": oids["books"][index]},
        ).scalar()
        assert stored == final_price[index], (
            f"book {index}: last write {final_price[index]} lost, "
            f"database holds {stored}"
        )
    # ...and every concurrent create landed
    book_count = app.database.query(
        "SELECT COUNT(*) AS n FROM book", {}
    ).scalar()
    assert book_count == baseline_books + WRITERS

    pool_stats = app.ctx.pool.wait_stats()
    cache_stats = app.ctx.bean_cache.stats

    report = ExperimentReport(
        "E13b", "mixed read/write consistency under concurrency",
        "§6 model-driven invalidation",
    )
    report.add("consistency violations", 0, len(violations),
               "read-own-write through the bean cache")
    report.add("lost updates", 0, 0,
               f"{WRITERS} writers x {WRITES_PER_WRITER} reprices")
    report.add("lost inserts", 0, 0, f"{WRITERS} concurrent creates")
    report.add("bean cache hits / misses", "both > 0",
               f"{cache_stats.hits} / {cache_stats.misses}")
    report.add("cache invalidations", "> 0", cache_stats.invalidations)
    report.add("pool waits (count / seconds)", "observed",
               f"{pool_stats['wait_count']} / "
               f"{pool_stats['total_wait_seconds']:.3f}")
    save_report(report, json_payload={
        "consistency_violations": len(violations),
        "writers": WRITERS,
        "readers": READERS,
        "cache": cache_stats.to_dict(),
        "pool_waits": pool_stats,
    })

    assert len(violations) == 0, "; ".join(violations.items[:5])
    assert cache_stats.invalidations > 0, (
        "operations never invalidated the bean cache — the consistency "
        "check would be vacuous"
    )
    assert cache_stats.hits > 0
