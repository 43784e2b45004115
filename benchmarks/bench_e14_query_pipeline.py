"""E14 — the cost-based query pipeline, from the rdb planner up to the
batched unit services.

Two claims of §1 ("the generated code should perform and scale well")
are measured against the seed's behaviour, which this PR keeps alive as
explicit baselines:

* **cost-based planning** — the seed planner used an index only for a
  full exact-equality match; ranges, IN-lists, and badly-ordered joins
  fell back to full scans.  ``Database.prepare(sql, mode="seed")``
  rebuilds exactly that naive plan, and this experiment runs both plans
  over a scaled bookstore catalogue: the optimized plan must pick an
  index (or reorder the join) on every probe query where the naive plan
  scans, and must be measurably faster.

* **batched unit loading** — the seed hierarchical index ran one
  ``:parent`` query per parent row (the classic N+1); the batch loader
  turns each level into a single IN-list query.  With a simulated wire
  delay per statement (``Database.io_delay``, as in E13) the page's
  query count drops from O(rows) to O(levels) and latency follows.

Run fast (CI smoke): ``REPRO_FAST=1 pytest benchmarks/bench_e14_query_pipeline.py``.
"""

from __future__ import annotations

import os
import time

from repro.bench import ExperimentReport, save_report
from repro.rdb import Database
from repro.services import GenericUnitService
from repro.workloads.acm import build_acm_application

FAST = bool(os.environ.get("REPRO_FAST"))

BOOKS = 2_000 if FAST else 12_000
#: wide enough that the year-filtered book set is smaller than the
#: genre table — the join-reorder probe needs the filtered side to win
GENRES = 600
TIMING_ROUNDS = 5 if FAST else 20
#: per-statement simulated data-tier round trip for the batching half
IO_DELAY = 0.002
ACM_SCALE = dict(volumes=2, issues_per_volume=6, papers_per_issue=4) \
    if FAST else dict(volumes=3, issues_per_volume=10, papers_per_issue=6)

_RESULTS: dict[str, dict] = {}


def _catalogue() -> Database:
    """A bookstore-shaped catalogue at benchmark scale, laid out the way
    the er mapping generates it (pk + secondary index per FK) plus the
    kind of attribute index a data expert adds while tuning (§6)."""
    db = Database()
    db.execute(
        "CREATE TABLE genre (oid INTEGER NOT NULL AUTOINCREMENT,"
        " name VARCHAR(60) NOT NULL, PRIMARY KEY (oid))"
    )
    db.execute(
        "CREATE TABLE book (oid INTEGER NOT NULL AUTOINCREMENT,"
        " title VARCHAR(160) NOT NULL, price FLOAT, year INTEGER,"
        " genre_oid INTEGER, PRIMARY KEY (oid))"
    )
    db.execute("CREATE INDEX ix_book_genre ON book (genre_oid)")
    db.execute("CREATE INDEX ix_book_year ON book (year)")
    for i in range(GENRES):
        db.insert_row("genre", {"name": f"genre-{i:02d}"})
    for i in range(BOOKS):
        db.insert_row("book", {
            "title": f"book-{i:05d}",
            "price": 10.0 + (i % 600) / 10.0,
            "year": 1980 + (i % 40),
            "genre_oid": (i % GENRES) + 1,
        })
    db.analyze()
    db.stats.reset()
    return db


#: (label, sql, naive marker, optimized marker) — queries the seed
#: planner could only answer by scanning; the cost-based planner must
#: find an index or a better join order for every one of them.
PROBE_QUERIES = [
    ("range on indexed year",
     "SELECT title FROM book WHERE year BETWEEN 2015 AND 2016",
     "SeqScan(book", "IndexRange(book"),
    ("inequality on indexed year",
     "SELECT title FROM book WHERE year >= 2018",
     "SeqScan(book", "IndexRange(book"),
    ("IN-list over the genre FK",
     "SELECT title FROM book WHERE genre_oid IN (2, 5)",
     "SeqScan(book", "IndexIn(book"),
    # The naive plan keeps the declared order: it seq-scans all of
    # genre and hash-builds all of book; the cost-based plan starts
    # from book narrowed by the year index.
    ("join reordered onto the filtered side",
     "SELECT g.name, b.title FROM genre g"
     " JOIN book b ON b.genre_oid = g.oid WHERE b.year = 2019",
     "SeqScan(genre AS g", "IndexLookup(book AS b"),
    # The seed plan materialises, keys and sorts every book to return
    # ten; the ordered walk passes 500 index entries and stops.  Every
    # year repeats BOOKS / 40 times, so the identical answer below also
    # checks the walk's tie order against the stable sort's.
    ("paged ORDER BY on indexed year",
     "SELECT title FROM book ORDER BY year LIMIT 10 OFFSET 500",
     "Sort(1 keys)", "IndexOrderScan(book"),
]


def _time_plan(plan, rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        plan.execute({})
        best = min(best, time.perf_counter() - start)
    return best


def test_e14_cost_based_plans_beat_naive():
    db = _catalogue()
    rows = []
    for label, sql, naive_marker, opt_marker in PROBE_QUERIES:
        optimized = db.prepare(sql)
        naive = db.prepare(sql, mode="seed")
        optimized_rows = optimized.execute({}).as_tuples()
        naive_rows = naive.execute({}).as_tuples()
        if "ORDER BY" not in sql:
            optimized_rows.sort()
            naive_rows.sort()
        assert optimized_rows == naive_rows  # same answer, new plan
        assert naive_marker in naive.explain()
        assert opt_marker in optimized.explain()
        assert "Sort" not in optimized.explain()
        t_opt = _time_plan(optimized, TIMING_ROUNDS)
        t_naive = _time_plan(naive, TIMING_ROUNDS)
        assert t_opt < t_naive, f"{label}: {t_opt:.6f}s !< {t_naive:.6f}s"
        rows.append((label, t_naive, t_opt, t_naive / t_opt))
    _RESULTS["plans"] = {"rows": rows}


def test_e14_join_reorder_starts_from_filtered_table():
    db = _catalogue()
    _, sql, _, _ = PROBE_QUERIES[3]
    opt_lines = db.prepare(sql).explain().splitlines()
    naive_lines = db.prepare(sql, mode="seed").explain().splitlines()
    # naive keeps the declared order (genre is the base scan); the
    # cost-based plan starts from the filtered book binding instead.
    assert "genre AS g" in naive_lines[-1]
    assert "book AS b" in opt_lines[-1]


def test_e14_batched_units_run_constant_queries():
    def _render(batched: bool):
        app, oids = build_acm_application(**ACM_SCALE)
        app.database.io_delay = IO_DELAY
        descriptor = next(
            deployed.parsed for deployed in app.ctx.registry.units.values()
            if deployed.parsed.kind == "hierarchical"
        )
        descriptor.batched = batched
        service = GenericUnitService(app.ctx)
        inputs = {"volume_to_issue": oids["volumes"][0]}
        start = time.perf_counter()
        bean = service.compute(descriptor, inputs)
        elapsed = time.perf_counter() - start
        return bean, app.ctx.stats, elapsed

    bean_batched, stats_batched, t_batched = _render(batched=True)
    bean_naive, stats_naive, t_naive = _render(batched=False)

    issues = len(bean_batched.rows)
    assert issues == ACM_SCALE["issues_per_volume"]
    assert bean_batched.rows == bean_naive.rows  # identical content
    # O(levels): root query + one IN-list for the whole Paper level
    assert stats_batched.queries_executed == 2
    assert stats_batched.batched_queries == 1
    # O(rows): root query + one query per issue row
    assert stats_naive.queries_executed == 1 + issues
    assert t_batched < t_naive
    _RESULTS["batching"] = {
        "issues": issues,
        "queries_batched": stats_batched.queries_executed,
        "queries_naive": stats_naive.queries_executed,
        "t_batched": t_batched,
        "t_naive": t_naive,
    }


def test_e14_report():
    plans = _RESULTS.get("plans")
    batching = _RESULTS.get("batching")
    if not (plans and batching):
        import pytest

        pytest.skip("component measurements did not run")

    report = ExperimentReport(
        "E14", "cost-based planning and batched unit loading",
        "§1, §6 (ablation)",
    )
    for label, t_naive, t_opt, speedup in plans["rows"]:
        report.add(
            label, "full scan (seed planner)",
            f"{t_opt * 1e6:.0f} us vs {t_naive * 1e6:.0f} us naive",
            note=f"{speedup:.1f}x faster ({BOOKS} books)",
        )
    report.add(
        "hierarchical unit, queries per page",
        f"1 + {batching['issues']} (N+1)",
        f"{batching['queries_batched']} (root + 1 per level)",
        note="IN-list batch loader",
    )
    report.add(
        "hierarchical unit, latency",
        f"{batching['t_naive'] * 1e3:.1f} ms per-row",
        f"{batching['t_batched'] * 1e3:.1f} ms batched",
        note=f"{batching['t_naive'] / batching['t_batched']:.1f}x faster"
             f" at {IO_DELAY * 1e3:.0f} ms simulated wire delay",
    )
    save_report(report, json_payload={
        "fast_mode": FAST,
        "books": BOOKS,
        "plans": {
            label: {
                "naive_seconds": t_naive,
                "optimized_seconds": t_opt,
                "speedup": speedup,
            }
            for label, t_naive, t_opt, speedup in plans["rows"]
        },
        "batching": {
            "issues": batching["issues"],
            "queries_batched": batching["queries_batched"],
            "queries_naive": batching["queries_naive"],
            "batched_seconds": batching["t_batched"],
            "naive_seconds": batching["t_naive"],
            "speedup": batching["t_naive"] / batching["t_batched"],
        },
    })
