"""E17 — compiled query execution against the interpreted evaluator.

The rdb compiles every planned expression tree into a closed-over
Python function at ``prepare()`` time (``repro.rdb.compile``): scan
predicates and fused scan→filter→project pipelines run in row mode
without building per-row binding maps or ``RowScope`` objects, hash
joins extract keys with compiled tuple builders, and aggregates feed
compiled argument extractors.  This experiment measures that work on
the three interpreter-bound shapes of §1's "the generated code should
perform and scale well":

* **full-scan filter** — a multi-term predicate (range + LIKE +
  NULL test) with an arithmetic projection and an ORDER BY over the
  computed alias, fused into one row-mode pipeline;
* **hash join** — compiled build/probe key extraction plus a compiled
  prefilter on the probe side;
* **aggregation** — GROUP BY over the whole catalogue with compiled
  group keys and per-call argument extractors.

Each probe runs the same *optimized* plan twice — once compiled
(``db.prepare(sql, mode="compiled")``) and once with compilation
switched off (``db.prepare(sql, mode="interpreted")``) — so the comparison
isolates expression evaluation from planning.  The explicit
``mode="compiled"`` pins the row engine: at this scale the cost model
would otherwise route the seq-scan probes to the columnar batch
pipeline, which is E20's subject, measured against exactly this
compiled-row path.  Answers must be byte-identical, and the seed
interpreter (``mode="seed"``) must agree up to row order.  At
benchmark scale the compiled plan must be at least 2x faster on every
probe.

Run fast (CI smoke): ``REPRO_FAST=1 pytest benchmarks/bench_e17_compiled_execution.py``.
"""

from __future__ import annotations

import os
import time

from repro.bench import ExperimentReport, save_report
from repro.rdb import Database

FAST = bool(os.environ.get("REPRO_FAST"))

BOOKS = 2_000 if FAST else 12_000
GENRES = 12
TIMING_ROUNDS = 5 if FAST else 15
#: at full scale the compiled plan must clear this factor on every
#: probe; the fast smoke only checks direction (small runs are noisy)
MIN_SPEEDUP = 2.0

_RESULTS: dict[str, dict] = {}


def _catalogue() -> Database:
    """The bookstore catalogue at benchmark scale (same layout as E14:
    er-generated pk + FK index), with enough NULLs and string variety
    to exercise the three-valued predicates the compiler must honour."""
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
    for i in range(GENRES):
        db.insert_row("genre", {"name": f"genre-{i}"})
    for i in range(BOOKS):
        db.insert_row("book", {
            "title": f"b{i}",
            "price": 10.0 + (i % 890) / 10.0,
            "year": None if i % 3 == 0 else 1990 + i % 30,
            "genre_oid": i % GENRES + 1,
        })
    db.analyze()
    db.stats.reset()
    return db


#: (label, sql, params) — one probe per interpreter-bound shape
PROBE_QUERIES = [
    ("fused full-scan filter",
     "SELECT title, price * :rate + price AS px FROM book"
     " WHERE price > :lo AND price < :hi AND title LIKE 'b1%'"
     " AND year IS NOT NULL ORDER BY px DESC",
     {"rate": 1.1, "lo": 20.0, "hi": 60.0}),
    ("hash join, compiled keys",
     "SELECT g.name, b.title, b.price * :rate AS px FROM genre g"
     " JOIN book b ON b.genre_oid = g.oid"
     " WHERE b.price > :lo AND b.title LIKE 'b%' AND g.name <> :skip",
     {"lo": 50.0, "rate": 1.2, "skip": "genre-0"}),
    ("grouped aggregation",
     "SELECT genre_oid, COUNT(*) AS n, SUM(price) AS total,"
     " AVG(price) AS ap FROM book WHERE year IS NOT NULL"
     " GROUP BY genre_oid ORDER BY total DESC",
     {}),
]


def _time_plan(plan, params: dict, rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        plan.execute(params)
        best = min(best, time.perf_counter() - start)
    return best


def test_e17_compiled_matches_and_beats_interpreted():
    db = _catalogue()
    rows = []
    for label, sql, params in PROBE_QUERIES:
        compiled = db.prepare(sql, mode="compiled")
        interpreted = db.prepare(sql, mode="interpreted")
        seed = db.prepare(sql, mode="seed")
        assert compiled.exec_mode == "compiled", label
        assert interpreted.exec_mode == "interpreted", label
        assert "exec=compiled" in compiled.explain()
        # same optimized plan, same answer, byte for byte
        compiled_rows = compiled.execute(params).as_tuples()
        assert compiled_rows == interpreted.execute(params).as_tuples(), label
        # the seed interpreter agrees up to row order
        assert sorted(map(repr, compiled_rows)) == \
            sorted(map(repr, seed.execute(params).as_tuples())), label
        t_compiled = _time_plan(compiled, params, TIMING_ROUNDS)
        t_interpreted = _time_plan(interpreted, params, TIMING_ROUNDS)
        speedup = t_interpreted / t_compiled
        if FAST:
            assert t_compiled < t_interpreted, \
                f"{label}: {t_compiled:.6f}s !< {t_interpreted:.6f}s"
        else:
            assert speedup >= MIN_SPEEDUP, \
                f"{label}: {speedup:.2f}x < {MIN_SPEEDUP}x"
        rows.append((label, t_interpreted, t_compiled, speedup,
                     len(compiled_rows)))
    _RESULTS["probes"] = {"rows": rows}


def test_e17_scan_probe_runs_fused():
    db = _catalogue()
    _, sql, _ = PROBE_QUERIES[0]
    plan = db.prepare(sql, mode="compiled")
    assert plan.fused
    assert "fused" in plan.explain()


def test_e17_compile_cost_is_accounted():
    db = _catalogue()
    for _, sql, params in PROBE_QUERIES:
        # through the statement API, so the mode counters see it
        db.query(sql, params)
    stats = db.observability_stats()
    assert stats["plans_compiled"] >= len(PROBE_QUERIES)
    assert stats["compile_ms_total"] > 0.0
    # the cached default plans may run columnar on the seq-scan probes;
    # either way every select went through a compiled artifact
    assert stats["selects_compiled"] + stats["selects_columnar"] \
        >= len(PROBE_QUERIES)
    _RESULTS["compile"] = {
        "plans_compiled": stats["plans_compiled"],
        "compile_ms_total": stats["compile_ms_total"],
    }


def test_e17_report():
    probes = _RESULTS.get("probes")
    compile_stats = _RESULTS.get("compile")
    if not (probes and compile_stats):
        import pytest

        pytest.skip("component measurements did not run")

    report = ExperimentReport(
        "E17", "compiled expressions and fused pipelines vs the"
        " interpreted evaluator", "§1 (performance of generated code)",
    )
    for label, t_interp, t_compiled, speedup, n_rows in probes["rows"]:
        report.add(
            label, f"{t_interp * 1e3:.2f} ms interpreted",
            f"{t_compiled * 1e3:.2f} ms compiled",
            note=f"{speedup:.1f}x faster"
                 f" ({BOOKS} books, {n_rows} result rows)",
        )
    report.add(
        "one-time compilation cost",
        "0 ms (interpreter builds nothing)",
        f"{compile_stats['compile_ms_total']:.2f} ms"
        f" for {compile_stats['plans_compiled']} plans",
        note="paid once per plan-cache entry at prepare() time",
    )
    save_report(report, json_payload={
        "fast_mode": FAST,
        "books": BOOKS,
        "min_speedup": MIN_SPEEDUP,
        "probes": {
            label: {
                "interpreted_seconds": t_interp,
                "compiled_seconds": t_compiled,
                "speedup": speedup,
                "rows": n_rows,
            }
            for label, t_interp, t_compiled, speedup, n_rows
            in probes["rows"]
        },
        "compile": {
            "plans_compiled": compile_stats["plans_compiled"],
            "compile_ms_total": compile_stats["compile_ms_total"],
        },
    })
