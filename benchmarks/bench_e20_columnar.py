"""E20 — columnar batch execution against the compiled row engine.

E17 established the compiled-row baseline: closure-compiled
expressions and fused scan→filter→project pipelines, ~2-4x over the
interpreted evaluator.  This experiment measures the next layout step
(§1, "the generated code should perform and scale well"): the same
optimized plans executed by the columnar batch pipeline
(``repro.rdb.columnar``) — column-major arrays with dictionary-encoded
strings and null bitmaps, vectorized predicate kernels over selection
vectors, most-selective-first conjunction ordering, and late
materialization of only the surviving positions.

Two probes, the shapes where batch execution pays:

* **full-scan filter** — a conjunction over a dict-encoded string
  equality, a float range, and a NULL test, with an arithmetic
  projection and ORDER BY over the computed alias;
* **grouped aggregation** — GROUP BY over the dict-encoded column with
  COUNT/SUM/AVG, partitioned on integer codes.

A third probe (PR 22) is the keyword search every generated search unit
runs — ``title LIKE '%kw%'`` over a plain (high-cardinality) string
column — executed three ways by the same plan: seeded from the column's
trigram postings (what ships), as a sweep through the classified
matcher (``kw in title``; postings switched off), and as a sweep
through the anchored regex (what every LIKE ran before).  All three
must return the interpreter's answer, and the seeded scan must beat the
sweep.

Every probe runs in *four* modes — columnar (the cost model's own
choice at this scale), compiled-row (``mode="compiled"``, exactly the
E17 fast path), interpreted (``mode="interpreted"``), and the seed
interpreter (``mode="seed"``) — and all four answers must be
byte-identical.  At benchmark scale the columnar plan must beat the
compiled-row plan by at least 3x on both probes.

Run fast (CI smoke): ``REPRO_FAST=1 pytest benchmarks/bench_e20_columnar.py``.
"""

from __future__ import annotations

import os
import time

from repro.bench import ExperimentReport, save_report
from repro.rdb import Database

FAST = bool(os.environ.get("REPRO_FAST"))

BOOKS = 2_000 if FAST else 12_000
#: few enough distinct values that ``kind`` dictionary-encodes
KINDS = 12
TIMING_ROUNDS = 5 if FAST else 15
#: at full scale the columnar plan must clear this factor over the
#: compiled-row plan; the fast smoke only checks direction
MIN_SPEEDUP = 3.0

_RESULTS: dict[str, dict] = {}


def _catalogue() -> Database:
    """The E17 bookstore shape plus a low-cardinality string column
    (``kind``) so the dictionary-encoding and code-equality kernels are
    actually on the measured path."""
    db = Database()
    db.execute(
        "CREATE TABLE book (oid INTEGER NOT NULL AUTOINCREMENT,"
        " title VARCHAR(160) NOT NULL, kind VARCHAR(20) NOT NULL,"
        " price FLOAT, year INTEGER, PRIMARY KEY (oid))"
    )
    for i in range(BOOKS):
        db.insert_row("book", {
            "title": f"b{i}",
            "kind": f"kind-{i % KINDS:02d}",
            # moduli coprime to KINDS, so every kind sees NULLs in
            # both columns and the filter probe keeps real survivors
            "price": None if i % 17 == 11 else 10.0 + (i % 890) / 10.0,
            "year": None if i % 5 == 0 else 1990 + i % 30,
        })
    db.analyze()
    db.stats.reset()
    return db


#: (label, sql, params) — one probe per batch-friendly shape
PROBE_QUERIES = [
    ("full-scan filter",
     "SELECT title, price * :rate + price AS px FROM book"
     " WHERE kind = :kind AND price > :lo AND price < :hi"
     " AND year IS NOT NULL ORDER BY px DESC",
     {"kind": "kind-03", "rate": 1.1, "lo": 20.0, "hi": 80.0}),
    ("grouped aggregation",
     "SELECT kind, COUNT(*) AS n, SUM(price) AS total,"
     " AVG(price) AS ap FROM book WHERE year IS NOT NULL"
     " GROUP BY kind ORDER BY total DESC, kind",
     {}),
]


#: the keyword search: one title of BOOKS contains the keyword
CONTAINS_SQL = ("SELECT oid, title FROM book WHERE title LIKE :keyword"
                " ESCAPE '\\' ORDER BY oid")
CONTAINS_PARAMS = {"keyword": "%b1234%"}


def _time_plan(plan, params: dict, rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        plan.execute(params)
        best = min(best, time.perf_counter() - start)
    return best


def test_e20_columnar_matches_and_beats_compiled_rows():
    db = _catalogue()
    rows = []
    mismatches = 0
    for label, sql, params in PROBE_QUERIES:
        # the default plan IS the columnar plan here: the cost model
        # picks the batch pipeline for full scans at this scale
        columnar = db.prepare(sql)
        compiled = db.prepare(sql, mode="compiled")
        interpreted = db.prepare(sql, mode="interpreted")
        seed = db.prepare(sql, mode="seed")
        assert columnar.exec_mode == "columnar", label
        assert "exec=columnar" in columnar.explain()
        assert compiled.exec_mode == "compiled", label

        # four-way byte identity: same columns, same rows, same order
        want = columnar.execute(params)
        for other_plan in (compiled, interpreted, seed):
            got = other_plan.execute(params)
            if (got.columns != want.columns
                    or got.as_tuples() != want.as_tuples()):
                mismatches += 1
        assert mismatches == 0, label

        t_columnar = _time_plan(columnar, params, TIMING_ROUNDS)
        t_compiled = _time_plan(compiled, params, TIMING_ROUNDS)
        t_interpreted = _time_plan(interpreted, params, TIMING_ROUNDS)
        speedup = t_compiled / t_columnar
        if FAST:
            assert t_columnar < t_compiled, \
                f"{label}: {t_columnar:.6f}s !< {t_compiled:.6f}s"
        else:
            assert speedup >= MIN_SPEEDUP, \
                f"{label}: {speedup:.2f}x < {MIN_SPEEDUP}x"
        rows.append((label, t_columnar, t_compiled, t_interpreted,
                     speedup, len(want.as_tuples())))
    _RESULTS["probes"] = {"rows": rows, "mismatches": mismatches}


def test_e20_contains_search_costs_its_matches(monkeypatch):
    from repro.rdb import columnar
    from repro.rdb.expr import _like_to_regex

    db = _catalogue()
    plan = db.prepare(CONTAINS_SQL)
    assert plan.exec_mode == "columnar"
    want = db.prepare(CONTAINS_SQL, mode="interpreted").execute(
        CONTAINS_PARAMS).as_tuples()
    assert len(want) == 1

    def measure():
        rows = plan.execute(CONTAINS_PARAMS).as_tuples()
        return (rows, plan.root.scanned,
                _time_plan(plan, CONTAINS_PARAMS, TIMING_ROUNDS))

    seeded, seeded_scanned, t_seeded = measure()
    # the same plan with the postings switched off: every title goes
    # through the classified matcher ...
    monkeypatch.setattr(columnar.ColumnStore, "candidates",
                        lambda self, name, runs: None)
    swept, swept_scanned, t_sweep = measure()
    # ... and through the anchored regex, compiled once
    regex = _like_to_regex(CONTAINS_PARAMS["keyword"], "\\")
    monkeypatch.setattr(columnar, "like_matcher",
                        lambda pattern, escape: (regex.match, ()))
    matched, _scanned, t_regex = measure()

    mismatches = sum(rows != want for rows in (seeded, swept, matched))
    assert mismatches == 0
    assert seeded_scanned < swept_scanned == BOOKS
    assert t_seeded < t_sweep, f"{t_seeded:.6f}s !< {t_sweep:.6f}s"
    _RESULTS["contains"] = {
        "regex_sweep_seconds": t_regex,
        "substring_sweep_seconds": t_sweep,
        "seeded_seconds": t_seeded,
        "speedup_vs_sweep": t_sweep / t_seeded,
        "speedup_vs_regex": t_regex / t_seeded,
        "rows_scanned_seeded": seeded_scanned,
        "rows_scanned_sweep": swept_scanned,
        "mismatches": mismatches,
    }


def test_e20_layout_choice_is_costed_not_hardwired():
    db = _catalogue()
    label, sql, _ = PROBE_QUERIES[0]
    # the same SQL over a near-empty table stays on the row path —
    # the batch setup cost would dominate a handful of rows
    small = Database()
    small.execute(
        "CREATE TABLE book (oid INTEGER NOT NULL AUTOINCREMENT,"
        " title VARCHAR(160) NOT NULL, kind VARCHAR(20) NOT NULL,"
        " price FLOAT, year INTEGER, PRIMARY KEY (oid))"
    )
    for i in range(20):
        small.insert_row("book", {
            "title": f"b{i}", "kind": f"kind-{i % KINDS:02d}",
            "price": float(i), "year": 2000 + i,
        })
    assert db.prepare(sql).exec_mode == "columnar", label
    assert small.prepare(sql).exec_mode == "compiled", label


def test_e20_counters_split_by_exec_mode():
    db = _catalogue()
    for _, sql, params in PROBE_QUERIES:
        db.query(sql, params)
    stats = db.observability_stats()
    assert stats["selects_columnar"] == len(PROBE_QUERIES)
    assert stats["plans_columnar"] == len(PROBE_QUERIES)
    section = stats["columnar"]
    assert section["tables_built"] == 1
    assert section["scans"] >= len(PROBE_QUERIES)
    assert section["dict_columns"] >= 1
    _RESULTS["counters"] = {
        "batches_scanned": section["batches_scanned"],
        "dict_hit_ratio": section["dict_hit_ratio"],
    }


def test_e20_report():
    probes = _RESULTS.get("probes")
    if not probes:
        import pytest

        pytest.skip("component measurements did not run")
    counters = _RESULTS.get("counters", {})

    report = ExperimentReport(
        "E20", "columnar batch execution vs the compiled row engine",
        "§1 (performance of generated code)",
    )
    for label, t_col, t_comp, t_interp, speedup, n_rows in probes["rows"]:
        report.add(
            label, f"{t_comp * 1e3:.2f} ms compiled rows",
            f"{t_col * 1e3:.2f} ms columnar",
            note=f"{speedup:.1f}x faster; interpreted"
                 f" {t_interp * 1e3:.2f} ms"
                 f" ({BOOKS} books, {n_rows} result rows)",
        )
    contains = _RESULTS.get("contains")
    if contains:
        report.add(
            "contains search (LIKE '%kw%')",
            f"{contains['regex_sweep_seconds'] * 1e3:.2f} ms regex sweep",
            f"{contains['seeded_seconds'] * 1e3:.3f} ms trigram-seeded",
            note=f"substring sweep"
                 f" {contains['substring_sweep_seconds'] * 1e3:.2f} ms;"
                 f" {contains['speedup_vs_sweep']:.1f}x over it, rows"
                 f" scanned {contains['rows_scanned_sweep']} ->"
                 f" {contains['rows_scanned_seeded']},"
                 f" {contains['mismatches']} mismatches",
        )
    report.add(
        "result identity across execution modes",
        "byte-identical in all four",
        f"{probes['mismatches']} mismatches",
        note="columnar vs compiled-row vs interpreted vs seed",
    )
    save_report(report, json_payload={
        "fast_mode": FAST,
        "books": BOOKS,
        "min_speedup": MIN_SPEEDUP,
        "byte_identity": {
            "queries": len(PROBE_QUERIES),
            "mismatches": probes["mismatches"],
        },
        "probes": {
            label: {
                "columnar_seconds": t_col,
                "compiled_seconds": t_comp,
                "interpreted_seconds": t_interp,
                "speedup_vs_compiled": speedup,
                "speedup_vs_interpreted": t_interp / t_col,
                "rows": n_rows,
            }
            for label, t_col, t_comp, t_interp, speedup, n_rows
            in probes["rows"]
        },
        "counters": counters,
        **({"contains": contains} if contains else {}),
    })
