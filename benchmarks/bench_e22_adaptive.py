"""E22 — adaptive query execution under cardinality drift.

The cost model (E14) plans from ANALYZE-time statistics; E22 measures
what happens when the data walks away from those statistics.  A sales
table starts uniform — every region holds the same handful of rows, so
``region = :r`` is planned as a cheap index lookup — and then a burst
of skewed inserts makes one region hold most of the table.  The frozen
plan keeps index-walking most of the table a row at a time; the
adaptive loop (``repro.rdb.adaptive``) must notice the estimate/actual
gap from execution feedback, drop the cached plan, re-ANALYZE the
drifted table, and re-plan — landing on the columnar scan the new
shape actually wants.

Measured gates:

* **drift response** — the replan fires within the q-error window
  (a handful of executions), not eventually;
* **convergence** — the loop replans once and then goes quiet: the
  corrected estimate matches reality, so hysteresis holds (bounded
  replan count over a long tail of executions);
* **speedup** — the post-replan plan beats the frozen pre-drift plan
  on the skewed workload by ``MIN_SPEEDUP`` at full scale;
* **identity** — adaptive, frozen, and seed plans return byte-identical
  results on hot and cold parameters alike: adaptivity changes plans,
  never answers;
* **scanner** — the plan-space scanner (``repro.bench.plan_scanner``)
  reproduces at least one cost-model misprediction on this workload;
* **ordered walk** — paged ``ORDER BY`` over an indexed key, at a small
  and a deep offset, bare and behind a selective residual filter: the
  scanner prices the index-ordered walk against scan + top-N from both
  sides (the walk forced where the planner turned it down) and must
  report no ``inversion`` — the planner has to know that a deep offset
  behind a selective filter is where the walk loses.

Run fast (CI smoke): ``REPRO_FAST=1 pytest benchmarks/bench_e22_adaptive.py``.
"""

from __future__ import annotations

import os
import time

from repro.bench import ExperimentReport, save_report
from repro.bench.plan_scanner import scan_plan_space
from repro.rdb import Database

FAST = bool(os.environ.get("REPRO_FAST"))

#: uniform base load: REGIONS regions x (BASE_ROWS / REGIONS) rows each
BASE_ROWS = 800 if FAST else 4_000
REGIONS = 60 if FAST else 400
#: the skew burst: one previously-unseen region swallows the table
HOT_ROWS = 2_400 if FAST else 18_000
HOT = "r-hot"
#: executions after the burst (drift must fire inside this window)
DRIFT_EXECUTIONS = 12
#: long tail to prove hysteresis holds after convergence
TAIL_EXECUTIONS = 30
TIMING_ROUNDS = 5 if FAST else 15
#: frozen-plan / adaptive-plan wall ratio at full scale
MIN_SPEEDUP = 2.0
SCANNER_ROUNDS = 2 if FAST else 3

QUERY = (
    "SELECT region, COUNT(*) AS n, SUM(amount) AS total"
    " FROM sale WHERE region = :r GROUP BY region"
)

_RESULTS: dict[str, dict] = {}


def _sales(rows: int = BASE_ROWS, regions: int = REGIONS) -> Database:
    """A uniform sales table, analyzed, with an index the optimizer
    initially loves for ``region = :r``."""
    db = Database("e22")
    db.execute(
        "CREATE TABLE sale (oid INTEGER NOT NULL AUTOINCREMENT,"
        " region VARCHAR(20) NOT NULL, day INTEGER NOT NULL,"
        " amount FLOAT NOT NULL, PRIMARY KEY (oid))"
    )
    db.execute("CREATE INDEX ix_sale_region ON sale (region)")
    for i in range(rows):
        db.insert_row("sale", {
            "region": f"r-{i % regions:03d}",
            "day": i % 365,
            "amount": float(i % 90) + 0.5,
        })
    db.analyze()
    return db


def _skew(db: Database) -> None:
    """The burst: HOT_ROWS rows land in one region the statistics have
    never seen."""
    for i in range(HOT_ROWS):
        db.insert_row("sale", {
            "region": HOT,
            "day": i % 365,
            "amount": float(i % 90) + 0.5,
        })


def _time_plan(plan, params, rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        plan.execute(params)
        best = min(best, time.perf_counter() - start)
    return best


def test_e22_drift_triggers_one_replan_then_holds():
    db = _sales()
    # prime the cached plan on the uniform shape: index lookup
    for i in range(3):
        db.query(QUERY, {"r": f"r-{i:03d}"})
    frozen = db.prepare(QUERY)
    seed = db.prepare(QUERY, mode="seed")
    assert "IndexLookup" in frozen.explain()

    _skew(db)

    # the drift window: the adaptive loop sees est vs actual diverge
    for _ in range(DRIFT_EXECUTIONS):
        db.query(QUERY, {"r": HOT})
    counters = db.adaptive.counters
    replans_after_drift = counters["replans"]
    assert replans_after_drift >= 1, \
        f"no replan within {DRIFT_EXECUTIONS} executions"

    # convergence tail: corrected estimates mean no further drift
    for _ in range(TAIL_EXECUTIONS):
        db.query(QUERY, {"r": HOT})
    replans_total = db.adaptive.counters["replans"]
    converged = replans_total == replans_after_drift
    assert converged, \
        f"replans kept firing: {replans_after_drift} -> {replans_total}"
    assert 1 <= replans_total <= 3, replans_total

    adaptive_plan = db.prepare(QUERY)
    assert adaptive_plan is not frozen
    assert "SeqScan" in adaptive_plan.explain(), adaptive_plan.explain()
    assert db.adaptive.counters["reanalyzes"] >= 1

    # speedup: the frozen index walk vs the replanned scan, hot param
    t_frozen = _time_plan(frozen, {"r": HOT}, TIMING_ROUNDS)
    t_adaptive = _time_plan(adaptive_plan, {"r": HOT}, TIMING_ROUNDS)
    speedup = t_frozen / t_adaptive
    if FAST:
        assert speedup >= 1.2, f"{speedup:.2f}x < 1.2x"
    else:
        assert speedup >= MIN_SPEEDUP, \
            f"{speedup:.2f}x < {MIN_SPEEDUP}x"

    # identity: hot, warm-cold, and absent params across all three plans
    probe_params = [{"r": HOT}, {"r": "r-001"}, {"r": "r-absent"}]
    mismatches = 0
    for params in probe_params:
        want = adaptive_plan.execute(params)
        for other in (frozen, seed):
            got = other.execute(params)
            if (got.columns != want.columns
                    or got.as_tuples() != want.as_tuples()):
                mismatches += 1
    assert mismatches == 0

    _RESULTS["adaptive"] = {
        "replans": replans_total,
        "converged": converged,
        "drift_detections": counters["drift_detections"],
        "reanalyzes": counters["reanalyzes"],
        "growth_reanalyzes": counters["growth_reanalyzes"],
        "frozen_seconds": t_frozen,
        "adaptive_seconds": t_adaptive,
        "speedup": speedup,
    }
    _RESULTS["identity"] = {
        "probes": len(probe_params) * 2,
        "mismatches": mismatches,
    }
    _RESULTS["db"] = {"handle": db}


def test_e22_scanner_reproduces_a_misprediction():
    db_entry = _RESULTS.get("db")
    db = db_entry["handle"] if db_entry else _sales()
    workload = [
        {"name": "hot-region", "sql": QUERY, "params": {"r": HOT}},
        {"name": "day-range",
         "sql": ("SELECT day, COUNT(*) AS n FROM sale"
                 " WHERE day < :d GROUP BY day"),
         "params": {"d": 120}},
    ]
    report = scan_plan_space(db, workload, rounds=SCANNER_ROUNDS)
    assert report["mismatches"] == 0
    assert report["finding_count"] >= 1, report
    _RESULTS["scanner"] = {
        "findings": report["finding_count"],
        "mismatches": report["mismatches"],
        "kinds": sorted({f["kind"] for f in report["findings"]}),
    }


#: paged ORDER BY day (indexed below): offsets shallow and deep, bare
#: and behind a filter one region in 400 passes.  Full size in fast mode
#: too: on a few hundred rows an index probe and a columnar scan cost
#: the same few microseconds and the stopwatch orders them at random
_PAGED = "SELECT oid, day, amount FROM sale{where} ORDER BY day LIMIT 10 OFFSET {k}"
_DEEP = 3_000


def test_e22_scanner_prices_the_ordered_walk():
    db = _sales(rows=4_000, regions=400)
    db.execute("CREATE INDEX ix_sale_day ON sale (day)")
    db.analyze()
    selective = " WHERE region = 'r-007'"
    workload = [
        {"name": f"paged-{label}-{depth}",
         "sql": _PAGED.format(where=where, k=k), "params": {}}
        for label, where in (("bare", ""), ("filtered", selective))
        for depth, k in (("shallow", 0), ("deep", _DEEP))
    ]
    # sub-millisecond statements: many rounds, or timer noise inverts
    report = scan_plan_space(db, workload, rounds=40)
    assert report["mismatches"] == 0
    inversions = [f for f in report["findings"] if f["kind"] == "inversion"]
    assert inversions == [], inversions
    rows = {}
    for scanned in report["queries"]:
        by_variant = {v["variant"]: v for v in scanned["variants"]}
        walk = by_variant["ordered-walk"]
        rows[scanned["query"]] = {
            "default_access": by_variant["default"]["access"],
            "walk_cost_ratio": walk["cost_ratio"],
            "walk_wall_ratio": walk["wall_ratio"],
            "top_n_cost_ratio": by_variant["no-access-paths"]["cost_ratio"],
            "top_n_wall_ratio": by_variant["no-access-paths"]["wall_ratio"],
        }
    # unfiltered, the walk is the plan at any depth; behind the filter
    # the planner probes the region index and keeps a top-N instead
    assert rows["paged-bare-shallow"]["default_access"] == "ordered:sale(day)"
    assert rows["paged-bare-deep"]["default_access"] == "ordered:sale(day)"
    assert rows["paged-filtered-deep"]["default_access"] \
        == "eq:sale(region)"
    assert rows["paged-filtered-deep"]["walk_wall_ratio"] > 1.0
    _RESULTS["ordered_walk"] = rows


def test_e22_report():
    adaptive = _RESULTS.get("adaptive")
    if not adaptive:
        import pytest

        pytest.skip("component measurements did not run")
    identity = _RESULTS["identity"]
    scanner = _RESULTS.get("scanner", {"findings": 0, "mismatches": 0,
                                       "kinds": []})

    report = ExperimentReport(
        "E22", "adaptive query execution under cardinality drift",
        "§6 (tuning loop, made runtime-automatic)",
    )
    report.add(
        "replan latency", "within the q-error window",
        f"{adaptive['replans']} replan(s), "
        f"{adaptive['drift_detections']} drift detection(s)",
        note=f"{DRIFT_EXECUTIONS} post-skew executions; "
             f"{adaptive['reanalyzes']} re-ANALYZE(s)",
    )
    report.add(
        "convergence", "replans stop after correction",
        "converged" if adaptive["converged"] else "DID NOT CONVERGE",
        note=f"{TAIL_EXECUTIONS} further executions",
    )
    report.add(
        "skewed-workload latency",
        f"{adaptive['frozen_seconds'] * 1e3:.2f} ms frozen plan",
        f"{adaptive['adaptive_seconds'] * 1e3:.2f} ms adaptive plan",
        note=f"{adaptive['speedup']:.1f}x"
             f" ({BASE_ROWS + HOT_ROWS} rows, {HOT_ROWS} hot)",
    )
    report.add(
        "result identity", "byte-identical across plans",
        f"{identity['mismatches']} mismatches",
        note="adaptive vs frozen vs seed, hot/cold/absent params",
    )
    report.add(
        "plan-space scanner", ">= 1 reproducible misprediction",
        f"{scanner['findings']} finding(s)",
        note=", ".join(scanner["kinds"]) or "-",
    )
    for name, row in _RESULTS.get("ordered_walk", {}).items():
        report.add(
            f"{name}: ordered walk vs plan", "no inversion",
            f"cost x{row['walk_cost_ratio']:.2f}"
            f" wall x{row['walk_wall_ratio']:.2f}",
            note=f"plan {row['default_access']}; scan + top-N cost"
                 f" x{row['top_n_cost_ratio']:.2f}"
                 f" wall x{row['top_n_wall_ratio']:.2f}",
        )
    save_report(report, json_payload={
        "fast_mode": FAST,
        "base_rows": BASE_ROWS,
        "hot_rows": HOT_ROWS,
        "min_speedup": MIN_SPEEDUP,
        "adaptive": {
            key: value for key, value in adaptive.items()
        },
        "identity": identity,
        "scanner": scanner,
        "ordered_walk": _RESULTS.get("ordered_walk", {}),
    })
