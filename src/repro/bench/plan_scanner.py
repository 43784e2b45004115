"""Plan-space scanner: measure where the cost model lies.

For each workload query, the scanner prepares the statement repeatedly
with individual planner decisions switched off (join reordering, access
paths, predicate pushdown via :class:`~repro.rdb.planner.PlannerFeatures`)
and with each execution mode pinned (seed, interpreted, compiled rows,
columnar).  Every variant is executed for wall time and compared to the
default plan on two axes:

- **cost ratio** — variant ``est_cost`` (operator tree plus sort or
  top-N tail) over the default plan's: what the cost model *predicts*
  the variant is worth;
- **wall ratio** — measured execution time over the default plan's:
  what the variant is *actually* worth.

Where the two disagree, the scanner emits a machine-readable *finding*:

- ``mode-blind`` — the model prices the variants identically (cost
  ratio ~1) but wall time diverges materially.  Execution-mode choices
  (compiled vs interpreted rows) are invisible to a row-count cost
  model by construction, so this finding is expected wherever mode
  dominates — it quantifies how much the model cannot see.
- ``inversion`` — the model predicts one ordering and the stopwatch
  measures the opposite (predicted worse but ran faster, or predicted
  better but ran slower).  These are the direct targets for future
  cost-model fixes.

An ORDER BY an index could serve adds the ``ordered-walk`` variant: the
index-ordered scan *forced*, priced at what the planner priced it when
it chose (or turned it down) — so a deep offset behind a selective
filter, where the walk loses to scan + top-N, tests the model from the
losing side too.

Results never vary across variants (every variant re-checks its
predicates); the scanner asserts that identity on every run and counts
violations in the report, so a correctness bug cannot masquerade as a
perf finding.
"""

from __future__ import annotations

import time

from repro.rdb.planner import MODES, PlannerFeatures, SelectPlan
from repro.rdb.sqlparser import parse_select

#: |cost_ratio - 1| below this counts as "the model sees no difference"
COST_PARITY_BAND = 0.05
#: wall ratio beyond these bounds counts as a material divergence
WALL_SLOWER = 1.25
WALL_FASTER = 0.8
#: cost ratio beyond these bounds counts as a predicted difference
COST_WORSE = 1.2
COST_BETTER = 0.8


class _EverythingPasses:
    """A feedback memory claiming every predicate passes every row.
    Planned against it, a filtered index-ordered walk looks as cheap as
    an unfiltered one and is taken wherever an index serves the ORDER
    BY — how the scanner forces the walk without a planner switch."""

    def selectivity(self, table, key):
        return 1.0

    def join_distinct(self, table, columns):
        return None


def _variant_plans(db, sql: str):
    """(label, plan, estimated cost) for every probed planner/executor
    variant.  The ``default`` variant is the plan the database actually
    runs (the cached one, corrections and all); the others are uncached
    probes, the pinned execution modes labelled by their ``mode``
    name."""
    default = db.prepare(sql)
    plans = [
        ("default", default),
        *((mode, db.prepare(sql, mode=mode))
          for mode in reversed(MODES) if mode is not None),
        ("no-join-reorder",
         db.prepare(sql, features=PlannerFeatures(join_reorder=False))),
        ("no-access-paths",
         db.prepare(sql, features=PlannerFeatures(access_paths=False))),
        ("no-pushdown",
         db.prepare(sql, features=PlannerFeatures(pushdown=False))),
    ]
    variants = [(label, plan, plan.est_cost) for label, plan in plans]
    if default.walk_cost is not None:
        forced = SelectPlan(parse_select(sql), db.tables,
                            feedback=_EverythingPasses())
        if forced.ordered:
            variants.append(("ordered-walk", forced, default.walk_cost))
    return variants


def _time_plan(plan, params_list, rounds: int) -> float:
    """Mean seconds per execution across ``rounds`` passes over the
    parameter sets (one warmup pass first)."""
    for params in params_list:
        plan.execute(params)
    started = time.perf_counter()
    for _ in range(rounds):
        for params in params_list:
            plan.execute(params)
    return (time.perf_counter() - started) / (rounds * len(params_list))


def _result_signature(plan, params_list) -> tuple:
    """An order-insensitive fingerprint of the variant's results (the
    workload may omit ORDER BY; row order is then not part of the
    contract between variants)."""
    signature = []
    for params in params_list:
        tuples = plan.execute(params).as_tuples()
        signature.append(tuple(sorted(repr(t) for t in tuples)))
    return tuple(signature)


def scan_query(db, name: str, sql: str, params_list, rounds: int = 3) -> dict:
    """Scan one query's plan space; returns the per-variant table plus
    any findings."""
    variants = _variant_plans(db, sql)
    _, default_plan, baseline_cost = variants[0]
    baseline_sig = _result_signature(default_plan, params_list)
    baseline_wall = _time_plan(default_plan, params_list, rounds)

    rows = []
    findings = []
    mismatches = 0
    for label, plan, cost in variants:
        if label == "default":
            rows.append({
                "variant": label, "exec_mode": plan.exec_mode,
                "access": plan.access_summary(),
                "cost_ratio": 1.0, "wall_ratio": 1.0,
                "wall_ms": round(baseline_wall * 1000.0, 4),
                "identical": True,
            })
            continue
        identical = _result_signature(plan, params_list) == baseline_sig
        if not identical:
            mismatches += 1
        wall = _time_plan(plan, params_list, rounds)
        wall_ratio = wall / baseline_wall if baseline_wall > 0 else 1.0
        cost_ratio = (
            cost / baseline_cost
            if cost is not None and baseline_cost else None
        )
        rows.append({
            "variant": label, "exec_mode": plan.exec_mode,
            "access": plan.access_summary(),
            "cost_ratio": (
                round(cost_ratio, 3) if cost_ratio is not None else None
            ),
            "wall_ratio": round(wall_ratio, 3),
            "wall_ms": round(wall * 1000.0, 4),
            "identical": identical,
        })
        finding = _classify(name, label, cost_ratio, wall_ratio)
        if finding is not None:
            findings.append(finding)
    return {
        "query": name, "sql": sql,
        "baseline_ms": round(baseline_wall * 1000.0, 4),
        "baseline_cost": baseline_cost,
        "variants": rows,
        "findings": findings,
        "mismatches": mismatches,
    }


def _classify(query: str, variant: str, cost_ratio, wall_ratio) -> dict | None:
    """One finding when prediction and measurement disagree, else None."""
    if cost_ratio is None:
        return None  # seed plans carry no estimates — nothing to test
    base = {
        "query": query, "variant": variant,
        "cost_ratio": round(cost_ratio, 3),
        "wall_ratio": round(wall_ratio, 3),
    }
    if abs(cost_ratio - 1.0) <= COST_PARITY_BAND:
        if wall_ratio >= WALL_SLOWER or wall_ratio <= WALL_FASTER:
            return {
                **base, "kind": "mode-blind",
                "detail": (
                    "cost model prices both plans the same; wall time "
                    f"diverges {wall_ratio:.2f}x"
                ),
            }
        return None
    if cost_ratio >= COST_WORSE and wall_ratio <= WALL_FASTER:
        return {
            **base, "kind": "inversion",
            "detail": (
                f"predicted {cost_ratio:.2f}x worse but ran "
                f"{1 / wall_ratio:.2f}x faster"
            ),
        }
    if cost_ratio <= COST_BETTER and wall_ratio >= WALL_SLOWER:
        return {
            **base, "kind": "inversion",
            "detail": (
                f"predicted {1 / cost_ratio:.2f}x better but ran "
                f"{wall_ratio:.2f}x slower"
            ),
        }
    return None


def scan_plan_space(db, workload, rounds: int = 3) -> dict:
    """Scan every workload entry; ``workload`` is a list of
    ``{"name", "sql", "params"}`` dicts (``params`` a dict or a list of
    dicts).  Returns the machine-readable report consumed by
    ``tools/plan_scanner.py`` and the E22 benchmark."""
    queries = []
    findings = []
    mismatches = 0
    for entry in workload:
        params = entry.get("params") or {}
        params_list = params if isinstance(params, list) else [params]
        scanned = scan_query(
            db, entry["name"], entry["sql"], params_list, rounds=rounds
        )
        queries.append(scanned)
        findings.extend(scanned["findings"])
        mismatches += scanned["mismatches"]
    return {
        "queries": queries,
        "findings": findings,
        "finding_count": len(findings),
        "mismatches": mismatches,
    }


def render_report(report: dict) -> str:
    """A human-readable rendition of :func:`scan_plan_space` output."""
    lines = []
    for scanned in report["queries"]:
        lines.append(f"query: {scanned['query']}")
        lines.append(f"  sql: {scanned['sql']}")
        lines.append(
            f"  baseline: {scanned['baseline_ms']:.3f} ms"
            f"  cost~{scanned['baseline_cost']:.1f}"
        )
        header = (
            f"  {'variant':<16} {'exec':<12} {'cost×':>7} {'wall×':>7}"
            f" {'ms':>9}  access"
        )
        lines.append(header)
        for row in scanned["variants"]:
            cost = (
                f"{row['cost_ratio']:.2f}" if row["cost_ratio"] is not None
                else "-"
            )
            flag = "" if row["identical"] else "  MISMATCH"
            lines.append(
                f"  {row['variant']:<16} {row['exec_mode']:<12} {cost:>7}"
                f" {row['wall_ratio']:>7.2f} {row['wall_ms']:>9.3f}"
                f"  {row['access']}{flag}"
            )
        lines.append("")
    lines.append(f"findings: {report['finding_count']}"
                 f"  result mismatches: {report['mismatches']}")
    for finding in report["findings"]:
        lines.append(
            f"  [{finding['kind']}] {finding['query']}/{finding['variant']}:"
            f" {finding['detail']}"
        )
    return "\n".join(lines)
