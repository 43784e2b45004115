"""Compare two sets of waterfall results against the declared bounds.

    python3 benchmarks/waterfall/compare.py A.json B.json
    python3 benchmarks/waterfall/compare.py A1.json,A2.json,A3.json B1.json,B2.json,B3.json

``A`` is the base, ``B`` the candidate; each side is one result file
(``run.py --out``) or several, comma-separated, of which the median is
taken.  One row per (end-to-end metric, workload): both values, the
ratio with its base, and a verdict —

- ``regressed``  B is worse than A by more than the metric's bound;
- ``better``     B is better than A by more than the bound;
- ``same``       within the bound;
- ``unresolved`` the difference cannot be trusted: a side's run-to-run
  spread (quartile distance ÷ median, needs ≥ 4 files) exceeds the
  bound, or a latency comes from a phase marked ``invalid_load``.

Per-layer metrics follow as plain deltas, without verdicts.  Exit status
1 when any row regressed.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

from stats import iqr_spread

HERE = os.path.dirname(os.path.abspath(__file__))
LATENCY_METRICS = ("p50_ms",)


def load_side(argument: str) -> list[dict]:
    documents = []
    for path in argument.split(","):
        with open(path) as handle:
            documents.append(json.load(handle))
    return documents


def side_values(documents: list, workload: str, section: str,
                metric: str) -> list:
    return [doc["workloads"][workload][section][metric]
            for doc in documents
            if metric in doc["workloads"].get(workload, {}).get(section, {})]


def verdict(base: float, candidate: float, better: str, bound: float) -> str:
    """How ``candidate`` stands against ``base`` under ``bound``."""
    if base == 0:
        return "same" if candidate == 0 else "unresolved"
    worse_by = (candidate - base) / abs(base)
    if better == "higher":
        worse_by = -worse_by
    if worse_by > bound:
        return "regressed"
    if worse_by < -bound:
        return "better"
    return "same"


def compare(base_docs: list, candidate_docs: list, spec: dict) -> tuple:
    """Returns ``(end_to_end_rows, per_layer_rows)``."""
    workloads = [w["name"] for w in spec["workloads"]
                 if all(w["name"] in doc["workloads"]
                        for doc in base_docs + candidate_docs)]
    rows = []
    for metric in spec["end_to_end"]:
        for workload in workloads:
            a = side_values(base_docs, workload, "end_to_end", metric["name"])
            b = side_values(candidate_docs, workload, "end_to_end",
                            metric["name"])
            if not a or not b:
                continue
            base, candidate = statistics.median(a), statistics.median(b)
            outcome = verdict(base, candidate, metric["better"],
                              metric["bound"])
            noisy = any(
                len(values) >= 4 and iqr_spread(values) > metric["bound"]
                for values in (a, b))
            overloaded = metric["name"] in LATENCY_METRICS and any(
                doc["workloads"][workload].get("invalid_load")
                for doc in base_docs + candidate_docs)
            if noisy or overloaded:
                outcome = "unresolved"
            rows.append((metric, workload, base, candidate, outcome))
    layer_rows = []
    for metric in spec["per_layer"]:
        for workload in workloads:
            a = side_values(base_docs, workload, "per_layer", metric["name"])
            b = side_values(candidate_docs, workload, "per_layer",
                            metric["name"])
            if a and b:
                layer_rows.append((metric, workload, statistics.median(a),
                                   statistics.median(b)))
    return rows, layer_rows


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__)
        return 2
    with open(os.path.join(HERE, "..", "..", "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    base_docs, candidate_docs = load_side(argv[1]), load_side(argv[2])
    modes = {doc["provenance"].get("quick", False)
             for doc in base_docs + candidate_docs}
    if len(modes) > 1:
        print("refusing to compare a --quick run with a full run")
        return 2
    rows, layer_rows = compare(base_docs, candidate_docs, spec)
    print(f"{'metric':<20}{'workload':<13}{'A':>12}{'B':>12}  "
          f"{'B/A':<22}{'bound':>6}  verdict")
    for metric, workload, base, candidate, outcome in rows:
        ratio = (f"{candidate / base:.3f}x of {base:.4g} {metric['unit']}"
                 if base else "n/a (base 0)")
        print(f"{metric['name']:<20}{workload:<13}{base:>12.4f}"
              f"{candidate:>12.4f}  {ratio:<22}{metric['bound']:>6.0%}  "
              f"{outcome}")
    if layer_rows:
        print(f"\n{'per-layer metric':<44}{'workload':<13}{'A':>12}{'B':>12}"
              f"{'delta':>12}")
        for metric, workload, base, candidate in layer_rows:
            if base or candidate:
                print(f"{metric['name']:<44}{workload:<13}{base:>12.4f}"
                      f"{candidate:>12.4f}{candidate - base:>+12.4f}")
    regressed = [r for r in rows if r[4] == "regressed"]
    unresolved = [r for r in rows if r[4] == "unresolved"]
    print(f"\n{len(rows)} rows: {len(regressed)} regressed, "
          f"{len(unresolved)} unresolved")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
