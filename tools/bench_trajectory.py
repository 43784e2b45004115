#!/usr/bin/env python
"""Benchmark-trajectory aggregator and regression gate.

Reads every ``benchmarks/reports/BENCH_*.json`` artifact committed by
the experiment suite and prints a one-line-per-experiment trajectory
summary — the cross-PR view of how the reproduction's headline numbers
evolve.  With ``--check`` it applies a *lenient* numeric gate per
experiment (direction-of-effect, not exact magnitudes, so fast-mode CI
artifacts pass while real regressions — a speedup dropping below 1x, a
correctness counter going non-zero — fail loudly) and exits 1 with one
line per violated gate.

Usage::

    python tools/bench_trajectory.py [--reports DIR] [--check]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_REPORTS = Path(__file__).resolve().parent.parent / "benchmarks" / "reports"


def _get(payload: dict, path: str):
    """Fetch ``a/b/c`` from nested dicts; None when any step is missing."""
    node = payload
    for part in path.split("/"):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def _each(payload: dict, section: str, key: str):
    """(label, value) for ``section/<label>/key`` across all labels."""
    block = payload.get(section)
    if not isinstance(block, dict):
        return []
    out = []
    for label, entry in sorted(block.items()):
        if isinstance(entry, dict) and key in entry:
            out.append((label, entry[key]))
    return out


class Gate:
    """Collects violations for one experiment's payload."""

    def __init__(self, name: str, payload: dict):
        self.name = name
        self.payload = payload
        self.violations: list[str] = []

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.violations.append(f"{self.name}: {message}")

    def ge(self, path: str, floor: float) -> None:
        value = _get(self.payload, path)
        self.require(
            value is not None and value >= floor,
            f"{path} = {value!r}, expected >= {floor}",
        )

    def le(self, path: str, ceiling: float) -> None:
        value = _get(self.payload, path)
        self.require(
            value is not None and value <= ceiling,
            f"{path} = {value!r}, expected <= {ceiling}",
        )

    def eq(self, path: str, expected) -> None:
        value = _get(self.payload, path)
        self.require(
            value == expected, f"{path} = {value!r}, expected {expected!r}"
        )

    def truthy(self, path: str) -> None:
        value = _get(self.payload, path)
        self.require(bool(value), f"{path} = {value!r}, expected true")

    def each_gt(self, section: str, key: str, floor: float) -> None:
        entries = _each(self.payload, section, key)
        self.require(bool(entries), f"{section}/*/{key} missing")
        for label, value in entries:
            self.require(
                value > floor,
                f"{section}/{label}/{key} = {value!r}, expected > {floor}",
            )

    def each_eq(self, section: str, key: str, expected) -> None:
        entries = _each(self.payload, section, key)
        self.require(bool(entries), f"{section}/*/{key} missing")
        for label, value in entries:
            self.require(
                value == expected,
                f"{section}/{label}/{key} = {value!r}, "
                f"expected {expected!r}",
            )


def _gate_e13(g: Gate) -> None:
    floor = _get(g.payload, "scaling_floor") or 1.5
    g.ge("acm_speedup", floor)
    g.ge("bookstore_speedup", floor)


def _gate_e13b(g: Gate) -> None:
    g.eq("consistency_violations", 0)
    g.eq("pool_waits/exhausted_failures", 0)


def _gate_e14(g: Gate) -> None:
    g.each_gt("plans", "speedup", 1.0)
    g.ge("batching/speedup", 1.0)


def _gate_e15(g: Gate) -> None:
    g.each_eq("phases", "staleness_violations", 0)


def _gate_e16(g: Gate) -> None:
    bound = _get(g.payload, "overhead/bound_fraction")
    g.require(bound is not None, "overhead/bound_fraction missing")
    if bound is not None:
        g.le("overhead/overhead_fraction", bound)


def _gate_e17(g: Gate) -> None:
    g.each_gt("probes", "speedup", 1.0)


def _gate_e18(g: Gate) -> None:
    g.eq("oracle/lost_committed_transactions", 0)


def _gate_e19(g: Gate) -> None:
    g.eq("byte_identity/mismatches", 0)
    g.ge("sustained_connections/ratio", 5.0)


def _gate_e20(g: Gate) -> None:
    g.eq("byte_identity/mismatches", 0)
    g.each_gt("probes", "speedup_vs_compiled", 1.0)
    g.eq("contains/mismatches", 0)
    g.ge("contains/speedup_vs_sweep", 1.0)


def _gate_e21(g: Gate) -> None:
    g.eq("identity/mismatches", 0)
    g.eq("staleness/waited_stale", 0)
    floor = _get(g.payload, "scaling_floor") or 2.0
    g.ge("scaling/ratio", floor)
    g.truthy("failover/converged")
    g.truthy("failover/identical")


GATES = {
    "E13": _gate_e13,
    "E13b": _gate_e13b,
    "E14": _gate_e14,
    "E15": _gate_e15,
    "E16": _gate_e16,
    "E17": _gate_e17,
    "E18": _gate_e18,
    "E19": _gate_e19,
    "E20": _gate_e20,
    "E21": _gate_e21,
}

#: one headline ``label=path`` per experiment for the trajectory line
HEADLINES = {
    "E13": [("acm", "acm_speedup"), ("bookstore", "bookstore_speedup")],
    "E13b": [("violations", "consistency_violations")],
    "E14": [("batching", "batching/speedup")],
    "E15": [],
    "E16": [("overhead", "overhead/overhead_fraction")],
    "E17": [("plans_compiled", "compile/plans_compiled")],
    "E18": [("lost_tx", "oracle/lost_committed_transactions")],
    "E19": [("mismatches", "byte_identity/mismatches"),
            ("conn_ratio", "sustained_connections/ratio")],
    "E20": [("mismatches", "byte_identity/mismatches")],
    "E21": [("scaling", "scaling/ratio"),
            ("waited_stale", "staleness/waited_stale")],
}


def _experiment_key(name: str):
    digits = "".join(ch for ch in name if ch.isdigit())
    return (int(digits or 0), name)


def load_reports(reports_dir: Path) -> list[tuple[str, dict]]:
    """(experiment, payload) for every BENCH_*.json, in E-number order."""
    loaded = []
    for path in reports_dir.glob("BENCH_*.json"):
        name = path.stem.removeprefix("BENCH_")
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            loaded.append((name, {"_error": str(exc)}))
            continue
        loaded.append((name, payload))
    loaded.sort(key=lambda pair: _experiment_key(pair[0]))
    return loaded


def summarize(name: str, payload: dict) -> str:
    """One trajectory line for an experiment."""
    if "_error" in payload:
        return f"{name:<5} UNREADABLE: {payload['_error']}"
    title = payload.get("title", "")
    bits = []
    for label, path in HEADLINES.get(name, []):
        value = _get(payload, path)
        if value is not None:
            bits.append(f"{label}={value}")
    if name == "E15":
        phases = _each(payload, "phases", "staleness_violations")
        if phases:
            bits.append(
                f"staleness_violations={sum(v for _, v in phases)}"
                f"/{len(phases)} phases"
            )
    if name == "E8":
        rows = payload.get("rows", [])
        measured = sum(1 for r in rows if r.get("measured") == "yes")
        bits.append(f"measured={measured}/{len(rows)}")
    if payload.get("fast_mode"):
        bits.append("fast_mode")
    detail = "  ".join(bits) if bits else "(rows-style payload, no gates)"
    return f"{name:<5} {detail}  — {title}"


def check(loaded: list[tuple[str, dict]]) -> list[str]:
    """All gate violations across the loaded reports."""
    violations = []
    for name, payload in loaded:
        if "_error" in payload:
            violations.append(f"{name}: unreadable ({payload['_error']})")
            continue
        gate_fn = GATES.get(name)
        if gate_fn is None:
            continue
        gate = Gate(name, payload)
        gate_fn(gate)
        violations.extend(gate.violations)
    return violations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reports", type=Path, default=DEFAULT_REPORTS,
                        help="directory holding BENCH_*.json artifacts")
    parser.add_argument("--check", action="store_true",
                        help="apply per-experiment regression gates")
    args = parser.parse_args(argv)

    loaded = load_reports(args.reports)
    if not loaded:
        print(f"no BENCH_*.json reports under {args.reports}",
              file=sys.stderr)
        return 1

    print(f"benchmark trajectory ({len(loaded)} experiments)")
    for name, payload in loaded:
        print("  " + summarize(name, payload))

    if not args.check:
        return 0
    violations = check(loaded)
    if violations:
        print(f"\n{len(violations)} gate violation(s):")
        for line in violations:
            print(f"  FAIL {line}")
        return 1
    gated = sum(1 for name, _ in loaded if name in GATES)
    print(f"\nall gates passed ({gated} gated experiments)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
