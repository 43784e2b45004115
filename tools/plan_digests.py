#!/usr/bin/env python
"""Plan digests: one sha1 of EXPLAIN text per descriptor statement.

Deploys the ACM, bookstore and Acer applications in five
configurations — ACM at 8 papers, ACM at 640 papers after ANALYZE, the
bookstore, and Acer at 0.1 scale with 20 and with 300 rows per entity —
and EXPLAINs every statement their descriptors hold: unit queries,
scroller block forms (``<query> LIMIT :_block_size OFFSET
:_block_offset``, the statement the scroller service runs) and counts,
hierarchy levels, and operations' UPDATE / DELETE statements.  Nothing
is executed; the digests pin the plan the cost model picks for each.

The committed ``tests/golden/plan_digests.json`` was produced by this
script once index probes reported the conjuncts they prove
(``proves=``) and a unique full-width probe dropped its sort
(``unsorted=one-row``), and regenerated for estimates only when the
cost model started reading a distinct count off each single-column
foreign key (no plan changed shape), so ``--check`` is an identity
test against that past.  A planner change that is *meant* to alter plans regenerates
it and lists the statements whose plan moved (``--text`` at both
commits, then ``diff``).

Usage::

    python tools/plan_digests.py                 # print JSON
    python tools/plan_digests.py --text          # print every plan
    python tools/plan_digests.py --check tests/golden/plan_digests.json

``--check`` exits 1 naming the first statement whose plan differs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.app import WebApplication  # noqa: E402
from repro.workloads.acer import (  # noqa: E402
    AcerScale,
    build_acer_model,
    seed_acer_data,
)
from repro.workloads.acm import build_acm_model, seed_acm_data  # noqa: E402
from repro.workloads.bookstore import (  # noqa: E402
    build_bookstore_model,
    seed_bookstore,
)


def _acer_model():
    return build_acer_model(AcerScale().scaled(0.1))


def _analyzed(seed):
    def seed_and_analyze(app):
        seed(app)
        app.database.analyze()
    return seed_and_analyze


#: name → (model builder, seeding); a configuration's plans depend on
#: its row counts and statistics, so each is deployed afresh
CONFIGURATIONS = {
    "acm-8": (build_acm_model, seed_acm_data),
    "acm-640-analyzed": (build_acm_model, _analyzed(
        lambda app: seed_acm_data(app, 20, 4, 8))),
    "bookstore": (build_bookstore_model, seed_bookstore),
    "acer-20": (_acer_model, lambda app: seed_acer_data(app, 20)),
    "acer-300": (_acer_model, lambda app: seed_acer_data(app, 300)),
}

_DML = ("UPDATE", "DELETE")


def descriptor_statements(app) -> list[str]:
    """Every statement the deployed descriptors hold that EXPLAIN
    plans, in deployment order, each once."""
    found: dict[str, None] = {}
    for deployed in app.registry.units.values():
        unit = deployed.parsed
        if unit.query:
            found[unit.query] = None
            if unit.kind == "scroller":
                found[f"{unit.query} LIMIT :_block_size"
                      " OFFSET :_block_offset"] = None
        if unit.count_query:
            found[unit.count_query] = None
        for level in unit.levels:
            found[level.query] = None
    for deployed in app.registry.operations.values():
        for statement in deployed.parsed.statements:
            if statement.sql.lstrip().upper().startswith(_DML):
                found[statement.sql] = None
    return list(found)


def plans() -> dict:
    """``{configuration: {sql: EXPLAIN text}}``."""
    explained: dict = {}
    for name, (build_model, seed) in CONFIGURATIONS.items():
        app = WebApplication(build_model())
        seed(app)
        explained[name] = {
            sql: app.database.explain(sql)
            for sql in descriptor_statements(app)
        }
    return explained


def plan_digests(explained: dict | None = None) -> dict:
    """``{configuration: {sql: sha1 of its EXPLAIN text}}``."""
    explained = plans() if explained is None else explained
    return {
        name: {sql: hashlib.sha1(text.encode()).hexdigest()
               for sql, text in statements.items()}
        for name, statements in explained.items()
    }


def first_difference(golden: dict, current: dict) -> str | None:
    for name in sorted(set(golden) | set(current)):
        was, now = golden.get(name, {}), current.get(name, {})
        for sql in sorted(set(was) | set(now)):
            if was.get(sql) != now.get(sql):
                return (f"{name} {sql!r}: golden {was.get(sql)}, "
                        f"now {now.get(sql)}")
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", metavar="GOLDEN",
                        help="compare against a committed digest file")
    parser.add_argument("--text", action="store_true",
                        help="print every statement with its plan")
    args = parser.parse_args(argv)
    explained = plans()
    if args.text:
        for name, statements in explained.items():
            for sql, text in statements.items():
                print(f"-- {name}: {sql}\n{text}\n")
        return 0
    digests = plan_digests(explained)
    if args.check is None:
        json.dump(digests, sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
        return 0
    golden = json.loads(Path(args.check).read_text(encoding="utf-8"))
    difference = first_difference(golden, digests)
    if difference is not None:
        print(f"plan digests differ: {difference}", file=sys.stderr)
        return 1
    count = sum(len(statements) for statements in digests.values())
    print(f"plan digests: {count} plans identical to {args.check}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
