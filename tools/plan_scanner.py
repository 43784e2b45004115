#!/usr/bin/env python
"""Plan-space scanner CLI.

Builds a demonstration catalogue (or, with ``--rows``, a larger one),
runs :func:`repro.bench.plan_scanner.scan_plan_space` over a small mixed
workload, prints the human-readable table, and (with ``--out``) writes
the machine-readable findings report as JSON — the empirical substrate
for cost-model fixes (see DESIGN.md §8, "The plan-space scanner").

Usage::

    PYTHONPATH=src python tools/plan_scanner.py [--rows N] [--rounds N]
        [--out findings.json]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench.plan_scanner import render_report, scan_plan_space  # noqa: E402
from repro.rdb import Database  # noqa: E402


def build_demo_database(rows: int) -> Database:
    """A two-table author/book catalogue with indexes and statistics —
    enough surface for every scanner variant to produce a distinct plan."""
    db = Database("plan-scanner-demo")
    db.execute(
        "CREATE TABLE author (oid INTEGER NOT NULL AUTOINCREMENT,"
        " name VARCHAR(40) NOT NULL, country VARCHAR(20),"
        " PRIMARY KEY (oid))"
    )
    db.execute(
        "CREATE TABLE book (oid INTEGER NOT NULL AUTOINCREMENT,"
        " author_oid INTEGER NOT NULL, year INTEGER, price FLOAT,"
        " title VARCHAR(80), PRIMARY KEY (oid))"
    )
    db.execute("CREATE INDEX ix_book_author ON book (author_oid)")
    db.execute("CREATE INDEX ix_book_year ON book (year)")
    authors = max(10, rows // 40)
    for i in range(authors):
        db.insert_row("author", {
            "name": f"author-{i}", "country": f"c{i % 7}",
        })
    for i in range(rows):
        db.insert_row("book", {
            "author_oid": (i % authors) + 1,
            "year": 1990 + (i % 30),
            "price": float(i % 50) + 0.99,
            "title": f"book-{i}",
        })
    db.analyze()
    return db


WORKLOAD = [
    {
        "name": "point-lookup",
        "sql": ("SELECT title, price FROM book WHERE year = :y"
                " ORDER BY title"),
        "params": {"y": 2001},
    },
    {
        "name": "range-aggregate",
        "sql": ("SELECT year, COUNT(*) AS n, AVG(price) AS avg_price"
                " FROM book WHERE price > :floor GROUP BY year"),
        "params": {"floor": 10.0},
    },
    {
        "name": "join",
        "sql": ("SELECT a.name, b.title FROM book AS b"
                " JOIN author AS a ON b.author_oid = a.oid"
                " WHERE b.year = :y AND a.country = :c ORDER BY b.title"),
        "params": {"y": 2005, "c": "c3"},
    },
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=4000,
                        help="book rows in the demo catalogue")
    parser.add_argument("--rounds", type=int, default=3,
                        help="timing passes per variant")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the JSON findings report here")
    args = parser.parse_args(argv)

    db = build_demo_database(args.rows)
    report = scan_plan_space(db, WORKLOAD, rounds=args.rounds)
    print(render_report(report))
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=2) + "\n",
                            encoding="utf-8")
        print(f"\nwrote {args.out}")
    return 1 if report["mismatches"] else 0


if __name__ == "__main__":
    sys.exit(main())
