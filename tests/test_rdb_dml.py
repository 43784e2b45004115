"""UPDATE / DELETE find their rows through the planned scan.

DML shares SELECT's pushdown, access-path choice and row-mode lowering
(``repro.rdb.planner.DmlPlan``); the heap walk through the tree
interpreter is gone.  Three layers of evidence:

- a hypothesis differential property: for a random single-table WHERE,
  DELETE and UPDATE touch exactly the primary keys the *seed* SELECT
  (naive plan, tree interpreter — nothing shared with the new path but
  the parser) returned beforehand, with and without an index on the
  filtered column;
- example tests for what the shared scan must not break: transaction
  visibility and rollback through an index path, cascades and SET NULL,
  re-planning after DDL, unknown columns, the SELECT fast path;
- the observable surface: ``explain()`` on DML, ``access=`` / ``mode=``
  on DML spans and slow-log entries, and "production never interprets".
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.app import Browser, WebApplication
from repro.errors import QueryError
from repro.obs.trace import trace
from repro.rdb import Database
from repro.workloads.acm import build_acm_model, seed_acm_data
from tests.test_rdb_compile_oracle import _PREDICATES, PARAMS, _catalogue

#: the oracle's predicates (written over alias ``b``) plus the edges a
#: row-id scan is most likely to get wrong: comparisons with NULL, an
#: IN-list holding NULL, and parameter-only conjuncts
_DML_PREDICATES = [p.replace("b.", "book.") for p in _PREDICATES] + [
    "book.year = NULL",
    "book.year IN (1991, NULL)",
    "book.year NOT IN (1991, NULL)",
    "book.oid = :pk",
    ":cut = 1999",
    ":cut = 0",
]
_DML_PARAMS = dict(PARAMS, pk=7, v="touched")


class TestDmlMatchesSeedSelect:
    _dbs = None

    @classmethod
    def _databases(cls):
        # bare: every predicate walks the heap; indexed: every filtered
        # column (and the primary key) has an index to offer
        if cls._dbs is None:
            bare = _catalogue(indexes=False)
            indexed = _catalogue()
            indexed.execute("CREATE INDEX ix_book_price ON book (price)")
            indexed.execute("CREATE INDEX ix_book_title ON book (title)")
            indexed.analyze()
            cls._dbs = (bare, indexed)
        return cls._dbs

    @given(conjuncts=st.lists(st.sampled_from(_DML_PREDICATES), max_size=3))
    @settings(max_examples=80, deadline=None)
    def test_delete_and_update_touch_the_seed_selects_keys(self, conjuncts):
        where = " WHERE " + " AND ".join(conjuncts) if conjuncts else ""
        for db in self._databases():
            everything = {
                oid for (oid,) in db.query("SELECT oid FROM book").as_tuples()
            }
            expected = {
                oid for (oid,) in db.prepare(
                    f"SELECT oid FROM book{where}", mode="seed"
                ).execute(_DML_PARAMS).as_tuples()
            }
            db.begin()
            try:
                count = db.execute(f"DELETE FROM book{where}", _DML_PARAMS)
                left = {
                    oid for (oid,)
                    in db.query("SELECT oid FROM book").as_tuples()
                }
                assert count == len(expected)
                assert left == everything - expected
            finally:
                db.rollback()
            db.begin()
            try:
                count = db.execute(
                    f"UPDATE book SET title = :v{where}", _DML_PARAMS
                )
                touched = {
                    oid for (oid,) in db.query(
                        "SELECT oid FROM book WHERE title = 'touched'"
                    ).as_tuples()
                }
                assert count == len(expected)
                assert touched == expected
            finally:
                db.rollback()


def _library() -> Database:
    """volume ←cascade— issue ←set null— paper, with an index on each
    foreign key."""
    db = Database()
    db.execute(
        "CREATE TABLE volume (oid INTEGER NOT NULL AUTOINCREMENT,"
        " year INTEGER, PRIMARY KEY (oid))"
    )
    db.execute(
        "CREATE TABLE issue (oid INTEGER NOT NULL AUTOINCREMENT,"
        " volume_oid INTEGER NOT NULL, PRIMARY KEY (oid),"
        " FOREIGN KEY (volume_oid) REFERENCES volume (oid)"
        " ON DELETE CASCADE)"
    )
    db.execute(
        "CREATE TABLE paper (oid INTEGER NOT NULL AUTOINCREMENT,"
        " issue_oid INTEGER, title VARCHAR(40), PRIMARY KEY (oid),"
        " FOREIGN KEY (issue_oid) REFERENCES issue (oid)"
        " ON DELETE SET NULL)"
    )
    db.execute("CREATE INDEX ix_issue_volume ON issue (volume_oid)")
    db.execute("CREATE INDEX ix_paper_issue ON paper (issue_oid)")
    for year in (2001, 2002, 2003):
        db.insert_row("volume", {"year": year})
    for volume_oid in (1, 1, 2, 3):
        db.insert_row("issue", {"volume_oid": volume_oid})
    for i in range(40):
        db.insert_row("paper", {"issue_oid": i % 4 + 1, "title": f"p{i:02d}"})
    return db


def _oids(db: Database, sql: str, params: dict | None = None) -> list[int]:
    return [row["oid"] for row in db.query(sql, params)]


class TestDmlThroughIndexPaths:
    def test_explain_prints_the_match_scan(self):
        db = _library()
        assert "IndexLookup(paper AS paper ON oid)" in db.explain(
            "DELETE FROM paper WHERE oid = :oid"
        )
        assert "IndexLookup(paper AS paper ON issue_oid)" in db.explain(
            "UPDATE paper SET title = 'x' WHERE issue_oid = 2"
        )
        assert "SeqScan(paper AS paper)" in db.explain("DELETE FROM paper")

    def test_key_addressed_delete_reads_one_row(self):
        # the regression this file exists for: the same statement used
        # to evaluate its WHERE on every row of the heap
        db = Database()
        db.execute(
            "CREATE TABLE t (oid INTEGER NOT NULL AUTOINCREMENT,"
            " n INTEGER, PRIMARY KEY (oid))"
        )
        with db.transaction():
            for i in range(2000):
                db.insert_row("t", {"n": i})
        sql = "DELETE FROM t WHERE oid = :oid"
        assert db.execute(sql, {"oid": 1234}) == 1
        assert db.row_count("t") == 1999
        assert db._plan_cache[sql].match.root.actual_rows == 1
        # EXPLAIN ANALYZE runs the match scan only: counted, not deleted
        text = db.explain(sql, {"oid": 77}, analyze=True)
        assert "IndexLookup(t AS t ON oid)" in text and "actual=1 " in text
        assert db.row_count("t") == 1999
        assert "actual=0 " in db.explain(sql, {"oid": 1234}, analyze=True)

    def test_transaction_sees_its_own_writes_then_rollback_restores(self):
        db = _library()
        sql = "UPDATE paper SET title = 'moved' WHERE issue_oid = :issue"
        assert "IndexLookup" in db.explain(sql)
        before = _oids(db, "SELECT oid FROM paper WHERE issue_oid = 2")
        assert len(before) == 10
        db.begin()
        db.execute("UPDATE paper SET issue_oid = 2 WHERE issue_oid = 3")
        new_oid = db.insert_row("paper", {"issue_oid": 2, "title": "tx"})["oid"]
        db.execute("DELETE FROM paper WHERE oid = :oid", {"oid": before[0]})
        # 10 original - 1 deleted + 10 moved + 1 inserted, all uncommitted
        assert db.execute(sql, {"issue": 2}) == 20
        moved = _oids(db, "SELECT oid FROM paper WHERE title = 'moved'")
        assert new_oid in moved and before[0] not in moved
        db.rollback()
        assert db.execute(sql, {"issue": 2}) == 10
        assert _oids(
            db, "SELECT oid FROM paper WHERE title = 'moved' ORDER BY oid"
        ) == before

    def test_cascade_and_set_null_reached_through_an_index_path(self):
        db = _library()
        sql = "DELETE FROM volume WHERE oid = :oid"
        assert "IndexLookup(volume AS volume ON oid)" in db.explain(sql)
        assert db.execute(sql, {"oid": 1}) == 1
        # issues 1 and 2 cascaded away; their 20 papers were set NULL
        assert _oids(db, "SELECT oid FROM issue ORDER BY oid") == [3, 4]
        assert db.query(
            "SELECT COUNT(*) FROM paper WHERE issue_oid IS NULL"
        ).scalar() == 20
        # a multi-row index path whose cascades run mid-collection
        assert db.execute(
            "DELETE FROM issue WHERE volume_oid IN (2, 3)"
        ) == 2
        assert db.query(
            "SELECT COUNT(*) FROM paper WHERE issue_oid IS NULL"
        ).scalar() == 40

    def test_create_index_replans_a_cached_dml_text(self):
        db = _library()
        sql = "UPDATE paper SET title = title WHERE title = :t"
        assert db.execute(sql, {"t": "p07"}) == 1
        first = db._plan_cache[sql]
        assert first.match.root.access.kind == "seq"
        assert db.execute(sql, {"t": "p08"}) == 1
        assert db._plan_cache[sql] is first  # built once per text
        db.execute("CREATE INDEX ix_paper_title ON paper (title)")
        assert sql not in db._plan_cache  # table-scoped invalidation
        assert db.execute(sql, {"t": "p09"}) == 1
        assert db._plan_cache[sql].match.root.access.kind == "eq"
        # DDL on another table leaves the entry alone
        replanned = db._plan_cache[sql]
        db.execute("CREATE INDEX ix_volume_year ON volume (year)")
        assert db._plan_cache[sql] is replanned

    def test_unknown_column_still_raises(self):
        db = _library()
        with pytest.raises(QueryError, match="unknown column 'nothere'"):
            db.execute("DELETE FROM paper WHERE nothere = 1")
        with pytest.raises(QueryError, match="no column 'nothere' in 'paper'"):
            db.execute("UPDATE paper SET title = 'x'"
                       " WHERE oid = 1 AND paper.nothere = 1")
        with pytest.raises(QueryError, match="unknown table or alias 'p'"):
            db.execute("DELETE FROM paper WHERE p.oid = 1")
        assert db.row_count("paper") == 40

    def test_dml_text_is_never_served_by_the_select_fast_path(self):
        db = _library()
        sql = "DELETE FROM paper WHERE oid = :oid"
        db.stats.reset()
        assert db.execute(sql, {"oid": 1}) == 1
        assert sql in db._plan_cache
        # the repeat takes its parsed statement from the cache entry and
        # still runs as a DELETE: an int, a counted delete, no select
        assert db.execute(sql, {"oid": 2}) == 1
        assert db.stats.deletes == 2
        assert db.stats.selects == 0 and db.stats.prepared_reuse == 0
        with pytest.raises(QueryError, match="expected a SELECT"):
            db.query(sql, {"oid": 3})
        assert db.row_count("paper") == 37  # ...though it did run


class TestDmlObservability:
    def test_spans_and_slow_log_carry_access_and_mode(self):
        db = _library()
        db.slow_log.threshold_seconds = 0.0
        with trace("dml") as t:
            db.execute("DELETE FROM paper WHERE oid = :oid", {"oid": 5})
            db.execute("UPDATE paper SET title = 'x' WHERE title LIKE 'p1%'")
        delete, update = t.root.children
        assert delete.name == "rdb.delete" and update.name == "rdb.update"
        assert delete.tags["access"] == "eq:paper(oid)"
        assert update.tags["access"] == "seq:paper"
        assert delete.tags["mode"] == update.tags["mode"] == "compiled"
        assert sorted(
            (e.access, e.mode) for e in db.slow_log.entries()
        ) == [("eq:paper(oid)", "compiled"), ("seq:paper", "compiled")]


class TestProductionNeverInterprets:
    def test_acm_request_mix_runs_no_interpreted_expression(self):
        app = WebApplication(build_acm_model())
        seed_acm_data(app, volumes=2, issues_per_volume=2, papers_per_issue=3)
        view = app.model.find_site_view("public")

        def page(page_name, unit_name, slot, value):
            unit = view.find_page(page_name).unit(unit_name)
            return app.page_url("public", page_name,
                                {f"{unit.id}.{slot}": value})

        papers = _oids(app.database, "SELECT oid FROM paper ORDER BY oid")
        reader = Browser(app)
        for url in (
            app.page_url("public", "Volumes"),
            page("Volume Page", "Volume data", "oid", 1),
            page("Paper details", "Paper data", "oid", papers[0]),
            page("SearchResults", "Matching papers", "keyword", "Paper%"),
            page("Browse papers", "Paper scroller", "block", 2),
        ):
            assert reader.get(url).status == 200
        admin = Browser(app)
        admin.get(app.operation_url(
            "admin", "Login", {"username": "admin", "password": "secret"}
        ))
        admin.get(app.operation_url(
            "admin", "CreatePaper", {"title": "Fresh", "pages": "3"}
        ))
        admin.get(app.operation_url(
            "admin", "DeletePaper", {"oid": papers[-1]}
        ))
        stats = app.database.observability_stats()
        assert stats["inserts"] >= 1 and stats["deletes"] >= 1
        assert stats["selects"] > 5
        assert stats["selects_interpreted"] == 0
        assert stats["plans_interpreted"] == 0
        assert stats["compile_fallback_exprs"] == 0
