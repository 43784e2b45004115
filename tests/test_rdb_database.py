"""Integration tests for the Database facade: DDL, DML, constraints,
query execution (joins, grouping, ordering), pooled connections, and
property-based invariants on storage."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    DatabaseError,
    IntegrityError,
    QueryError,
    SchemaError,
)
from repro.rdb import Connection, ConnectionPool, Database


@pytest.fixture
def library() -> Database:
    """The ACM-DL-flavoured schema from the paper's Figure 1."""
    db = Database()
    db.execute(
        "CREATE TABLE volume ("
        " oid INTEGER NOT NULL AUTOINCREMENT, number INTEGER NOT NULL,"
        " year INTEGER, title VARCHAR(80), PRIMARY KEY (oid))"
    )
    db.execute(
        "CREATE TABLE issue ("
        " oid INTEGER NOT NULL AUTOINCREMENT, volume_oid INTEGER NOT NULL,"
        " number INTEGER, PRIMARY KEY (oid),"
        " FOREIGN KEY (volume_oid) REFERENCES volume (oid) ON DELETE CASCADE)"
    )
    db.execute(
        "CREATE TABLE paper ("
        " oid INTEGER NOT NULL AUTOINCREMENT, issue_oid INTEGER,"
        " title VARCHAR(200) NOT NULL, pages INTEGER, PRIMARY KEY (oid),"
        " FOREIGN KEY (issue_oid) REFERENCES issue (oid) ON DELETE SET NULL)"
    )
    for number in (1, 2, 3):
        db.insert_row(
            "volume", {"number": number, "year": 2000 + number,
                       "title": f"TODS Volume {number}"}
        )
    for oid, (vol, num) in enumerate([(1, 1), (1, 2), (2, 1), (3, 1)], start=1):
        db.insert_row("issue", {"volume_oid": vol, "number": num})
    titles = [
        (1, "Query Optimization"), (1, "Views Revisited"),
        (2, "Index Structures"), (3, "Cache Coherence"), (4, "Web Models"),
    ]
    for issue_oid, title in titles:
        db.insert_row("paper", {"issue_oid": issue_oid, "title": title, "pages": 20})
    db.stats.reset()
    return db


class TestDdl:
    def test_duplicate_table_rejected(self, library):
        with pytest.raises(SchemaError, match="already exists"):
            library.execute("CREATE TABLE volume (oid INTEGER)")

    def test_fk_to_unknown_table_rejected(self):
        db = Database()
        with pytest.raises(SchemaError, match="unknown table"):
            db.execute(
                "CREATE TABLE a (x INTEGER, FOREIGN KEY (x) REFERENCES nope (y))"
            )

    def test_drop_referenced_table_rejected(self, library):
        with pytest.raises(SchemaError, match="referenced by"):
            library.drop_table("volume")

    def test_drop_if_exists(self, library):
        library.execute("DROP TABLE IF EXISTS ghost")  # no error
        with pytest.raises(SchemaError):
            library.execute("DROP TABLE ghost")

    def test_create_index_then_unique_violation(self, library):
        library.execute("CREATE INDEX ix_paper_issue ON paper (issue_oid)")
        with pytest.raises(IntegrityError, match="duplicate values"):
            library.execute("CREATE UNIQUE INDEX ux_paper_issue ON paper (issue_oid)")

    def test_self_referencing_fk(self):
        db = Database()
        db.execute(
            "CREATE TABLE area (oid INTEGER NOT NULL, parent_oid INTEGER,"
            " PRIMARY KEY (oid),"
            " FOREIGN KEY (parent_oid) REFERENCES area (oid))"
        )
        db.insert_row("area", {"oid": 1, "parent_oid": None})
        db.insert_row("area", {"oid": 2, "parent_oid": 1})
        with pytest.raises(IntegrityError):
            db.insert_row("area", {"oid": 3, "parent_oid": 99})


class TestConstraints:
    def test_auto_increment_assigns_sequential_ids(self, library):
        row = library.insert_row("volume", {"number": 9, "title": "V9"})
        assert row["oid"] == 4

    def test_auto_increment_respects_explicit_ids(self, library):
        library.insert_row("volume", {"oid": 100, "number": 9, "title": "V"})
        row = library.insert_row("volume", {"number": 10, "title": "W"})
        assert row["oid"] == 101

    def test_primary_key_uniqueness(self, library):
        with pytest.raises(IntegrityError, match="primary key"):
            library.insert_row("volume", {"oid": 1, "number": 7, "title": "dup"})

    def test_not_null_enforced(self, library):
        with pytest.raises(IntegrityError, match="NOT NULL"):
            library.insert_row("volume", {"title": None, "number": None})

    def test_unknown_column_rejected(self, library):
        with pytest.raises(SchemaError, match="no column"):
            library.insert_row("volume", {"nope": 1})

    def test_fk_insert_enforced(self, library):
        with pytest.raises(IntegrityError, match="foreign key violation"):
            library.insert_row("issue", {"volume_oid": 999, "number": 1})

    def test_fk_null_allowed(self, library):
        row = library.insert_row("paper", {"issue_oid": None, "title": "Orphan"})
        assert row["issue_oid"] is None

    def test_delete_cascade(self, library):
        library.execute("DELETE FROM volume WHERE oid = 1")
        remaining = library.query("SELECT volume_oid FROM issue")
        assert all(r["volume_oid"] != 1 for r in remaining)
        # papers of the cascaded issues had SET NULL
        orphans = library.query(
            "SELECT COUNT(*) AS n FROM paper WHERE issue_oid IS NULL"
        ).scalar()
        assert orphans == 3  # papers 1,2 (issue 1) and 3 (issue 2)

    def test_delete_restrict(self):
        db = Database()
        db.execute("CREATE TABLE a (oid INTEGER NOT NULL, PRIMARY KEY (oid))")
        db.execute(
            "CREATE TABLE b (oid INTEGER NOT NULL, a_oid INTEGER,"
            " PRIMARY KEY (oid), FOREIGN KEY (a_oid) REFERENCES a (oid))"
        )
        db.insert_row("a", {"oid": 1})
        db.insert_row("b", {"oid": 1, "a_oid": 1})
        with pytest.raises(IntegrityError, match="referenced by"):
            db.execute("DELETE FROM a WHERE oid = 1")

    def test_update_fk_enforced(self, library):
        with pytest.raises(IntegrityError, match="foreign key violation"):
            library.execute("UPDATE issue SET volume_oid = 999 WHERE oid = 1")
        # failed update must roll back the row
        assert library.query(
            "SELECT volume_oid FROM issue WHERE oid = 1"
        ).scalar() == 1

    def test_update_referenced_key_restricted(self, library):
        with pytest.raises(IntegrityError, match="still referenced"):
            library.execute("UPDATE volume SET oid = 50 WHERE oid = 1")

    def test_unique_constraint(self):
        db = Database()
        db.execute(
            "CREATE TABLE u (oid INTEGER NOT NULL, email VARCHAR(50),"
            " PRIMARY KEY (oid), UNIQUE (email))"
        )
        db.insert_row("u", {"oid": 1, "email": "a@acer.com"})
        with pytest.raises(IntegrityError, match="unique constraint"):
            db.insert_row("u", {"oid": 2, "email": "a@acer.com"})
        # NULLs do not collide
        db.insert_row("u", {"oid": 3, "email": None})
        db.insert_row("u", {"oid": 4, "email": None})


class TestQueries:
    def test_where_with_named_param(self, library):
        rows = library.query(
            "SELECT title FROM volume WHERE year > :y", {"y": 2001}
        )
        assert len(rows) == 2

    def test_where_with_positional_param_via_connection(self, library):
        connection = Connection(library)
        cursor = connection.execute(
            "SELECT title FROM volume WHERE oid = ?", [2]
        )
        assert cursor.fetchone()["title"] == "TODS Volume 2"

    def test_inner_join(self, library):
        rows = library.query(
            "SELECT v.title, i.number FROM volume v"
            " JOIN issue i ON i.volume_oid = v.oid ORDER BY v.oid, i.number"
        )
        assert rows.as_tuples()[0] == ("TODS Volume 1", 1)
        assert len(rows) == 4

    def test_left_join_pads_nulls(self, library):
        library.insert_row("volume", {"number": 9, "title": "Empty Volume"})
        rows = library.query(
            "SELECT v.title, i.oid AS issue_oid FROM volume v"
            " LEFT JOIN issue i ON i.volume_oid = v.oid"
            " WHERE v.title = 'Empty Volume'"
        )
        assert rows.as_tuples() == [("Empty Volume", None)]

    def test_three_way_join(self, library):
        rows = library.query(
            "SELECT v.number, i.number, p.title FROM volume v"
            " JOIN issue i ON i.volume_oid = v.oid"
            " JOIN paper p ON p.issue_oid = i.oid"
            " ORDER BY p.title"
        )
        assert len(rows) == 5

    def test_group_by_with_having(self, library):
        rows = library.query(
            "SELECT i.oid AS issue, COUNT(*) AS papers FROM issue i"
            " JOIN paper p ON p.issue_oid = i.oid"
            " GROUP BY i.oid HAVING COUNT(*) > 1"
        )
        assert rows.as_tuples() == [(1, 2)]

    def test_aggregates_over_all_rows(self, library):
        row = library.query(
            "SELECT COUNT(*) AS n, SUM(pages) AS total, AVG(pages) AS mean,"
            " MIN(pages) AS low, MAX(pages) AS high FROM paper"
        ).first()
        assert row == {"n": 5, "total": 100, "mean": 20.0, "low": 20, "high": 20}

    def test_aggregate_on_empty_table_yields_row(self, library):
        library.execute("DELETE FROM paper")
        row = library.query(
            "SELECT COUNT(*) AS n, SUM(pages) AS total FROM paper"
        ).first()
        assert row == {"n": 0, "total": None}

    def test_count_distinct(self, library):
        n = library.query(
            "SELECT COUNT(DISTINCT volume_oid) AS n FROM issue"
        ).scalar()
        assert n == 3

    def test_order_by_desc_and_nulls_first(self, library):
        library.insert_row("paper", {"issue_oid": None, "title": "A", "pages": None})
        rows = library.query("SELECT title FROM paper ORDER BY pages, title")
        assert rows.rows[0]["title"] == "A"  # NULL pages sorts first

    def test_order_by_alias(self, library):
        rows = library.query(
            "SELECT title, pages * 2 AS doubled FROM paper ORDER BY doubled DESC, title"
        )
        assert rows.rows[0]["doubled"] == 40

    def test_limit_offset(self, library):
        rows = library.query(
            "SELECT oid FROM paper ORDER BY oid LIMIT 2 OFFSET 1"
        )
        assert [r["oid"] for r in rows] == [2, 3]

    def test_distinct(self, library):
        rows = library.query("SELECT DISTINCT pages FROM paper")
        assert rows.as_tuples() == [(20,)]

    def test_star_expansion_with_join_qualifies_collisions(self, library):
        rows = library.query(
            "SELECT * FROM volume v JOIN issue i ON i.volume_oid = v.oid LIMIT 1"
        )
        # both tables have oid and number; later ones must be disambiguated
        assert "oid" in rows.columns
        assert any(c.startswith("i.") for c in rows.columns)

    def test_like_and_functions_in_where(self, library):
        rows = library.query(
            "SELECT title FROM paper WHERE UPPER(title) LIKE '%WEB%'"
        )
        assert rows.as_tuples() == [("Web Models",)]

    def test_ambiguous_column_rejected(self, library):
        with pytest.raises(QueryError, match="ambiguous"):
            library.query(
                "SELECT number FROM volume v JOIN issue i ON i.volume_oid = v.oid"
            )

    def test_unknown_table_rejected(self, library):
        with pytest.raises(QueryError, match="unknown table"):
            library.query("SELECT * FROM ghost")

    def test_unknown_column_rejected(self, library):
        with pytest.raises(QueryError, match="unknown column"):
            library.query("SELECT ghost FROM volume")

    def test_index_scan_equals_full_scan_results(self, library):
        library.execute("CREATE INDEX ix_issue_volume ON issue (volume_oid)")
        indexed = library.query(
            "SELECT oid FROM issue WHERE volume_oid = 1 ORDER BY oid"
        )
        assert [r["oid"] for r in indexed] == [1, 2]

    def test_plan_cache_reused_and_invalidated(self, library):
        sql = "SELECT COUNT(*) AS n FROM paper"
        library.query(sql)
        assert sql in library._plan_cache
        # DDL on unrelated tables leaves the plan warm (scoped
        # invalidation) ...
        library.execute("CREATE TABLE extra (oid INTEGER)")
        assert sql in library._plan_cache
        library.execute("CREATE INDEX ix_extra_oid ON extra (oid)")
        assert sql in library._plan_cache
        # ... while DDL/ANALYZE touching the plan's own table evicts it.
        library.execute("CREATE INDEX ix_paper_pages ON paper (pages)")
        assert sql not in library._plan_cache
        library.query(sql)
        assert sql in library._plan_cache
        library.execute("ANALYZE paper")
        assert sql not in library._plan_cache

    def test_prepared_execution_never_runs_a_plan_invalidated_since_its_probe(
            self, library):
        """Prepared SQL text probes the plan cache once, before the
        read lock; an ANALYZE landing between that probe and the lock
        invalidates the plan it found.  The statement re-plans instead
        of running the stale one."""
        sql = "SELECT title FROM paper WHERE pages > :p ORDER BY oid"
        want = library.query(sql, {"p": 5}).as_tuples()
        stale = library._plan_cache[sql]
        stale.root.actual_rows = None
        rwlock = library._rwlock
        acquire_read = rwlock.acquire_read

        def analyze_then_acquire():
            rwlock.acquire_read = acquire_read
            library.analyze("paper")
            acquire_read()

        rwlock.acquire_read = analyze_then_acquire
        assert library.query(sql, {"p": 5}).as_tuples() == want
        assert rwlock.acquire_read is acquire_read  # the ANALYZE ran
        assert stale.root.actual_rows is None  # the stale plan never ran
        assert library._plan_cache[sql] is not stale
        reused = library.stats.prepared_reuse
        assert library.query(sql, {"p": 5}).as_tuples() == want
        assert library.stats.prepared_reuse == reused + 1

    def test_plan_cache_is_bounded(self, library):
        """Callers that format values into SQL text fill the cache with
        one plan per value: the cap evicts those, least recently used
        first, and the hot (descriptor-style) statements stay warm."""
        from repro.rdb.database import PLAN_CACHE_CAP

        hot = [
            ("SELECT title FROM paper WHERE issue_oid = :i ORDER BY oid",
             {"i": 1}),
            ("SELECT COUNT(*) AS n FROM paper WHERE pages > :p", {"p": 5}),
            ("DELETE FROM paper WHERE title = :t", {"t": "no such"}),
        ]
        adhoc = 5000
        for n in range(adhoc):
            if n % 200 == 0:
                for sql, params in hot:
                    library.execute(sql, params)
            library.query(f"SELECT title FROM paper WHERE pages = {n}")
        assert library.cached_plan_count() == PLAN_CACHE_CAP
        assert library.stats.plan_evictions \
            == adhoc + len(hot) - PLAN_CACHE_CAP
        built = library.observability_stats()["plans_compiled"]
        reused = library.stats.prepared_reuse
        for sql, params in hot:
            library.execute(sql, params)
        assert library.stats.prepared_reuse == reused + 2  # the SELECTs
        assert library.observability_stats()["plans_compiled"] == built
        # scoped invalidation works on the bounded cache as before
        library.execute("CREATE INDEX ix_paper_pages ON paper (pages)")
        assert library.cached_plan_count() == 0

    def test_prepare_rejects_non_select(self, library):
        with pytest.raises(QueryError):
            library.prepare("DELETE FROM paper")

    def test_prepared_plan_reexecution(self, library):
        plan = library.prepare("SELECT COUNT(*) AS n FROM paper")
        before = plan.execute({}).scalar()
        library.insert_row("paper", {"title": "New", "issue_oid": 1})
        after = plan.execute({}).scalar()
        assert (before, after) == (5, 6)

    def test_non_equi_join_nested_loop(self, library):
        rows = library.query(
            "SELECT v.number, i.number FROM volume v"
            " JOIN issue i ON i.volume_oid < v.oid"
        )
        # issues with volume_oid < v.oid: purely nested-loop territory
        assert len(rows) > 0

    def test_update_with_expression(self, library):
        library.execute("UPDATE paper SET pages = pages + 5 WHERE issue_oid = 1")
        pages = library.query(
            "SELECT pages FROM paper WHERE issue_oid = 1"
        ).as_tuples()
        assert pages == [(25,), (25,)]

    def test_stats_counters(self, library):
        library.query("SELECT * FROM volume")
        library.execute("INSERT INTO paper (title) VALUES ('X')")
        library.execute("UPDATE paper SET pages = 1 WHERE title = 'X'")
        library.execute("DELETE FROM paper WHERE title = 'X'")
        assert library.stats.selects == 1
        assert library.stats.inserts == 1
        assert library.stats.updates == 1
        assert library.stats.deletes == 1


class TestConnections:
    def test_cursor_fetch_interface(self, library):
        connection = Connection(library)
        cursor = connection.execute("SELECT oid FROM volume ORDER BY oid")
        assert cursor.fetchone() == {"oid": 1}
        assert cursor.fetchmany(1) == [{"oid": 2}]
        assert cursor.fetchall() == [{"oid": 3}]
        assert cursor.fetchone() is None

    def test_cursor_description(self, library):
        cursor = Connection(library).execute("SELECT oid, title FROM volume")
        assert [d[0] for d in cursor.description] == ["oid", "title"]

    def test_lastrowid(self, library):
        cursor = Connection(library).execute(
            "INSERT INTO volume (number, title) VALUES (7, 'New')"
        )
        assert cursor.lastrowid == 4

    def test_closed_connection_rejected(self, library):
        connection = Connection(library)
        connection.close()
        with pytest.raises(DatabaseError, match="closed"):
            connection.cursor()

    def test_pool_acquire_release(self, library):
        pool = ConnectionPool(library, size=2)
        first = pool.acquire()
        second = pool.acquire()
        assert pool.in_use == 2
        # a bounded acquire times out when nothing is released; a zero
        # timeout is the fail-fast form (the E7 experiments watch this)
        for timeout in (0, 0.01):
            with pytest.raises(DatabaseError, match="timed out"):
                pool.acquire(timeout=timeout)
        assert pool.wait_count == 2
        assert pool.exhausted_failures == 2
        first.close()  # returns to pool
        assert pool.in_use == 1
        third = pool.acquire()
        assert third is first
        second.close()
        third.close()
        assert pool.peak_in_use == 2

    def test_pool_release_is_idempotent(self, library):
        pool = ConnectionPool(library, size=1)
        connection = pool.acquire()
        connection.close()
        connection.close()  # double close: a no-op, not an error
        assert pool.in_use == 0
        assert pool.acquire(timeout=0) is connection

    def test_stale_cursor_fails_loudly(self, library):
        pool = ConnectionPool(library, size=1)
        connection = pool.acquire()
        cursor = connection.cursor()
        cursor.execute("SELECT * FROM volume")
        connection.close()
        with pytest.raises(DatabaseError, match="stale"):
            cursor.execute("SELECT * FROM volume")
        with pytest.raises(DatabaseError, match="idle in its pool"):
            connection.cursor()
        # re-acquiring grants a fresh lease with working cursors
        again = pool.acquire()
        assert again.execute("SELECT * FROM volume").rowcount == 3
        again.close()

    def test_pool_rejects_foreign_release(self, library):
        pool = ConnectionPool(library, size=1)
        stranger = Connection(library)
        with pytest.raises(DatabaseError, match="not acquired"):
            pool.release(stranger)

    def test_pool_size_validation(self, library):
        with pytest.raises(DatabaseError):
            ConnectionPool(library, size=0)

    def test_connection_context_manager(self, library):
        pool = ConnectionPool(library, size=1)
        with pool.acquire() as connection:
            connection.execute("SELECT * FROM volume")
        assert pool.in_use == 0


class TestStorageProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 50), st.text(max_size=8)),
            max_size=40,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_pk_uniqueness_invariant(self, pairs):
        db = Database()
        db.execute(
            "CREATE TABLE t (k INTEGER NOT NULL, v VARCHAR(20), PRIMARY KEY (k))"
        )
        inserted: set[int] = set()
        for key, value in pairs:
            if key in inserted:
                with pytest.raises(IntegrityError):
                    db.insert_row("t", {"k": key, "v": value})
            else:
                db.insert_row("t", {"k": key, "v": value})
                inserted.add(key)
        assert db.row_count("t") == len(inserted)
        keys = {r["k"] for r in db.query("SELECT k FROM t")}
        assert keys == inserted

    @given(st.lists(st.integers(-100, 100), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_order_by_matches_sorted(self, values):
        db = Database()
        db.execute("CREATE TABLE t (oid INTEGER NOT NULL AUTOINCREMENT,"
                   " v INTEGER, PRIMARY KEY (oid))")
        for value in values:
            db.insert_row("t", {"v": value})
        rows = db.query("SELECT v FROM t ORDER BY v")
        assert [r["v"] for r in rows] == sorted(values)
        rows = db.query("SELECT v FROM t ORDER BY v DESC")
        assert [r["v"] for r in rows] == sorted(values, reverse=True)

    @given(st.lists(st.integers(0, 10), min_size=0, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_group_count_totals(self, values):
        db = Database()
        db.execute("CREATE TABLE t (oid INTEGER NOT NULL AUTOINCREMENT,"
                   " bucket INTEGER, PRIMARY KEY (oid))")
        for value in values:
            db.insert_row("t", {"bucket": value})
        rows = db.query("SELECT bucket, COUNT(*) AS n FROM t GROUP BY bucket")
        assert sum(r["n"] for r in rows) == len(values)
        assert len(rows) == len(set(values))

    @given(
        st.lists(st.integers(1, 5), min_size=0, max_size=20),
        st.lists(st.integers(1, 5), min_size=0, max_size=20),
    )
    @settings(max_examples=50, deadline=None)
    def test_hash_join_matches_cartesian_filter(self, lefts, rights):
        db = Database()
        db.execute("CREATE TABLE l (oid INTEGER NOT NULL AUTOINCREMENT,"
                   " k INTEGER, PRIMARY KEY (oid))")
        db.execute("CREATE TABLE r (oid INTEGER NOT NULL AUTOINCREMENT,"
                   " k INTEGER, PRIMARY KEY (oid))")
        for k in lefts:
            db.insert_row("l", {"k": k})
        for k in rights:
            db.insert_row("r", {"k": k})
        joined = db.query(
            "SELECT l.oid AS lo, r.oid AS ro FROM l JOIN r ON l.k = r.k"
        )
        expected = sum(
            1 for lk in lefts for rk in rights if lk == rk
        )
        assert len(joined) == expected
