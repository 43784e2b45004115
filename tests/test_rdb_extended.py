"""Extended relational-engine coverage: trickier SQL shapes, planner
behaviour, and property-based tests tying the codegen layer to the
engine (every generated query must parse, plan, and run)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QueryError, SqlSyntaxError
from repro.rdb import Database
from repro.rdb.executor import SortKey
from repro.rdb.planner import SelectPlan
from repro.rdb.sqlparser import parse_select


@pytest.fixture
def shop() -> Database:
    db = Database()
    db.execute(
        "CREATE TABLE item (oid INTEGER NOT NULL AUTOINCREMENT,"
        " name VARCHAR(40) NOT NULL, price FLOAT, bucket INTEGER,"
        " PRIMARY KEY (oid))"
    )
    rows = [
        ("alpha", 10.0, 1), ("beta", 20.0, 1), ("gamma", 30.0, 2),
        ("delta", None, 2), ("epsilon", 50.0, None),
    ]
    for name, price, bucket in rows:
        db.insert_row("item", {"name": name, "price": price, "bucket": bucket})
    db.stats.reset()
    return db


class TestSqlShapes:
    def test_expression_projection(self, shop):
        rows = shop.query(
            "SELECT name, price * 2 AS doubled, UPPER(name) AS loud"
            " FROM item WHERE price IS NOT NULL ORDER BY oid LIMIT 1"
        )
        assert rows.first() == {"name": "alpha", "doubled": 20.0,
                                "loud": "ALPHA"}

    def test_where_on_null_bucket_excluded(self, shop):
        rows = shop.query("SELECT name FROM item WHERE bucket = 2")
        assert {r["name"] for r in rows} == {"gamma", "delta"}

    def test_is_null_filter(self, shop):
        rows = shop.query("SELECT name FROM item WHERE bucket IS NULL")
        assert rows.as_tuples() == [("epsilon",)]

    def test_group_by_expression(self, shop):
        rows = shop.query(
            "SELECT bucket, AVG(price) AS mean FROM item"
            " WHERE bucket IS NOT NULL GROUP BY bucket ORDER BY bucket"
        )
        assert rows.as_tuples() == [(1, 15.0), (2, 30.0)]

    def test_having_with_aggregate_expression(self, shop):
        rows = shop.query(
            "SELECT bucket FROM item GROUP BY bucket"
            " HAVING COUNT(*) + 0 >= 2 AND bucket IS NOT NULL"
        )
        assert {r["bucket"] for r in rows} == {1, 2}

    def test_aggregate_in_arithmetic(self, shop):
        total = shop.query(
            "SELECT SUM(price) / COUNT(price) AS manual_avg FROM item"
        ).scalar()
        assert total == pytest.approx(27.5)

    def test_order_by_aggregate(self, shop):
        rows = shop.query(
            "SELECT bucket, COUNT(*) AS n FROM item GROUP BY bucket"
            " ORDER BY COUNT(*) DESC, bucket"
        )
        assert rows.rows[0]["n"] == 2

    def test_between_and_in_combined(self, shop):
        rows = shop.query(
            "SELECT name FROM item WHERE price BETWEEN 15 AND 35"
            " AND bucket IN (1, 2)"
        )
        assert {r["name"] for r in rows} == {"beta", "gamma"}

    def test_not_predicates_honour_three_valued_logic(self, shop):
        # epsilon has bucket NULL: NOT (NULL = 1) is UNKNOWN, so the row
        # is excluded — standard SQL, and what the engine must do.
        rows = shop.query(
            "SELECT name FROM item WHERE NOT (bucket = 1) AND price IS NOT NULL"
        )
        assert {r["name"] for r in rows} == {"gamma"}
        rows = shop.query(
            "SELECT name FROM item WHERE (NOT (bucket = 1) OR bucket IS NULL)"
            " AND price IS NOT NULL"
        )
        assert {r["name"] for r in rows} == {"gamma", "epsilon"}

    def test_concat_projection(self, shop):
        row = shop.query(
            "SELECT name || '-' || bucket AS tag FROM item WHERE oid = 1"
        ).first()
        assert row["tag"] == "alpha-1"

    def test_distinct_with_order(self, shop):
        shop.insert_row("item", {"name": "alpha", "price": 10.0, "bucket": 3})
        rows = shop.query("SELECT DISTINCT name FROM item ORDER BY name")
        names = [r["name"] for r in rows]
        assert names == sorted(set(names))

    def test_self_join_with_aliases(self, shop):
        rows = shop.query(
            "SELECT a.name, b.name AS cheaper FROM item a"
            " JOIN item b ON b.price < a.price"
            " WHERE a.name = 'gamma' ORDER BY b.oid"
        )
        assert [r["cheaper"] for r in rows] == ["alpha", "beta"]

    def test_left_join_with_residual_condition(self, shop):
        shop.execute(
            "CREATE TABLE tag (oid INTEGER NOT NULL AUTOINCREMENT,"
            " item_oid INTEGER, label VARCHAR(20), PRIMARY KEY (oid))"
        )
        shop.insert_row("tag", {"item_oid": 1, "label": "hot"})
        shop.insert_row("tag", {"item_oid": 1, "label": "cold"})
        rows = shop.query(
            "SELECT i.name, t.label FROM item i"
            " LEFT JOIN tag t ON t.item_oid = i.oid AND t.label = 'hot'"
            " WHERE i.oid IN (1, 2) ORDER BY i.oid"
        )
        assert rows.as_tuples() == [("alpha", "hot"), ("beta", None)]

    def test_multi_row_insert_statement(self, shop):
        affected = shop.execute(
            "INSERT INTO item (name, bucket) VALUES ('x', 9), ('y', 9)"
        )
        assert affected == 2
        assert shop.query(
            "SELECT COUNT(*) AS n FROM item WHERE bucket = 9"
        ).scalar() == 2

    def test_update_without_where_touches_all(self, shop):
        affected = shop.execute("UPDATE item SET bucket = 0")
        assert affected == 5

    def test_limit_zero(self, shop):
        assert len(shop.query("SELECT * FROM item LIMIT 0")) == 0

    def test_offset_beyond_end(self, shop):
        assert len(shop.query(
            "SELECT * FROM item ORDER BY oid LIMIT 10 OFFSET 99"
        )) == 0

    def test_scalar_on_empty_result(self, shop):
        assert shop.query("SELECT name FROM item WHERE oid = 999").scalar() \
            is None


class TestPlannerBehaviour:
    def test_index_lookup_chosen_for_pk(self, shop):
        select = parse_select("SELECT name FROM item WHERE oid = 3")
        plan = SelectPlan(select, shop.tables)
        from repro.rdb.executor import ScanOp

        assert isinstance(plan.root, ScanOp)
        assert plan.root.eq_columns == ("oid",)
        assert plan.root.predicate is not None

    def test_full_scan_without_index(self, shop):
        select = parse_select("SELECT name FROM item WHERE bucket = 1")
        plan = SelectPlan(select, shop.tables)
        assert plan.root.eq_columns == ()
        assert plan.root.access.kind == "seq"

    def test_secondary_index_used_after_creation(self, shop):
        shop.execute("CREATE INDEX ix_bucket ON item (bucket)")
        select = parse_select("SELECT name FROM item WHERE bucket = 1")
        plan = SelectPlan(select, shop.tables)
        assert plan.root.eq_columns == ("bucket",)

    def test_hash_join_selected_for_equi_condition(self, shop):
        select = parse_select(
            "SELECT * FROM item a JOIN item b ON a.oid = b.oid"
        )
        plan = SelectPlan(select, shop.tables)
        from repro.rdb.executor import HashJoinOp

        assert isinstance(plan.root, HashJoinOp)

    def test_nested_loop_for_inequality(self, shop):
        select = parse_select(
            "SELECT * FROM item a JOIN item b ON a.price < b.price"
        )
        plan = SelectPlan(select, shop.tables)
        from repro.rdb.executor import NestedLoopJoinOp

        assert isinstance(plan.root, NestedLoopJoinOp)

    def test_duplicate_alias_rejected(self, shop):
        select = parse_select("SELECT * FROM item a JOIN item a ON a.oid = a.oid")
        with pytest.raises(QueryError, match="duplicate table binding"):
            SelectPlan(select, shop.tables)

    def test_null_key_never_index_matches(self, shop):
        rows = shop.query("SELECT name FROM item WHERE oid = :v", {"v": None})
        assert len(rows) == 0


class TestSortKey:
    def test_null_sorts_first(self):
        values = [SortKey(3), SortKey(None), SortKey(1)]
        assert [k.value for k in sorted(values)] == [None, 1, 3]

    def test_mixed_numeric(self):
        assert SortKey(1) < SortKey(1.5)
        assert SortKey(2.0) == SortKey(2)

    def test_strings(self):
        assert SortKey("a") < SortKey("b")


class TestParserRobustness:
    @pytest.mark.parametrize("bad", [
        "SELECT",
        "SELECT FROM t",
        "SELECT a FROM",
        "SELECT a FROM t WHERE",
        "SELECT a FROM t GROUP",
        "SELECT a FROM t ORDER BY",
        "SELECT a FROM t LIMIT x",
        "INSERT INTO t VALUES (1)",
        "UPDATE t",
        "DELETE t",
        "CREATE VIEW v",
        "SELECT a FROM t JOIN",
        "SELECT a FROM t WHERE a IN ()",
        "SELECT a b c FROM t",
    ])
    def test_malformed_sql_rejected(self, bad):
        from repro.rdb.sqlparser import parse_sql

        with pytest.raises(SqlSyntaxError):
            parse_sql(bad)

    @given(st.text(max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_arbitrary_text_never_crashes_the_parser(self, text):
        from repro.rdb.sqlparser import parse_sql

        try:
            parse_sql(text)
        except SqlSyntaxError:
            pass  # rejection is the expected failure mode


# ---------------------------------------------------------------------------
# Property: whatever the model says, the generated SQL runs.
# ---------------------------------------------------------------------------

_ATTRS = [("name", "VARCHAR(40)"), ("rank", "INTEGER"), ("score", "FLOAT")]


@st.composite
def _unit_specs(draw):
    kind = draw(st.sampled_from(["index", "multidata", "scroller", "data"]))
    conditions = []
    if kind == "data":
        conditions.append(("key",))
    for _ in range(draw(st.integers(0, 2))):
        attr, _type = draw(st.sampled_from(_ATTRS))
        operator = draw(st.sampled_from(["=", "<", ">", "like"]))
        if operator == "like" and attr != "name":
            attr = "name"
        use_param = draw(st.booleans())
        conditions.append(("attr", attr, operator, use_param))
    use_role = draw(st.booleans())
    order = draw(st.lists(st.sampled_from(["name", "rank"]), max_size=2,
                          unique=True))
    return kind, conditions, use_role, order


class TestGeneratedSqlAlwaysRuns:
    @given(_unit_specs())
    @settings(max_examples=60, deadline=None)
    def test_generated_query_parses_plans_and_runs(self, spec):
        kind, conditions, use_role, order = spec
        from repro.er import ERModel, map_to_relational
        from repro.webml import (
            AttributeCondition,
            KeyCondition,
            RelationshipCondition,
            Selector,
            WebMLModel,
        )
        from repro.codegen.sqlgen import unit_queries
        from repro.webml.units import (
            DataUnit, IndexUnit, MultidataUnit, ScrollerUnit,
        )

        data_model = ERModel(name="prop")
        data_model.entity("Thing", [(n, t) for n, t in _ATTRS])
        data_model.entity("Owner", [("name", "VARCHAR(40)")])
        data_model.relate("OwnerToThing", "Owner", "Thing", "1:N")
        mapping = map_to_relational(data_model)

        parsed_conditions = []
        params = {}
        for position, condition in enumerate(conditions):
            if condition[0] == "key":
                parsed_conditions.append(KeyCondition())
                params["oid"] = 1
            else:
                _tag, attr, operator, use_param = condition
                if use_param:
                    slot = f"p{position}"
                    parsed_conditions.append(
                        AttributeCondition(attr, operator, parameter=slot)
                    )
                    params[slot] = "x" if attr == "name" else 1
                else:
                    value = "x" if attr == "name" else 1
                    parsed_conditions.append(
                        AttributeCondition(attr, operator, value=value)
                    )
        if use_role:
            parsed_conditions.append(RelationshipCondition("OwnerToThing"))
            params["owner_to_thing"] = 1

        classes = {"index": IndexUnit, "multidata": MultidataUnit,
                   "scroller": ScrollerUnit, "data": DataUnit}
        unit = classes[kind](
            "u1", "Unit", entity="Thing",
            selector=Selector(parsed_conditions) if parsed_conditions else None,
            order_by=[(a, False) for a in order] if kind != "data" else [],
        ) if kind != "data" else DataUnit(
            "u1", "Unit", entity="Thing",
            selector=Selector(parsed_conditions),
        )

        generated = unit_queries(unit, mapping)

        db = Database()
        for schema in mapping.schemas:
            if schema.name == "owner":
                db.create_table(schema)
        for schema in mapping.schemas:
            if schema.name != "owner":
                db.create_table(schema)
        db.insert_row("owner", {"name": "o"})
        db.insert_row("thing", {"name": "x", "rank": 1, "score": 2.0,
                                "owner_to_thing_oid": 1})

        result = db.query(generated["query"], params)
        assert result.columns[0] == "oid"
        if generated["count_query"]:
            total = db.query(generated["count_query"], params).scalar()
            assert isinstance(total, int)


class TestTransactions:
    def _db(self):
        db = Database()
        db.execute(
            "CREATE TABLE t (oid INTEGER NOT NULL AUTOINCREMENT,"
            " v VARCHAR(20), n INTEGER, PRIMARY KEY (oid))"
        )
        db.insert_row("t", {"v": "keep", "n": 1})
        return db

    def test_commit_preserves_changes(self):
        db = self._db()
        with db.transaction():
            db.insert_row("t", {"v": "new", "n": 2})
        assert db.row_count("t") == 2

    def test_rollback_undoes_insert(self):
        db = self._db()
        db.begin()
        db.insert_row("t", {"v": "temp", "n": 2})
        db.rollback()
        assert db.row_count("t") == 1
        assert db.query("SELECT v FROM t").scalar() == "keep"

    def test_rollback_undoes_update(self):
        db = self._db()
        db.begin()
        db.execute("UPDATE t SET v = 'changed' WHERE oid = 1")
        db.rollback()
        assert db.query("SELECT v FROM t WHERE oid = 1").scalar() == "keep"

    def test_rollback_undoes_delete_with_original_id(self):
        db = self._db()
        db.begin()
        db.execute("DELETE FROM t WHERE oid = 1")
        db.rollback()
        row = db.query("SELECT oid, v FROM t").first()
        assert row == {"oid": 1, "v": "keep"}

    def test_rollback_undoes_cascade(self):
        db = Database()
        db.execute("CREATE TABLE p (oid INTEGER NOT NULL, PRIMARY KEY (oid))")
        db.execute(
            "CREATE TABLE c (oid INTEGER NOT NULL, p_oid INTEGER,"
            " PRIMARY KEY (oid),"
            " FOREIGN KEY (p_oid) REFERENCES p (oid) ON DELETE CASCADE)"
        )
        db.insert_row("p", {"oid": 1})
        db.insert_row("c", {"oid": 10, "p_oid": 1})
        db.begin()
        db.execute("DELETE FROM p WHERE oid = 1")
        assert db.row_count("c") == 0
        db.rollback()
        assert db.row_count("p") == 1
        assert db.row_count("c") == 1
        # indexes were restored too: the FK lookup still works
        assert db.table("c").find_by_key(("p_oid",), (1,))

    def test_transaction_context_rolls_back_on_error(self):
        db = self._db()
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.insert_row("t", {"v": "doomed", "n": 9})
                raise RuntimeError("boom")
        assert db.row_count("t") == 1

    def test_mixed_operations_rollback_in_order(self):
        db = self._db()
        db.begin()
        db.insert_row("t", {"v": "a", "n": 2})
        db.execute("UPDATE t SET n = 99 WHERE v = 'a'")
        db.execute("DELETE FROM t WHERE v = 'keep'")
        db.rollback()
        rows = db.query("SELECT v, n FROM t ORDER BY oid").as_tuples()
        assert rows == [("keep", 1)]

    def test_nested_begin_rejected(self):
        db = self._db()
        db.begin()
        with pytest.raises(QueryError, match="already active"):
            db.begin()
        db.rollback()

    def test_commit_without_begin_rejected(self):
        db = self._db()
        with pytest.raises(QueryError, match="no active transaction"):
            db.commit()
        with pytest.raises(QueryError, match="no active transaction"):
            db.rollback()

    def test_auto_increment_does_not_roll_back(self):
        # like real sequences: ids burned in a rolled-back txn stay burned
        db = self._db()
        db.begin()
        db.insert_row("t", {"v": "x", "n": 1})
        db.rollback()
        row = db.insert_row("t", {"v": "y", "n": 1})
        assert row["oid"] == 3

    @given(st.lists(st.sampled_from(["insert", "update", "delete"]),
                    min_size=1, max_size=15))
    @settings(max_examples=40, deadline=None)
    def test_rollback_always_restores_snapshot(self, actions):
        db = self._db()
        db.insert_row("t", {"v": "b", "n": 2})
        snapshot = sorted(
            (r["oid"], r["v"], r["n"]) for r in db.query("SELECT * FROM t")
        )
        db.begin()
        for position, action in enumerate(actions):
            if action == "insert":
                db.insert_row("t", {"v": f"x{position}", "n": position})
            elif action == "update":
                db.execute("UPDATE t SET n = n + 1")
            else:
                db.execute("DELETE FROM t WHERE oid = "
                           "(SELECT MIN(oid) AS m FROM t)"
                           if False else "DELETE FROM t WHERE n >= 0")
        db.rollback()
        restored = sorted(
            (r["oid"], r["v"], r["n"]) for r in db.query("SELECT * FROM t")
        )
        assert restored == snapshot


class TestExplain:
    def test_explain_shows_index_lookup(self, shop):
        text = shop.explain("SELECT name FROM item WHERE oid = 1")
        assert "IndexLookup(item AS item ON oid)" in text
        assert "rows~" in text and "cost~" in text

    def test_explain_shows_join_strategy(self, shop):
        text = shop.explain(
            "SELECT a.name FROM item a JOIN item b ON a.oid = b.oid"
            " WHERE b.name = 'alpha'"
        )
        # The cost-based planner starts from the filtered binding (b) and
        # hash-joins the unfiltered one (a) on the equi-condition.
        assert "HashJoin(inner item AS a ON oid)" in text
        assert "SeqScan(item AS b)" in text

    def test_explain_post_processing_steps(self, shop):
        text = shop.explain(
            "SELECT DISTINCT bucket, COUNT(*) AS n FROM item"
            " GROUP BY bucket ORDER BY n LIMIT 2 OFFSET 1"
        )
        lines = text.splitlines()
        assert lines[0].startswith("Limit")
        assert "Sort" in lines[1]
        assert "Distinct" in lines[2]
        assert "GroupAggregate" in lines[3]

    def test_explain_rejects_insert_and_ddl(self, shop):
        # UPDATE / DELETE explain their match scan (tests/test_rdb_dml.py);
        # statements with nothing to plan are still refused
        with pytest.raises(QueryError):
            shop.explain("INSERT INTO item (bucket) VALUES (1)")
        with pytest.raises(QueryError):
            shop.explain("ANALYZE item")
