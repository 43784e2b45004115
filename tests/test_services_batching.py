"""Tests for the service-tier batch loader: the AST rewrite itself, the
grouped IN-list fetch, hierarchical level batching (O(levels) queries
instead of O(rows)), list-valued unit inputs, and the descriptor flag
that switches batching off."""

import pytest

from repro.rdb.expr import InList, Param
from repro.services import GenericUnitService
from repro.services.batching import (
    MAX_BATCH_SIZE,
    PARENT_COLUMN,
    batch_params,
    batched_select,
    bucket_size,
    load_grouped,
    query_list_param,
    select_params,
)
from repro.rdb.sqlparser import parse_select


def unit_of(app, page_name, unit_name, view="public"):
    return app.model.find_site_view(view).find_page(page_name).unit(unit_name)


class TestRewrite:
    def test_eq_param_becomes_in_list(self):
        select = batched_select(
            "SELECT oid, title FROM paper WHERE issue_to_paper_oid = :parent", "parent", 4
        )
        assert select is not None
        assert isinstance(select.where, InList)
        assert select.where.options == tuple(
            Param(f"parent__{i}") for i in range(4)
        )
        assert select.items[-1].alias == PARENT_COLUMN

    def test_other_conjuncts_kept(self):
        select = batched_select(
            "SELECT oid FROM paper WHERE pages > 10 AND issue_to_paper_oid = :parent",
            "parent", 2,
        )
        assert select is not None
        conjunct_types = {type(select.where.left), type(select.where.right)}
        assert InList in conjunct_types

    def test_order_by_preserved(self):
        select = batched_select(
            "SELECT oid FROM paper WHERE issue_to_paper_oid = :parent ORDER BY title",
            "parent", 2,
        )
        assert select is not None and select.order_by

    @pytest.mark.parametrize("sql", [
        "SELECT DISTINCT oid FROM paper WHERE issue_to_paper_oid = :parent",
        "SELECT COUNT(*) AS n FROM paper WHERE issue_to_paper_oid = :parent",
        "SELECT oid FROM paper WHERE issue_to_paper_oid = :parent GROUP BY oid",
        "SELECT oid FROM paper WHERE issue_to_paper_oid = :parent LIMIT 3",
        "SELECT oid FROM paper WHERE issue_to_paper_oid > :parent",
        "SELECT oid FROM paper WHERE oid = 1",
        # :parent used twice — substituting one occurrence would change
        # the other's meaning.
        "SELECT oid FROM paper WHERE issue_to_paper_oid = :parent AND oid = :parent",
    ])
    def test_unbatchable_shapes_refused(self, sql):
        assert batched_select(sql, "parent", 2) is None

    def test_select_params_collects_all(self):
        select = parse_select(
            "SELECT oid FROM paper WHERE issue_to_paper_oid = :a AND pages > :b"
        )
        assert select_params(select) == {"a", "b"}


class TestBuckets:
    def test_power_of_two_sizes(self):
        assert [bucket_size(n) for n in (1, 2, 3, 5, 9, 64)] == \
            [1, 2, 4, 8, 16, 64]

    def test_capped_at_max(self):
        assert bucket_size(1000) == MAX_BATCH_SIZE

    def test_padding_repeats_last_value(self):
        params = batch_params("parent", [7, 8, 9], 4)
        assert params == {"parent__0": 7, "parent__1": 8,
                          "parent__2": 9, "parent__3": 9}


class TestLoadGrouped:
    def test_one_query_groups_by_parent(self, acm_app, acm_oids):
        ctx = acm_app.ctx
        grouped = load_grouped(
            ctx,
            "SELECT oid, title, issue_to_paper_oid FROM paper"
            " WHERE issue_to_paper_oid = :parent ORDER BY title",
            "parent",
            acm_oids["issues"],
        )
        assert ctx.stats.batched_queries == 1
        assert set(grouped) == set(acm_oids["issues"])
        first_issue = grouped[acm_oids["issues"][0]]
        assert [r["title"] for r in first_issue] == \
            ["Indexing the Web", "Query Optimization Revisited"]

    def test_parents_without_rows_absent(self, acm_app, acm_oids):
        grouped = load_grouped(
            acm_app.ctx,
            "SELECT oid FROM paper WHERE issue_to_paper_oid = :parent",
            "parent",
            [99999],
        )
        assert grouped == {}

    def test_none_and_duplicate_parents_ignored(self, acm_app, acm_oids):
        issue = acm_oids["issues"][0]
        grouped = load_grouped(
            acm_app.ctx,
            "SELECT oid FROM paper WHERE issue_to_paper_oid = :parent",
            "parent",
            [issue, None, issue],
        )
        assert len(grouped[issue]) == 2

    def test_unbatchable_query_returns_none(self, acm_app, acm_oids):
        grouped = load_grouped(
            acm_app.ctx,
            "SELECT DISTINCT oid FROM paper WHERE issue_to_paper_oid = :parent",
            "parent",
            acm_oids["issues"],
        )
        assert grouped is None


class TestHierarchicalBatching:
    def test_one_query_per_level(self, acm_app, acm_oids):
        unit = unit_of(acm_app, "Volume Page", "Issues&Papers")
        service = GenericUnitService(acm_app.ctx)
        bean = service.compute(
            acm_app.registry.unit(unit.id),
            {"volume_to_issue": acm_oids["volumes"][0]},
        )
        # root query + one batched query for the single Paper level
        assert acm_app.ctx.stats.queries_executed == 2
        assert acm_app.ctx.stats.batched_queries == 1
        assert len(bean.rows) == 2
        papers = [child["title"] for row in bean.rows
                  for child in row["_children"]]
        assert "Query Optimization Revisited" in papers

    def test_batched_flag_off_keeps_per_row_queries(self, acm_app, acm_oids):
        unit = unit_of(acm_app, "Volume Page", "Issues&Papers")
        descriptor = acm_app.registry.unit(unit.id)
        descriptor.batched = False
        service = GenericUnitService(acm_app.ctx)
        bean = service.compute(
            descriptor, {"volume_to_issue": acm_oids["volumes"][0]}
        )
        # root + one query per issue row: the seed's N+1 shape
        assert acm_app.ctx.stats.queries_executed == 1 + len(bean.rows)
        assert acm_app.ctx.stats.batched_queries == 0

    def test_batched_and_per_row_beans_identical(self, acm_app, acm_oids):
        unit = unit_of(acm_app, "Volume Page", "Issues&Papers")
        descriptor = acm_app.registry.unit(unit.id)
        service = GenericUnitService(acm_app.ctx)
        inputs = {"volume_to_issue": acm_oids["volumes"][0]}
        batched = service.compute(descriptor, inputs)
        descriptor.batched = False
        per_row = service.compute(descriptor, inputs)
        assert batched.rows == per_row.rows


class TestListValuedInputs:
    def test_index_unit_accepts_oid_list(self, acm_app, acm_oids):
        unit = unit_of(acm_app, "Volumes", "All volumes")
        descriptor = acm_app.registry.unit(unit.id)
        rows = query_list_param(
            acm_app.ctx,
            "SELECT oid, title FROM paper WHERE issue_to_paper_oid = :parent",
            {"parent": acm_oids["issues"][:2]},
        )
        assert rows is not None and len(rows) == 3
        assert acm_app.ctx.stats.batched_queries == 1
        assert descriptor is not None

    def test_scalar_params_fall_through(self, acm_app, acm_oids):
        rows = query_list_param(
            acm_app.ctx,
            "SELECT oid FROM paper WHERE issue_to_paper_oid = :parent",
            {"parent": acm_oids["issues"][0]},
        )
        assert rows is None

    def test_scalar_inputs_walk_no_ast(self, acm_app, acm_oids,
                                       monkeypatch):
        """No input is a list: ``None`` before the statement's AST is
        walked for its parameters (the Paper details author index runs
        this on every request)."""
        from repro.services import batching

        walked = []
        real = batching._subexpressions
        monkeypatch.setattr(
            batching, "_subexpressions",
            lambda expr: walked.append(expr) or real(expr),
        )
        sql = "SELECT oid FROM paper WHERE issue_to_paper_oid = :parent"
        scalar = {"parent": acm_oids["issues"][0], "other": "x"}
        assert query_list_param(acm_app.ctx, sql, scalar) is None
        assert walked == []
        listed = {"parent": acm_oids["issues"][:2]}
        assert query_list_param(acm_app.ctx, sql, listed) is not None
        assert walked  # the counter does see a walk

    def test_empty_list_returns_no_rows(self, acm_app):
        rows = query_list_param(
            acm_app.ctx,
            "SELECT oid FROM paper WHERE issue_to_paper_oid = :parent",
            {"parent": []},
        )
        assert rows == []

    def test_unbatchable_falls_back_to_per_value_loop(self, acm_app, acm_oids):
        rows = query_list_param(
            acm_app.ctx,
            "SELECT DISTINCT oid FROM paper WHERE issue_to_paper_oid = :parent",
            {"parent": acm_oids["issues"][:2]},
        )
        assert rows is not None and len(rows) == 3
        assert acm_app.ctx.stats.batched_queries == 0
        assert acm_app.ctx.stats.queries_executed == 2


class TestDescriptorFlag:
    def test_batched_defaults_true_and_round_trips(self):
        from repro.descriptors import UnitDescriptor

        descriptor = UnitDescriptor("u1", "Papers", "index", batched=False)
        restored = UnitDescriptor.from_xml(descriptor.to_xml())
        assert restored.batched is False
        default = UnitDescriptor.from_xml(
            UnitDescriptor("u2", "Papers", "index").to_xml()
        )
        assert default.batched is True
