"""Tests for the code generators: SQL, descriptors, controller config,
skeletons, the project facade, and the conventional baseline."""

import pytest

from repro.codegen import (
    generate_controller_config,
    generate_conventional,
    generate_operation_descriptor,
    generate_page_descriptor,
    generate_page_skeleton,
    generate_project,
    generate_unit_descriptor,
    operation_statements,
    unit_queries,
)
from repro.codegen.sqlgen import sql_literal
from repro.descriptors import IndexUse, UnitDescriptor
from repro.er import ERModel
from repro.er.mapping import map_to_relational
from repro.rdb import Database
from repro.rdb.sqlparser import parse_select, parse_sql
from repro.webml import Selector
from repro.webml.units import DataUnit, IndexUnit
from repro.xmlkit import parse_xml


@pytest.fixture
def mapping(acm_webml):
    return map_to_relational(acm_webml.data_model)


def find_unit(model, page_name, unit_name, view_name="public"):
    return model.find_site_view(view_name).find_page(page_name).unit(unit_name)


def find_operation(model, name, view_name="admin"):
    view = model.find_site_view(view_name)
    return next(o for o in view.operations if o.name == name)


class TestSqlLiteral:
    def test_literals(self):
        assert sql_literal(None) == "NULL"
        assert sql_literal(True) == "TRUE"
        assert sql_literal(42) == "42"
        assert sql_literal(2.5) == "2.5"
        assert sql_literal("it's") == "'it''s'"


class TestUnitSql:
    def test_data_unit_query(self, acm_webml, mapping):
        unit = find_unit(acm_webml, "Volume Page", "Volume data")
        generated = unit_queries(unit, mapping)
        assert generated["query"] == (
            "SELECT t0.oid AS oid, t0.number AS number, t0.year AS year, "
            "t0.title AS title FROM volume t0 WHERE t0.oid = :oid "
            "ORDER BY t0.oid"
        )
        assert [p.slot for p in generated["inputs"]] == ["oid"]
        assert generated["inputs"][0].value_type == "int"
        parse_select(generated["query"])  # must be valid SQL

    def test_index_with_order(self, acm_webml, mapping):
        unit = find_unit(acm_webml, "Volumes", "All volumes")
        generated = unit_queries(unit, mapping)
        assert "ORDER BY t0.year ASC" in generated["query"]

    def test_like_selector_marks_contains(self, acm_webml, mapping):
        unit = find_unit(acm_webml, "SearchResults", "Matching papers")
        generated = unit_queries(unit, mapping)
        assert "t0.title LIKE :keyword" in generated["query"]
        assert generated["inputs"][0].match == "contains"

    def test_role_selector_via_bridge(self, acm_webml, mapping):
        unit = find_unit(acm_webml, "Paper details", "Authors")
        generated = unit_queries(unit, mapping)
        assert "JOIN authorship r1 ON r1.author_oid = t0.oid" in generated["query"]
        assert "r1.paper_oid = :paper" in generated["query"]
        parse_select(generated["query"])

    def test_inverse_role_selector_joins_back(self, acm_webml, mapping):
        # A unit over Volume selected by IssueToVolume (inverse role).
        page = acm_webml.find_site_view("public").find_page("Volumes")
        from repro.webml import Selector

        unit = page.data_unit(
            "Issue's volume", "Volume",
            selector=Selector.over_role("IssueToVolume", "issue"),
        )
        generated = unit_queries(unit, mapping)
        assert "JOIN issue r1 ON r1.volume_to_issue_oid = t0.oid" \
            in generated["query"]
        assert "r1.oid = :issue" in generated["query"]
        parse_select(generated["query"])

    def test_scroller_has_count_query(self, acm_webml, mapping):
        unit = find_unit(acm_webml, "Browse papers", "Paper scroller")
        generated = unit_queries(unit, mapping)
        assert generated["count_query"] == (
            "SELECT COUNT(*) AS total FROM paper t0"
        )
        parse_select(generated["count_query"])

    def test_hierarchical_levels(self, acm_webml, mapping):
        unit = find_unit(acm_webml, "Volume Page", "Issues&Papers")
        generated = unit_queries(unit, mapping)
        assert "t0.volume_to_issue_oid = :volume_to_issue" in generated["query"]
        assert len(generated["levels"]) == 1
        level = generated["levels"][0]
        assert level.entity == "Paper"
        assert "t0.issue_to_paper_oid = :parent" in level.query
        parse_select(level.query)

    def test_entry_unit_has_no_query(self, acm_webml, mapping):
        unit = find_unit(acm_webml, "Volume Page", "Enter keyword")
        generated = unit_queries(unit, mapping)
        assert generated["query"] is None

    def test_display_attributes_default_to_all(self, acm_webml, mapping):
        unit = find_unit(acm_webml, "Paper details", "Paper data")
        generated = unit_queries(unit, mapping)
        for attribute in ("title", "abstract", "pages"):
            assert f"AS {attribute}" in generated["query"]

    def test_literal_value_selector(self, acm_webml, mapping):
        from repro.webml import (
            AttributeCondition,
            RelationshipCondition,
            Selector,
        )

        page = acm_webml.find_site_view("public").find_page("Volumes")
        unit = page.index_unit(
            "Recent volumes", "Volume",
            selector=Selector([AttributeCondition("year", ">", value=2000)]),
        )
        generated = unit_queries(unit, mapping)
        assert "t0.year > 2000" in generated["query"]
        assert generated["inputs"] == []


class TestSelfRelationship:
    """Both names of a self-relationship, ``CategoryToSub`` (Category →
    Category, 1:N): the forward unit lists a category's children, the
    inverse unit its parent.  The FK side comes from the role's
    direction — table names cannot tell the two ends apart."""

    def test_each_name_selects_its_own_end(self):
        model = ERModel(name="catalog")
        model.entity("Category", [("name", "VARCHAR(40)")])
        model.relate("CategoryToSub", "Category", "Category", "1:N",
                     inverse_name="SubToCategory")
        mapping = map_to_relational(model)
        assert mapping.relationship_maps["CategoryToSub"] \
            .fk_on_many_side_of_source
        database = Database()
        for schema in mapping.schemas:
            database.create_table(schema)
        for oid, name, parent in ((1, "root", None), (2, "left", 1),
                                  (3, "right", 1), (4, "leaf", 2)):
            database.execute(
                "INSERT INTO category (oid, name, category_to_sub_oid) "
                "VALUES (:oid, :name, :parent)",
                {"oid": oid, "name": name, "parent": parent},
            )
        subs = IndexUnit("u1", "Subcategories", "Category",
                         selector=Selector.over_role("CategoryToSub", "cat"))
        parent = DataUnit("u2", "Parent", "Category",
                          selector=Selector.over_role("SubToCategory", "cat"))

        def names(unit, oid):
            query = unit_queries(unit, mapping)["query"]
            return [row["name"] for row in database.query(query,
                                                          {"cat": oid})]

        assert names(subs, 1) == ["left", "right"]
        assert names(subs, 2) == ["leaf"]
        assert names(subs, 3) == []
        assert names(parent, 4) == ["left"]
        assert names(parent, 2) == ["root"]
        assert names(parent, 1) == []


class TestOperationSql:
    def test_create_statement(self, acm_webml, mapping):
        operation = find_operation(acm_webml, "CreatePaper")
        generated = operation_statements(operation, mapping)
        statement = generated["statements"][0]
        assert statement.sql == (
            "INSERT INTO paper (title, pages) VALUES (:title, :pages)"
        )
        assert statement.captures_new_oid
        parse_sql(statement.sql)

    def test_delete_statement(self, acm_webml, mapping):
        operation = find_operation(acm_webml, "DeletePaper")
        generated = operation_statements(operation, mapping)
        assert generated["statements"][0].sql == (
            "DELETE FROM paper WHERE oid = :oid"
        )
        assert generated["statements"][0].params == [("oid", "oid", "int")]

    def test_modify_statement(self, acm_webml, mapping):
        view = acm_webml.find_site_view("admin")
        operation = view.modify_op("EditPaper", "Paper", ["title", "pages"])
        generated = operation_statements(operation, mapping)
        assert generated["statements"][0].sql == (
            "UPDATE paper SET title = :title, pages = :pages WHERE oid = :oid"
        )

    def test_connect_fk_forward(self, acm_webml, mapping):
        view = acm_webml.find_site_view("admin")
        operation = view.connect_op("AttachIssue", "VolumeToIssue")
        generated = operation_statements(operation, mapping)
        assert generated["statements"][0].sql == (
            "UPDATE issue SET volume_to_issue_oid = :source_oid "
            "WHERE oid = :target_oid"
        )

    def test_connect_bridge(self, acm_webml, mapping):
        view = acm_webml.find_site_view("admin")
        operation = view.connect_op("AddAuthor", "Authorship")
        generated = operation_statements(operation, mapping)
        assert generated["statements"][0].sql == (
            "INSERT INTO authorship (paper_oid, author_oid) "
            "VALUES (:source_oid, :target_oid)"
        )

    def test_disconnect_bridge_inverse(self, acm_webml, mapping):
        view = acm_webml.find_site_view("admin")
        operation = view.disconnect_op("RemoveAuthorship", "AuthorOf")
        generated = operation_statements(operation, mapping)
        sql = generated["statements"][0].sql
        # AuthorOf runs Author→Paper: source slot holds the author.
        assert "paper_oid = :target_oid" in sql
        assert "author_oid = :source_oid" in sql

    def test_login_query(self, acm_webml, mapping):
        operation = find_operation(acm_webml, "Login")
        generated = operation_statements(operation, mapping)
        assert generated["user_query"] == (
            "SELECT oid AS oid FROM user WHERE username = :username "
            "AND password = :password"
        )

    def test_logout_has_no_statements(self, acm_webml, mapping):
        operation = find_operation(acm_webml, "Logout")
        generated = operation_statements(operation, mapping)
        assert generated["statements"] == []


class TestPageDescriptorGeneration:
    def test_computation_order_respects_transport(self, acm_webml):
        page = acm_webml.find_site_view("public").find_page("Volume Page")
        descriptor = generate_page_descriptor(acm_webml, page)
        volume_data = page.unit("Volume data")
        hierarchy = page.unit("Issues&Papers")
        order = descriptor.unit_order
        assert order.index(volume_data.id) < order.index(hierarchy.id)

    def test_transport_becomes_unit_binding(self, acm_webml):
        page = acm_webml.find_site_view("public").find_page("Volume Page")
        descriptor = generate_page_descriptor(acm_webml, page)
        hierarchy = page.unit("Issues&Papers")
        binding = descriptor.bindings_for(hierarchy.id)[0]
        assert binding.source == "unit"
        assert binding.source_unit_id == page.unit("Volume data").id
        assert binding.slot == "volume_to_issue"

    def test_unfed_slot_becomes_request_binding(self, acm_webml):
        page = acm_webml.find_site_view("public").find_page("Volume Page")
        descriptor = generate_page_descriptor(acm_webml, page)
        volume_data = page.unit("Volume data")
        binding = descriptor.bindings_for(volume_data.id)[0]
        assert binding.source == "request"
        assert binding.request_param == f"{volume_data.id}.oid"

    def test_navigation_resolves_unit_targets_to_pages(self, acm_webml):
        page = acm_webml.find_site_view("public").find_page("Volume Page")
        descriptor = generate_page_descriptor(acm_webml, page)
        hierarchy = page.unit("Issues&Papers")
        nav = descriptor.navigation_from(hierarchy.id)
        assert len(nav) == 1
        paper_page = acm_webml.find_site_view("public").find_page("Paper details")
        assert nav[0].target_page_id == paper_page.id
        paper_data = paper_page.unit("Paper data")
        assert nav[0].parameters == [("oid", f"{paper_data.id}.oid")]

    def test_navigation_to_operation(self, acm_webml):
        page = acm_webml.find_site_view("admin").find_page("Admin Home")
        descriptor = generate_page_descriptor(acm_webml, page)
        operation_targets = [
            n for n in descriptor.navigation if n.target_kind == "operation"
        ]
        assert len(operation_targets) >= 2  # create + delete (+ logout via page)


class TestUnitDescriptorGeneration:
    def test_dependencies_recorded(self, acm_webml, mapping):
        unit = find_unit(acm_webml, "Volume Page", "Issues&Papers")
        descriptor = generate_unit_descriptor(unit, mapping)
        assert descriptor.depends_on_entities == ["Issue", "Paper"]
        assert set(descriptor.depends_on_roles) == {
            "VolumeToIssue", "IssueToPaper"
        }

    def test_scroller_block_size(self, acm_webml, mapping):
        unit = find_unit(acm_webml, "Browse papers", "Paper scroller")
        descriptor = generate_unit_descriptor(unit, mapping)
        assert descriptor.block_size == 2


    def test_indexes_are_derived_from_the_hypertext_model(self, acm_webml):
        """Sort keys and selector attributes become indexes of the
        schema, and the descriptor of the unit that asked records which
        and why; PK / FK indexes are reused, never duplicated."""
        project = generate_project(acm_webml)
        by_name = {d.name: d for d in project.unit_descriptors}
        assert by_name["Paper scroller"].indexes == [
            IndexUse("ix_paper_title", "paper", ("title",), "order_by")]
        assert by_name["All volumes"].indexes == [
            IndexUse("ix_volume_year", "volume", ("year",), "order_by")]
        # the hierarchy's role selectors are served by the FK indexes
        assert [use.name for use in by_name["Issues&Papers"].indexes] == [
            "ix_issue_volume_to_issue_oid", "ix_paper_issue_to_paper_oid"]
        # key lookups, LIKE selectors and bridge joins derive nothing
        for name in ("Volume data", "Matching papers", "Authors"):
            assert by_name[name].indexes == []
        schemas = {s.name: s for s in project.mapping.schemas}
        assert [i.name for i in schemas["paper"].indexes] == [
            "ix_paper_issue_to_paper_oid", "ix_paper_title"]
        loaded = UnitDescriptor.from_xml(by_name["Paper scroller"].to_xml())
        assert loaded.indexes == by_name["Paper scroller"].indexes

    def test_selector_columns_lead_the_sort_key(self, acm_webml):
        from repro.webml import (
            AttributeCondition,
            RelationshipCondition,
            Selector,
        )

        page = acm_webml.find_site_view("public").page("Long papers")
        page.index_unit(
            "Long papers of an issue", "Paper",
            selector=Selector([
                AttributeCondition("pages", ">=", parameter="least"),
                AttributeCondition("abstract", "=", parameter="abstract"),
                RelationshipCondition("IssueToPaper", "issue"),
            ]),
            order_by=[("title", True)],
        )
        project = generate_project(acm_webml, validate=False)
        descriptor = next(d for d in project.unit_descriptors
                          if d.name == "Long papers of an issue")
        assert [(use.columns, use.reason) for use in descriptor.indexes] == [
            (("abstract", "issue_to_paper_oid", "title"), "order_by"),
            (("abstract",), "selector"),
            (("issue_to_paper_oid",), "selector"),
            (("pages",), "selector"),
        ]
        # one new composite, one new single; the others already lead one
        assert [use.name for use in descriptor.indexes] == [
            "ix_paper_abstract_issue_to_paper_oid_title",
            "ix_paper_abstract_issue_to_paper_oid_title",
            "ix_paper_issue_to_paper_oid",
            "ix_paper_pages",
        ]


class TestOperationDescriptorGeneration:
    def test_ok_ko_targets(self, acm_webml, mapping):
        operation = find_operation(acm_webml, "CreatePaper")
        descriptor = generate_operation_descriptor(acm_webml, operation, mapping)
        admin_home = acm_webml.find_site_view("admin").find_page("Admin Home")
        assert descriptor.ok.target_page_id == admin_home.id
        assert descriptor.ko.target_page_id == admin_home.id


class TestControllerConfig:
    def test_config_covers_all_pages_and_operations(self, acm_webml):
        config = parse_xml(generate_controller_config(acm_webml))
        actions = config.find("actionMappings").find_all("action")
        page_actions = [a for a in actions if a.get("type") == "PageAction"]
        op_actions = [a for a in actions if a.get("type") == "OperationAction"]
        assert len(page_actions) == len(acm_webml.all_pages())
        assert len(op_actions) == len(acm_webml.all_operations())

    def test_operation_forwards_present(self, acm_webml):
        config = parse_xml(generate_controller_config(acm_webml))
        actions = config.find("actionMappings").find_all("action")
        create_action = next(
            a for a in actions
            if a.get("type") == "OperationAction"
            and "CreatePaper" in _operation_name(acm_webml, a.get("operation"))
        )
        forwards = {f.get("name") for f in create_action.find_all("forward")}
        assert forwards == {"ok", "ko"}

    def test_home_pages_with_login_flag(self, acm_webml):
        config = parse_xml(generate_controller_config(acm_webml))
        homes = {
            h.get("siteview"): h for h in config.find("homePages").find_all("home")
        }
        admin = acm_webml.find_site_view("admin")
        assert homes[admin.id].get("requiresLogin") == "true"


def _operation_name(model, operation_id):
    return model.element(operation_id).name


class TestSkeletons:
    def test_skeleton_contains_all_unit_tags(self, acm_webml):
        page = acm_webml.find_site_view("public").find_page("Volume Page")
        skeleton = parse_xml(generate_page_skeleton(page))
        tags = [e.tag for e in skeleton.iter() if e.tag.startswith("webml:")]
        assert tags == ["webml:dataUnit", "webml:hierarchicalUnit",
                        "webml:entryUnit"]

    def test_layout_category_controls_grid(self, acm_webml):
        page = acm_webml.find_site_view("public").find_page("Volume Page")
        page.layout_category = "two-columns"
        skeleton = parse_xml(generate_page_skeleton(page))
        first_row = skeleton.descendants("tr")[0]
        assert len(first_row.find_all("td")) == 2


class TestProjectGeneration:
    def test_counts_match_model(self, acm_webml):
        project = generate_project(acm_webml)
        counts = project.counts()
        stats = acm_webml.statistics()
        assert counts["page_templates"] == stats["pages"]
        assert counts["unit_descriptors"] == stats["units"]
        assert counts["operation_descriptors"] == stats["operations"]
        assert counts["sql_statements"] > 0
        assert counts["tables"] == 6  # 5 entities + 1 bridge

    def test_as_files_is_complete(self, acm_webml):
        project = generate_project(acm_webml)
        files = project.as_files()
        assert "sql/schema.sql" in files
        assert "conf/controller-config.xml" in files
        skeletons = [p for p in files if p.startswith("skeletons/")]
        assert len(skeletons) == len(acm_webml.all_pages())

    def test_generated_sql_all_parses(self, acm_webml):
        project = generate_project(acm_webml)
        for descriptor in project.unit_descriptors:
            if descriptor.query:
                parse_select(descriptor.query)
            if descriptor.count_query:
                parse_select(descriptor.count_query)
            for level in descriptor.levels:
                parse_select(level.query)
        for descriptor in project.operation_descriptors:
            for statement in descriptor.statements:
                parse_sql(statement.sql)

    def test_invalid_model_rejected(self, acm_webml):
        page = acm_webml.find_site_view("public").find_page("Volumes")
        page.data_unit("orphan", "Paper")  # oid never fed
        from repro.errors import ValidationError

        with pytest.raises(ValidationError):
            generate_project(acm_webml)


class TestConventionalBaseline:
    def test_one_class_per_unit_and_page(self, acm_webml):
        project = generate_conventional(acm_webml)
        stats = acm_webml.statistics()
        counts = project.class_count()
        assert counts["unit_service_classes"] == stats["units"]
        assert counts["page_service_classes"] == stats["pages"]

    def test_sources_compile(self, acm_webml):
        project = generate_conventional(acm_webml)
        for path, source in project.files.items():
            compile(source, path, "exec")

    def test_loc_grows_with_model(self, acm_webml):
        project = generate_conventional(acm_webml)
        assert project.total_loc() > 100
