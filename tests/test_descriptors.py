"""Tests for descriptor dataclasses, XML round-trips, and the registry's
hot-redeploy / optimized-preservation semantics (§6, §8)."""

import pytest

from repro.descriptors import (
    BeanProperty,
    IndexUse,
    DescriptorRegistry,
    InputParameter,
    LevelQuery,
    NavigationTarget,
    OperationDescriptor,
    OutcomeTarget,
    PageDescriptor,
    SlotBinding,
    StatementSpec,
    UnitDescriptor,
)
from repro.errors import DescriptorError


def sample_unit_descriptor() -> UnitDescriptor:
    return UnitDescriptor(
        unit_id="unit7",
        name="Issues&Papers",
        kind="hierarchical",
        entity="Issue",
        query="SELECT t0.oid AS oid FROM issue t0 WHERE "
              "t0.volume_to_issue_oid = :volume ORDER BY t0.oid",
        inputs=[InputParameter("volume", "volume", value_type="int")],
        properties=[BeanProperty("oid", "oid"), BeanProperty("number", "number")],
        levels=[
            LevelQuery(
                entity="Paper",
                query="SELECT t0.oid AS oid, t0.title AS title FROM paper t0 "
                      "WHERE t0.issue_to_paper_oid = :parent ORDER BY t0.oid",
                properties=[BeanProperty("oid", "oid"),
                            BeanProperty("title", "title")],
            )
        ],
        depends_on_entities=["Issue", "Paper"],
        depends_on_roles=["VolumeToIssue", "IssueToPaper"],
        cacheable=True,
        cache_policy="model-driven",
    )


class TestUnitDescriptor:
    def test_xml_roundtrip(self):
        descriptor = sample_unit_descriptor()
        loaded = UnitDescriptor.from_xml(descriptor.to_xml())
        assert loaded.unit_id == "unit7"
        assert loaded.kind == "hierarchical"
        assert loaded.query == descriptor.query
        assert loaded.inputs[0].value_type == "int"
        assert loaded.levels[0].entity == "Paper"
        assert loaded.levels[0].properties[1].name == "title"
        assert loaded.depends_on_roles == ["VolumeToIssue", "IssueToPaper"]
        assert loaded.cacheable

    def test_optimized_flag_roundtrip(self):
        descriptor = sample_unit_descriptor()
        descriptor.optimized = True
        descriptor.custom_service = "MyTunedService"
        loaded = UnitDescriptor.from_xml(descriptor.to_xml())
        assert loaded.optimized
        assert loaded.custom_service == "MyTunedService"

    def test_entry_fields_roundtrip(self):
        descriptor = UnitDescriptor(
            unit_id="unit9", name="Enter keyword", kind="entry",
            entry_fields=[{"name": "keyword", "type": "text",
                           "required": "true", "label": "Keyword"}],
        )
        loaded = UnitDescriptor.from_xml(descriptor.to_xml())
        assert loaded.entry_fields[0]["name"] == "keyword"

    def test_input_slot_lookup(self):
        descriptor = sample_unit_descriptor()
        assert descriptor.input_for_slot("volume").sql_param == "volume"
        with pytest.raises(DescriptorError, match="no input slot"):
            descriptor.input_for_slot("ghost")

    def test_bad_match_mode_rejected(self):
        with pytest.raises(DescriptorError):
            InputParameter("a", "a", match="fuzzy")

    def test_bad_value_type_rejected(self):
        with pytest.raises(DescriptorError):
            InputParameter("a", "a", value_type="decimal")

    def test_wrong_root_rejected(self):
        with pytest.raises(DescriptorError, match="expected <unitDescriptor>"):
            UnitDescriptor.from_xml("<pageDescriptor id='x' name='y' siteview='z'/>")

    def test_sql_with_angle_brackets_roundtrips(self):
        descriptor = UnitDescriptor(
            unit_id="u", name="n", kind="index", entity="E",
            query="SELECT t0.oid AS oid FROM e t0 WHERE t0.n < 3 AND t0.m > 1 "
                  "ORDER BY t0.oid",
        )
        loaded = UnitDescriptor.from_xml(descriptor.to_xml())
        assert "< 3" in loaded.query and "> 1" in loaded.query


def sample_page_descriptor() -> PageDescriptor:
    return PageDescriptor(
        page_id="page2",
        name="Volume Page",
        site_view_id="sv1",
        layout_category="two-columns",
        unit_order=["unit2", "unit3"],
        bindings=[
            SlotBinding("unit2", "oid", "request", request_param="unit2.oid"),
            SlotBinding("unit3", "volume", "unit", source_unit_id="unit2",
                        source_output="oid"),
        ],
        navigation=[
            NavigationTarget(
                link_id="link3", source_unit_id="unit3", target_kind="page",
                target_id="page3", target_page_id="page3",
                parameters=[("oid", "unit5.oid")], label="paper details",
            )
        ],
    )


class TestPageDescriptor:
    def test_xml_roundtrip(self):
        descriptor = sample_page_descriptor()
        loaded = PageDescriptor.from_xml(descriptor.to_xml())
        assert loaded.unit_order == ["unit2", "unit3"]
        assert loaded.layout_category == "two-columns"
        request_binding = loaded.bindings_for("unit2")[0]
        assert request_binding.source == "request"
        assert request_binding.request_param == "unit2.oid"
        unit_binding = loaded.bindings_for("unit3")[0]
        assert unit_binding.source_unit_id == "unit2"
        nav = loaded.navigation_from("unit3")[0]
        assert nav.parameters == [("oid", "unit5.oid")]
        assert nav.label == "paper details"

    def test_binding_validation(self):
        with pytest.raises(DescriptorError, match="request binding"):
            SlotBinding("u", "s", "request")
        with pytest.raises(DescriptorError, match="unit binding"):
            SlotBinding("u", "s", "unit")
        with pytest.raises(DescriptorError, match="unknown binding source"):
            SlotBinding("u", "s", "cosmic")


def sample_operation_descriptor() -> OperationDescriptor:
    return OperationDescriptor(
        operation_id="op1",
        name="CreatePaper",
        kind="create",
        site_view_id="sv2",
        entity="Paper",
        statements=[
            StatementSpec(
                sql="INSERT INTO paper (title, pages) VALUES (:title, :pages)",
                params=[("title", "title", "auto"), ("pages", "pages", "auto")],
                captures_new_oid=True,
            )
        ],
        ok=OutcomeTarget("page", "page5", target_page_id="page5",
                         parameters=[("oid", "unit9.oid")]),
        ko=OutcomeTarget("page", "page6", target_page_id="page6"),
    )


class TestOperationDescriptor:
    def test_xml_roundtrip(self):
        descriptor = sample_operation_descriptor()
        loaded = OperationDescriptor.from_xml(descriptor.to_xml())
        assert loaded.kind == "create"
        assert loaded.statements[0].captures_new_oid
        assert loaded.statements[0].params == [
            ("title", "title", "auto"), ("pages", "pages", "auto")
        ]
        assert loaded.ok.parameters == [("oid", "unit9.oid")]
        assert loaded.ko.target_id == "page6"

    def test_file_with_a_writes_element_still_loads(self):
        """Descriptor files exported before write sets were derived from
        the commit carry a ``<writes>`` element; it is ignored."""
        document = sample_operation_descriptor().to_xml()
        legacy = document.replace(
            "</operationDescriptor>",
            '<writes><entity name="Paper"/><role name="IssueToPaper"/>'
            "</writes></operationDescriptor>",
        )
        assert "<writes>" in legacy
        assert OperationDescriptor.from_xml(legacy) \
            == OperationDescriptor.from_xml(document)

    def test_legacy_two_tuple_params_accepted(self):
        spec = StatementSpec(sql="DELETE FROM t WHERE oid = :oid",
                             params=[("oid", "oid")])
        assert spec.params == [("oid", "oid", "auto")]

    def test_login_descriptor_roundtrip(self):
        descriptor = OperationDescriptor(
            operation_id="op9", name="Login", kind="login",
            user_query="SELECT oid AS oid FROM user WHERE username = :username",
        )
        loaded = OperationDescriptor.from_xml(descriptor.to_xml())
        assert "username" in loaded.user_query


class TestRegistry:
    def test_deploy_and_lookup(self):
        registry = DescriptorRegistry()
        registry.deploy_unit(sample_unit_descriptor())
        registry.deploy_page(sample_page_descriptor())
        registry.deploy_operation(sample_operation_descriptor())
        assert registry.unit("unit7").name == "Issues&Papers"
        assert registry.page("page2").name == "Volume Page"
        assert registry.operation("op1").kind == "create"
        assert registry.counts() == {
            "unit_descriptors": 1, "page_descriptors": 1,
            "operation_descriptors": 1,
        }

    def test_missing_descriptor_raises(self):
        registry = DescriptorRegistry()
        with pytest.raises(DescriptorError, match="no unit descriptor"):
            registry.unit("ghost")
        with pytest.raises(DescriptorError, match="no page descriptor"):
            registry.page("ghost")
        with pytest.raises(DescriptorError, match="no operation descriptor"):
            registry.operation("ghost")

    def test_hot_redeploy_bumps_version(self):
        registry = DescriptorRegistry()
        descriptor = sample_unit_descriptor()
        registry.deploy_unit(descriptor)
        assert registry.unit_version("unit7") == 1
        edited = descriptor.to_xml().replace(
            "ORDER BY t0.oid", "ORDER BY t0.number DESC"
        )
        redeployed = registry.redeploy_unit(edited)
        assert registry.unit_version("unit7") == 2
        assert "t0.number DESC" in redeployed.query

    def test_optimized_descriptor_survives_regeneration(self):
        """§6: a developer-optimized descriptor is not overwritten by a
        regenerated default."""
        registry = DescriptorRegistry()
        original = sample_unit_descriptor()
        registry.deploy_unit(original)
        optimized = UnitDescriptor.from_xml(original.to_xml())
        optimized.optimized = True
        optimized.query = "SELECT t0.oid AS oid FROM issue t0 ORDER BY t0.oid"
        registry.redeploy_unit(optimized.to_xml())

        regenerated = sample_unit_descriptor()  # the default again
        assert registry.deploy_unit(regenerated) is False
        assert registry.unit("unit7").optimized
        assert "volume_to_issue_oid" not in registry.unit("unit7").query

    def test_optimized_operation_survives_regeneration(self):
        registry = DescriptorRegistry()
        original = sample_operation_descriptor()
        registry.deploy_operation(original)
        optimized = OperationDescriptor.from_xml(original.to_xml())
        optimized.optimized = True
        registry.redeploy_operation(optimized.to_xml())
        assert registry.deploy_operation(sample_operation_descriptor()) is False

    def test_as_files_layout(self):
        registry = DescriptorRegistry()
        registry.deploy_unit(sample_unit_descriptor())
        registry.deploy_page(sample_page_descriptor())
        registry.deploy_operation(sample_operation_descriptor())
        files = registry.as_files()
        assert "descriptors/units/unit7.xml" in files
        assert "descriptors/pages/page2.xml" in files
        assert "descriptors/operations/op1.xml" in files


# ---------------------------------------------------------------------------
# Property-based round-trips: arbitrary descriptors survive XML.
# ---------------------------------------------------------------------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

_names = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc")),
    min_size=1, max_size=20,
)
_idents = st.from_regex(r"[a-z][a-z0-9_]{0,10}", fullmatch=True)
# Descriptor files are pretty-printed, which normalizes surrounding
# whitespace in text content — so SQL strategies produce stripped text.
_sql = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc")),
    min_size=1, max_size=60,
).map(str.strip).filter(bool)


@st.composite
def _unit_descriptors(draw):
    inputs = [
        InputParameter(
            slot=draw(_idents),
            sql_param=draw(_idents),
            match=draw(st.sampled_from(["exact", "contains"])),
            required=draw(st.booleans()),
            value_type=draw(st.sampled_from(["auto", "int", "float",
                                             "bool", "string"])),
        )
        for _ in range(draw(st.integers(0, 3)))
    ]
    properties = [
        BeanProperty(draw(_idents), draw(_idents))
        for _ in range(draw(st.integers(0, 3)))
    ]
    levels = [
        LevelQuery(entity=draw(_names), query=draw(_sql),
                   properties=[BeanProperty(draw(_idents), draw(_idents))])
        for _ in range(draw(st.integers(0, 2)))
    ]
    return UnitDescriptor(
        unit_id=draw(_idents),
        name=draw(_names),
        kind=draw(st.sampled_from(["data", "index", "scroller", "custom"])),
        entity=draw(st.none() | _names),
        query=draw(st.none() | _sql),
        count_query=draw(st.none() | _sql),
        inputs=inputs,
        properties=properties,
        levels=levels,
        indexes=[
            IndexUse(draw(_idents), draw(_idents),
                     tuple(draw(st.lists(_idents, min_size=1, max_size=3))),
                     draw(st.sampled_from(["order_by", "selector"])))
            for _ in range(draw(st.integers(0, 2)))
        ],
        block_size=draw(st.none() | st.integers(1, 50)),
        depends_on_entities=draw(st.lists(_names, max_size=3)),
        depends_on_roles=draw(st.lists(_names, max_size=3)),
        cacheable=(cacheable := draw(st.booleans())),
        # the policy only serializes for cacheable units (by design)
        cache_policy=draw(st.sampled_from(["model-driven", "ttl:30"]))
        if cacheable else "model-driven",
        optimized=draw(st.booleans()),
        custom_service=draw(st.none() | _idents),
    )


class TestDescriptorRoundtripProperties:
    @given(_unit_descriptors())
    @settings(max_examples=60, deadline=None)
    def test_unit_descriptor_xml_roundtrip(self, descriptor):
        loaded = UnitDescriptor.from_xml(descriptor.to_xml())
        assert loaded == descriptor

    @given(st.lists(st.tuples(_idents, _idents,
                              st.sampled_from(["auto", "int"])),
                    max_size=4),
           st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_operation_statement_roundtrip(self, params, captures):
        descriptor = OperationDescriptor(
            operation_id="op", name="Op", kind="create",
            statements=[StatementSpec(sql="INSERT INTO t (a) VALUES (:a)",
                                      params=params,
                                      captures_new_oid=captures)],
        )
        loaded = OperationDescriptor.from_xml(descriptor.to_xml())
        assert loaded.statements[0].params == descriptor.statements[0].params
        assert loaded.statements[0].captures_new_oid == captures
