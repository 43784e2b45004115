"""Tests for the WebML model: builders, dataflow contracts, validation,
and XML round-tripping.  The running example is the paper's Figure 1
(the ACM Digital Library volume page)."""

import pytest

from repro.er import ERModel
from repro.errors import ValidationError, WebMLError
from repro.webml import (
    AttributeCondition,
    HierarchyLevel,
    LinkKind,
    RelationshipCondition,
    Selector,
    WebMLModel,
    webml_from_xml,
    webml_to_xml,
)


def acm_data_model() -> ERModel:
    model = ERModel(name="acm")
    model.entity("Volume", [("number", "INTEGER", True), ("year", "INTEGER"),
                            ("title", "VARCHAR(120)")])
    model.entity("Issue", [("number", "INTEGER")])
    model.entity("Paper", [("title", "VARCHAR(200)", True), ("pages", "INTEGER")])
    model.entity("User", [("username", "VARCHAR(40)", True),
                          ("password", "VARCHAR(40)", True)])
    model.relate("VolumeToIssue", "Volume", "Issue", "1:N",
                 inverse_name="IssueToVolume")
    model.relate("IssueToPaper", "Issue", "Paper", "1:N",
                 inverse_name="PaperToIssue")
    return model


def figure1_model() -> WebMLModel:
    """The Volume Page of Figures 1-2 plus the pages it links to."""
    model = WebMLModel(acm_data_model(), name="acm-dl")
    view = model.site_view("public")

    volumes = view.page("Volumes Page", home=True)
    volume_index = volumes.index_unit(
        "All volumes", "Volume", display_attributes=["number", "year"]
    )

    volume_page = view.page("Volume Page")
    volume_data = volume_page.data_unit(
        "Volume data", "Volume", display_attributes=["number", "year", "title"]
    )
    issues_papers = volume_page.hierarchical_index(
        "Issues&Papers",
        levels=[
            HierarchyLevel("Issue", role="VolumeToIssue",
                           display_attributes=["number"]),
            HierarchyLevel("Paper", role="IssueToPaper",
                           display_attributes=["title"]),
        ],
    )
    keyword_entry = volume_page.entry_unit(
        "Enter keyword", fields=[("keyword", "text", True)]
    )

    paper_page = view.page("Paper details page")
    paper_data = paper_page.data_unit("Paper data", "Paper")

    search_page = view.page("SearchResults page")
    results = search_page.index_unit(
        "Matching papers",
        "Paper",
        selector=Selector([
            AttributeCondition("title", "like", parameter="keyword"),
        ]),
        display_attributes=["title"],
    )

    model.link(volume_index, volume_data, params=[("oid", "oid")],
               label="volume details")
    model.link(volume_data, issues_papers, kind=LinkKind.TRANSPORT,
               params=[("oid", "volume_to_issue")])
    model.link(issues_papers, paper_data, params=[("oid", "oid")],
               label="paper details")
    model.link(keyword_entry, results, params=[("keyword", "keyword")],
               label="search")
    model.link(results, paper_data, params=[("oid", "oid")])
    return model


class TestBuilders:
    def test_statistics(self):
        model = figure1_model()
        stats = model.statistics()
        assert stats == {
            "site_views": 1, "pages": 4, "units": 6, "operations": 0, "links": 5,
        }

    def test_home_page_defaults_to_first(self):
        model = figure1_model()
        assert model.site_views[0].home_page.name == "Volumes Page"

    def test_duplicate_page_name_rejected(self):
        model = figure1_model()
        with pytest.raises(WebMLError, match="already has a page"):
            model.site_views[0].page("Volume Page")

    def test_duplicate_unit_name_rejected(self):
        model = figure1_model()
        page = model.site_views[0].find_page("Volume Page")
        with pytest.raises(WebMLError, match="already has a unit"):
            page.data_unit("Volume data", "Volume")

    def test_duplicate_site_view_rejected(self):
        model = figure1_model()
        with pytest.raises(WebMLError, match="duplicate site view"):
            model.site_view("public")

    def test_areas_nest(self):
        model = WebMLModel(acm_data_model())
        view = model.site_view("admin")
        products = view.area("Products")
        archive = products.area("Archive")
        page = archive.page("Old products")
        assert page in view.all_pages()
        assert model.site_view_of_page(page).name == "admin"

    def test_page_of_unit(self):
        model = figure1_model()
        page = model.site_views[0].find_page("Volume Page")
        unit = page.unit("Volume data")
        assert model.page_of_unit(unit).name == "Volume Page"

    def test_link_endpoints_must_exist(self):
        model = figure1_model()
        with pytest.raises(WebMLError, match="not in the model"):
            model.link("ghost1", "ghost2")

    def test_links_from_to(self):
        model = figure1_model()
        page = model.site_views[0].find_page("Volume Page")
        unit = page.unit("Volume data")
        assert len(model.links_from(unit)) == 1
        assert len(model.links_to(unit)) == 1

    def test_data_unit_gets_implicit_key_selector(self):
        model = figure1_model()
        unit = model.site_views[0].find_page("Volume Page").unit("Volume data")
        assert unit.input_slots == ["oid"]

    def test_hierarchical_unit_selector_from_root_role(self):
        model = figure1_model()
        unit = model.site_views[0].find_page("Volume Page").unit("Issues&Papers")
        assert unit.input_slots == ["volume_to_issue"]
        assert unit.entity == "Issue"
        assert set(unit.depends_on_roles) == {"VolumeToIssue", "IssueToPaper"}

    def test_entry_unit_outputs_fields(self):
        model = figure1_model()
        unit = model.site_views[0].find_page("Volume Page").unit("Enter keyword")
        assert unit.output_slots == ["keyword"]
        assert unit.input_slots == []

    def test_scroller_contract(self):
        model = WebMLModel(acm_data_model())
        page = model.site_view("sv").page("p")
        scroller = page.scroller_unit("papers", "Paper", block_size=5)
        assert "block" in scroller.input_slots
        assert scroller.output_slots == ["block", "block_count"]

    def test_multichoice_outputs_oids(self):
        model = WebMLModel(acm_data_model())
        page = model.site_view("sv").page("p")
        unit = page.multichoice_unit("pick papers", "Paper")
        assert unit.output_slots == ["oids"]

    def test_operation_builders(self):
        model = WebMLModel(acm_data_model())
        view = model.site_view("admin")
        create = view.create_op("NewPaper", "Paper", ["title", "pages"])
        assert create.input_slots == ["title", "pages"]
        connect = view.connect_op("AttachPaper", "IssueToPaper")
        assert connect.input_slots == ["source_oid", "target_oid"]

    def test_invalid_unit_construction(self):
        model = WebMLModel(acm_data_model())
        page = model.site_view("sv").page("p")
        with pytest.raises(WebMLError):
            page.scroller_unit("s", "Paper", block_size=0)
        with pytest.raises(WebMLError):
            page.entry_unit("e", fields=[("x",), ("x",)])
        with pytest.raises(WebMLError):
            page.hierarchical_index("h", levels=[])


class TestValidation:
    def test_figure1_model_is_valid(self):
        figure1_model().validate()

    def test_unknown_entity_reported(self):
        model = WebMLModel(acm_data_model())
        page = model.site_view("sv").page("p")
        page.index_unit("ghost index", "Ghost")
        with pytest.raises(ValidationError, match="unknown entity 'Ghost'"):
            model.validate()

    def test_unknown_display_attribute_reported(self):
        model = WebMLModel(acm_data_model())
        page = model.site_view("sv").page("p")
        page.index_unit("idx", "Paper", display_attributes=["ghost"])
        with pytest.raises(ValidationError, match="unknown attribute 'ghost'"):
            model.validate()

    def test_selector_role_direction_checked(self):
        model = WebMLModel(acm_data_model())
        page = model.site_view("sv").page("p")
        # VolumeToIssue leads to Issue, not Paper
        page.index_unit(
            "bad", "Paper",
            selector=Selector([RelationshipCondition("VolumeToIssue")]),
        )
        model.link(page, page.unit("bad"))  # irrelevant feeder
        with pytest.raises(ValidationError, match="leads to 'Issue'"):
            model.validate()

    def test_hierarchy_chain_checked(self):
        model = WebMLModel(acm_data_model())
        page = model.site_view("sv").page("p")
        page.hierarchical_index(
            "bad",
            levels=[
                HierarchyLevel("Volume"),
                HierarchyLevel("Paper", role="VolumeToIssue"),
            ],
        )
        with pytest.raises(ValidationError, match="connects 'Volume'→'Issue'"):
            model.validate()

    def test_unfed_input_reported(self):
        model = WebMLModel(acm_data_model())
        page = model.site_view("sv").page("p")
        page.data_unit("lonely", "Paper")  # oid input never fed
        with pytest.raises(ValidationError, match="input 'oid' is never fed"):
            model.validate()

    def test_transport_link_must_stay_in_page(self):
        model = figure1_model()
        view = model.site_views[0]
        volume_data = view.find_page("Volume Page").unit("Volume data")
        paper_data = view.find_page("Paper details page").unit("Paper data")
        model.link(volume_data, paper_data, kind=LinkKind.TRANSPORT)
        with pytest.raises(ValidationError, match="stay within one page"):
            model.validate()

    def test_operation_needs_ok_link(self):
        model = figure1_model()
        view = model.site_views[0]
        delete = view.delete_op("DeletePaper", "Paper")
        results = view.find_page("SearchResults page").unit("Matching papers")
        model.link(results, delete, params=[("oid", "oid")])
        with pytest.raises(ValidationError, match="no OK link"):
            model.validate()

    def test_ok_link_only_from_operations(self):
        model = figure1_model()
        view = model.site_views[0]
        unit = view.find_page("Volume Page").unit("Volume data")
        model.link(unit, view.find_page("Volumes Page"), kind=LinkKind.OK)
        with pytest.raises(ValidationError, match="only operations have OK/KO"):
            model.validate()

    def test_link_parameter_contract_checked(self):
        model = figure1_model()
        view = model.site_views[0]
        entry = view.find_page("Volume Page").unit("Enter keyword")
        results = view.find_page("SearchResults page").unit("Matching papers")
        model.link(entry, results, params=[("nope", "keyword")])
        with pytest.raises(ValidationError, match="no output 'nope'"):
            model.validate()

    def test_empty_site_view_reported(self):
        model = WebMLModel(acm_data_model())
        model.site_view("empty")
        with pytest.raises(ValidationError, match="has no pages"):
            model.validate()

    def test_complete_admin_flow_validates(self):
        model = figure1_model()
        view = model.site_views[0]
        page = view.find_page("Volume Page")
        form = page.entry_unit(
            "New issue", fields=[("number", "text", True)]
        )
        create = view.create_op("CreateIssue", "Issue", ["number"])
        connect = view.connect_op("AttachIssue", "VolumeToIssue")
        model.link(form, create, params=[("number", "number")])
        ok1 = model.link(create, connect, kind=LinkKind.OK,
                         params=[("oid", "target_oid")])
        volume_data = page.unit("Volume data")
        model.link(volume_data, connect, kind=LinkKind.TRANSPORT,
                   params=[("oid", "source_oid")])
        model.link(connect, page, kind=LinkKind.OK)
        model.link(create, page, kind=LinkKind.KO)
        # transport into an operation is rejected (operations are not in pages)
        with pytest.raises(ValidationError, match="transport links connect units"):
            model.validate()
        assert ok1.parameters[0].target_input == "target_oid"


class TestXmlRoundtrip:
    def test_roundtrip_preserves_structure(self):
        model = figure1_model()
        view = model.site_views[0]
        view.create_op("CreatePaper", "Paper", ["title"])
        document = webml_to_xml(model)
        loaded = webml_from_xml(document, acm_data_model())
        assert loaded.statistics() == model.statistics()
        assert loaded.site_views[0].home_page.name == "Volumes Page"
        unit = loaded.site_views[0].find_page("Volume Page").unit("Issues&Papers")
        assert [level.entity for level in unit.levels] == ["Issue", "Paper"]

    def test_roundtrip_preserves_links_and_params(self):
        model = figure1_model()
        loaded = webml_from_xml(webml_to_xml(model), acm_data_model())
        loaded.validate()
        entry = loaded.site_views[0].find_page("Volume Page").unit("Enter keyword")
        outgoing = loaded.links_from(entry)
        assert len(outgoing) == 1
        assert outgoing[0].parameters[0].source_output == "keyword"

    def test_roundtrip_preserves_selectors(self):
        model = figure1_model()
        loaded = webml_from_xml(webml_to_xml(model), acm_data_model())
        results = loaded.site_views[0].find_page("SearchResults page").unit(
            "Matching papers"
        )
        condition = results.selector.conditions[0]
        assert isinstance(condition, AttributeCondition)
        assert condition.operator == "like"
        assert condition.parameter == "keyword"

    def test_roundtrip_preserves_cache_flags(self):
        model = WebMLModel(acm_data_model())
        page = model.site_view("sv").page("p")
        page.index_unit("idx", "Paper", cacheable=True, cache_policy="ttl:30")
        loaded = webml_from_xml(webml_to_xml(model), acm_data_model())
        unit = loaded.site_views[0].find_page("p").unit("idx")
        assert unit.cacheable and unit.cache_policy == "ttl:30"

    def test_wrong_root_rejected(self):
        with pytest.raises(WebMLError, match="expected <webml>"):
            webml_from_xml("<ermodel/>", acm_data_model())

    def test_roundtrip_preserves_areas(self):
        model = WebMLModel(acm_data_model())
        view = model.site_view("admin")
        area = view.area("Content")
        area.page("News")
        loaded = webml_from_xml(webml_to_xml(model), acm_data_model())
        assert loaded.site_views[0].areas[0].name == "Content"
        assert loaded.site_views[0].areas[0].pages[0].name == "News"


class TestXmlRoundtripExtended:
    def test_plugin_unit_roundtrip(self):
        from repro.services.plugins import PluginUnit, plugin_registry

        class _Svc:
            kind = "badge"

            def compute(self, descriptor, inputs, ctx):  # pragma: no cover
                return None

        plugin_registry.register(PluginUnit(
            kind="badge", tag_name="webml:badgeUnit", service=_Svc(),
        ))
        try:
            model = WebMLModel(acm_data_model())
            page = model.site_view("sv").page("p")
            page.plugin_unit("My badge", "badge",
                             extra_inputs=["who"], extra_outputs=["level"])
            loaded = webml_from_xml(webml_to_xml(model), acm_data_model())
            unit = loaded.site_views[0].find_page("p").unit("My badge")
            assert unit.kind == "badge"
            assert unit.extra_inputs == ["who"]
            assert unit.extra_outputs == ["level"]
            assert unit.input_slots == ["who"]
            assert "level" in unit.output_slots
        finally:
            plugin_registry.unregister("badge")

    def test_unknown_kind_still_rejected(self):
        document = (
            "<webml name='x'><siteview id='sv1' name='sv'>"
            "<page id='p1' name='p'>"
            "<unit id='u1' name='u' kind='martian' entity='Paper'/>"
            "</page></siteview></webml>"
        )
        with pytest.raises(WebMLError, match="unknown unit kind"):
            webml_from_xml(document, acm_data_model())

    def test_acer_scale_model_roundtrips(self):
        from repro.workloads.acer import AcerScale, build_acer_model

        model = build_acer_model(AcerScale(site_views=3, pages=9, units=47))
        loaded = webml_from_xml(webml_to_xml(model), model.data_model)
        assert loaded.statistics() == model.statistics()
        loaded.validate()


class TestDiagramExport:
    def test_figure1_diagram_structure(self):
        from repro.webml.diagram import model_to_dot

        dot = model_to_dot(figure1_model())
        assert dot.startswith('digraph "acm-dl" {')
        assert dot.rstrip().endswith("}")
        # pages become clusters, units become labelled nodes
        assert 'label="Volume Page"' in dot
        assert "Issues&Papers" in dot
        # transport links are dashed, like the paper's Figure 1
        assert "style=dashed, tooltip=\"oid→volume_to_issue\"" in dot

    def test_operations_and_outcome_links(self):
        from repro.webml.diagram import model_to_dot

        model = figure1_model()
        view = model.site_views[0]
        page = view.find_page("Volume Page")
        form = page.unit("Enter keyword")
        delete = view.delete_op("DeletePaper", "Paper")
        model.link(form, delete, params=[("keyword", "oid")])
        model.link(delete, page, kind=LinkKind.OK)
        model.link(delete, page, kind=LinkKind.KO)
        dot = model_to_dot(model)
        assert "shape=ellipse" in dot  # operations drawn as ellipses
        assert 'label="OK"' in dot and 'label="KO"' in dot
        assert "lhead=cluster_" in dot  # page-targeted links anchor safely

    def test_site_view_filter(self):
        from repro.webml.diagram import model_to_dot
        from repro.workloads.acer import AcerScale, build_acer_model

        model = build_acer_model(AcerScale(site_views=3, pages=9, units=47))
        full = model_to_dot(model)
        partial = model_to_dot(model, site_view_names=[model.site_views[0].name])
        assert len(partial) < len(full)
        assert model.site_views[0].name in partial
        assert model.site_views[-1].name not in partial

    def test_dot_ids_are_plain_identifiers(self):
        from repro.webml.diagram import model_to_dot
        import re

        dot = model_to_dot(figure1_model())
        for edge in re.findall(r"^  (\S+) -> (\S+) ", dot, re.MULTILINE):
            assert all(re.fullmatch(r"\w+", node) for node in edge)
