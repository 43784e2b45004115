"""Tests for the presentation layer: tag renderers, the template engine,
XSLT-style rules, CSS modularization, layouts, device adaptation, and
the renderer in both §5 modes."""

import pytest

from repro.app import Browser, WebApplication
from repro.codegen import generate_project
from repro.errors import PresentationError, RuleError, TemplateRenderError
from repro.presentation import (
    CssStylesheet,
    DeviceProfile,
    DeviceRegistry,
    PageTemplate,
    PresentationRenderer,
    Stylesheet,
    UnitRule,
)
from repro.presentation.css import default_css, unit_module
from repro.presentation.devices import compact_device_stylesheet
from repro.presentation.layouts import rule_for_category
from repro.presentation.renderer import default_stylesheet
from repro.presentation.xslt import PageRule
from repro.xmlkit import parse_xml

from tests.conftest import build_acm_webml, seed_acm


@pytest.fixture
def styled_app():
    model = build_acm_webml()
    project = generate_project(model)
    renderer = PresentationRenderer(
        project.skeletons, default_stylesheet("ACM DL")
    )
    app = WebApplication(model, view_renderer=renderer)
    seed_acm(app)
    return app


class TestRules:
    def test_unit_rule_sets_attributes(self):
        rule = UnitRule(pattern="webml:indexUnit",
                        set_attrs={"render-as": "list"})
        tree = parse_xml("<page><webml:indexUnit unit='u1'/></page>")
        target = tree.element_children()[0]
        assert rule.matches(target)
        rule.apply(target)
        assert target.get("render-as") == "list"

    def test_page_rule_wraps_grid(self):
        rule = rule_for_category("one-column", "My Site")
        tree = parse_xml(
            "<html><body><table class='page-grid'><tr/></table></body></html>"
        )
        grid = tree.descendants("table")[0]
        assert rule.matches(grid)
        rule.apply(grid)
        banners = [e for e in tree.iter() if e.get("class") == "site-banner"]
        assert len(banners) == 1
        assert "layout-one-column" in grid.get("class")

    def test_wrapper_requires_placeholder(self):
        with pytest.raises(RuleError, match="placeholder"):
            PageRule(pattern="table", wrapper_html="<div/>")
        with pytest.raises(RuleError, match="placeholder"):
            UnitRule(pattern="webml:dataUnit", box_html="<div/>")

    def test_stylesheet_specificity_wins(self):
        generic = UnitRule(pattern="*", set_attrs={"who": "generic"})
        specific = UnitRule(pattern="webml:dataUnit",
                            set_attrs={"who": "specific"})
        sheet = Stylesheet("s", unit_rules=[generic, specific])
        styled = sheet.apply("<page><webml:dataUnit unit='u'/></page>")
        assert 'who="specific"' in styled

    def test_stylesheet_attaches_css(self):
        sheet = Stylesheet("s", css="body { color: red; }")
        styled = sheet.apply("<html><head/><body/></html>")
        assert "<style" in styled and "color: red" in styled

    def test_coverage_metrics(self):
        sheet = Stylesheet(
            "s",
            page_rules=[rule_for_category("one-column", "X")],
            unit_rules=[UnitRule(pattern="webml:dataUnit")],
        )
        skeleton = (
            "<html><body><table class='page-grid'><tr><td>"
            "<webml:dataUnit unit='a'/><webml:indexUnit unit='b'/>"
            "</td></tr></table></body></html>"
        )
        coverage = sheet.coverage(skeleton)
        assert coverage == {"unit_tags": 2, "styled_unit_tags": 1,
                            "page_styled": True}


class TestCss:
    def test_unit_module_covers_declared_elements(self):
        sheet = unit_module("index", {"accent": "#123456"})
        assert ".index-row a" in sheet.rules
        assert sheet.rules[".index-row a"]["color"] == "#123456"

    def test_render_and_merge(self):
        sheet = CssStylesheet("x").set(".a", color="red", font_size="12px")
        other = CssStylesheet("y").set(".a", color="blue").set(".b", margin="0")
        sheet.merge(other)
        text = sheet.render()
        assert ".a { color: blue; font-size: 12px; }" in text
        assert ".b" in text

    def test_default_css_has_all_kinds(self):
        text = default_css()
        for marker in (".unit-data", ".index-rows", ".scroller-nav a",
                       ".entry-form button", ".hierarchy-level"):
            assert marker in text


class TestTemplateEngine:
    def test_static_markup_preserved(self, acm_app):
        from repro.services import GenericPageService
        from repro.presentation.jsp import RenderContext

        view = acm_app.model.find_site_view("public")
        page = view.find_page("Volumes")
        template = PageTemplate.from_xml(
            page.id,
            f"<html><body><p class='static'>hello</p>"
            f"<webml:indexUnit unit='{page.units[0].id}'/></body></html>",
        )
        result = GenericPageService(acm_app.ctx).compute_page(
            acm_app.registry.page(page.id), {}
        )
        html = template.render(RenderContext(result, acm_app.controller))
        assert "<p class=\"static\">hello</p>" in html
        assert "unit-index" in html

    def test_missing_bean_raises(self, acm_app):
        from repro.services.page_service import PageResult
        from repro.presentation.jsp import RenderContext

        template = PageTemplate.from_xml(
            "p", "<html><webml:dataUnit unit='ghost'/></html>"
        )
        with pytest.raises(TemplateRenderError, match="no unit bean"):
            template.render(
                RenderContext(PageResult("p", "P"), acm_app.controller)
            )

    def test_tag_without_unit_attr_raises(self, acm_app):
        from repro.services.page_service import PageResult
        from repro.presentation.jsp import RenderContext

        template = PageTemplate.from_xml("p", "<html><webml:dataUnit/></html>")
        with pytest.raises(TemplateRenderError, match="unit attribute"):
            template.render(
                RenderContext(PageResult("p", "P"), acm_app.controller)
            )

    def test_unknown_tag_raises(self, acm_app):
        from repro.services.page_service import PageResult
        from repro.presentation.jsp import RenderContext

        result = PageResult("p", "P")
        from repro.services import UnitBean

        result.beans["u"] = UnitBean("u", "U", "martian")
        template = PageTemplate.from_xml(
            "p", "<html><webml:martianUnit unit='u'/></html>"
        )
        with pytest.raises(TemplateRenderError, match="no renderer"):
            template.render(RenderContext(result, acm_app.controller))


class TestRenderedPages:
    def test_index_rows_render_anchors(self, styled_app):
        browser = Browser(styled_app)
        browser.get("/")
        assert browser.status == 200
        volume_links = [l for l in browser.links() if "oid=" in l]
        assert len(volume_links) == 2  # two volumes
        # plus the landmark navigation menu
        assert '<ul class="site-menu">' in browser.body
        assert "2002" in browser.body and "2003" in browser.body

    def test_master_detail_navigation(self, styled_app):
        browser = Browser(styled_app)
        browser.get("/")
        browser.click(next(l for l in browser.links() if "oid=" in l))
        assert "TODS Volume 27" in browser.body
        assert "hierarchy-level" in browser.body
        assert "Query Optimization Revisited" in browser.body

    def test_hierarchy_leaves_link_to_paper_page(self, styled_app, acm_oids):
        browser = Browser(styled_app)
        browser.get("/")
        browser.click(next(l for l in browser.links() if "oid=" in l))
        # paper 3 ("Data-Intensive Web Models") is the one with authors
        authored = acm_oids["papers"][2]
        paper_link = next(
            l for l in browser.links() if l.endswith(f".oid={authored}")
        )
        browser.get(paper_link)
        assert "unit-data" in browser.body
        assert "S. Ceri" in browser.body  # authors via transport link

    def test_entry_form_renders_with_target_params(self, styled_app):
        browser = Browser(styled_app)
        browser.get("/")
        browser.click(next(l for l in browser.links() if "oid=" in l))
        assert "<form" in browser.body
        assert "keyword" in browser.body

    def test_scroller_navigation(self, styled_app):
        url = styled_app.page_url("public", "Browse papers")
        browser = Browser(styled_app)
        browser.get(url)
        assert "block 1/2" in browser.body
        next_link = next(l for l in browser.links() if "block=2" in l)
        browser.get(next_link.replace("&amp;", "&"))
        assert "block 2/2" in browser.body

    def test_empty_unit_shows_placeholder(self, styled_app):
        url = styled_app.page_url("public", "Volume Page")  # no oid param
        browser = Browser(styled_app)
        browser.get(url)
        assert "No content" in browser.body


class TestDeviceAdaptation:
    def test_profile_matching(self):
        registry = DeviceRegistry()
        assert registry.profile_for("Mozilla/5.0").name == "html"
        assert registry.profile_for("Nokia7110/1.0 WAP").name == "wap"
        assert registry.profile_for("weird-agent").name == "html"

    def test_stylesheet_selection_with_fallback(self):
        registry = DeviceRegistry()
        html_sheet = default_stylesheet("X")
        registry.register_stylesheet(html_sheet)
        assert registry.stylesheet_for("Mozilla/5.0") is html_sheet
        # no wap sheet yet: falls back to html
        assert registry.stylesheet_for("Nokia WAP") is html_sheet
        wap = compact_device_stylesheet()
        registry.register_stylesheet(wap)
        assert registry.stylesheet_for("Nokia WAP") is wap

    def test_no_stylesheet_raises(self):
        registry = DeviceRegistry()
        with pytest.raises(PresentationError, match="no stylesheet"):
            registry.stylesheet_for("Mozilla/5.0")

    def test_runtime_mode_adapts_to_device(self):
        model = build_acm_webml()
        project = generate_project(model)
        registry = DeviceRegistry()
        registry.register_stylesheet(default_stylesheet("ACM"))
        registry.register_stylesheet(compact_device_stylesheet())
        renderer = PresentationRenderer(
            project.skeletons, mode="runtime", device_registry=registry
        )
        app = WebApplication(model, view_renderer=renderer)
        seed_acm(app)

        desktop = Browser(app, user_agent="Mozilla/5.0")
        desktop.get("/")
        assert '<table class="index-rows">' in desktop.body

        phone = Browser(app, user_agent="Nokia7110 WAP")
        phone.get("/")
        # the wap rule forces list rendition
        assert "<ul class=\"index-rows\">" in phone.body


class TestRendererModes:
    def test_compile_time_transforms_once(self):
        model = build_acm_webml()
        project = generate_project(model)
        renderer = PresentationRenderer(
            project.skeletons, default_stylesheet("ACM")
        )
        assert renderer.templates_compiled == len(project.skeletons)
        app = WebApplication(model, view_renderer=renderer)
        seed_acm(app)
        browser = Browser(app)
        browser.get("/")
        browser.get("/")
        assert renderer.runtime_transformations == 0

    def test_runtime_transforms_per_request(self):
        model = build_acm_webml()
        project = generate_project(model)
        renderer = PresentationRenderer(
            project.skeletons, default_stylesheet("ACM"), mode="runtime"
        )
        app = WebApplication(model, view_renderer=renderer)
        seed_acm(app)
        browser = Browser(app)
        browser.get("/")
        browser.get("/")
        assert renderer.runtime_transformations == 2

    def test_mode_validation(self):
        with pytest.raises(PresentationError, match="unknown presentation mode"):
            PresentationRenderer({}, default_stylesheet("X"), mode="psychic")
        with pytest.raises(PresentationError, match="needs a stylesheet"):
            PresentationRenderer({}, mode="compile-time")


class TestSiteMenu:
    """WebML landmark pages become the site view's navigation menu."""

    def test_menu_tag_in_skeleton(self):
        model = build_acm_webml()
        project = generate_project(model)
        view = model.find_site_view("public")
        volume_page = view.find_page("Volume Page")
        skeleton = project.skeletons[volume_page.id]
        assert "webml:siteMenu" in skeleton
        assert skeleton.count("<menuItem") == 2  # Volumes + Browse papers

    def test_menu_renders_with_current_highlight(self, styled_app):
        browser = Browser(styled_app)
        browser.get("/")
        assert '<ul class="site-menu">' in browser.body
        # the current page's entry carries the marker class
        assert 'class="current">Volumes</a>' in browser.body
        assert ">Browse papers</a>" in browser.body

    def test_menu_navigates(self, styled_app):
        browser = Browser(styled_app)
        browser.get("/")
        browser.click("Browse papers" if False else next(
            l for l in browser.links()
            if l.endswith(styled_app.model.find_site_view("public")
                          .find_page("Browse papers").id)
        ))
        assert "scroller-rows" in browser.body

    def test_menu_and_anchors_follow_a_mapping_swapped_twice(self):
        """The per-mappings memo holds the dict it rendered against.
        Two swaps without a render in between used to leave a *new*
        dict at the freed one's address — same ``id()``, other paths —
        and the slot served the menu of a mapping that no longer
        exists.  (Swapping by hand lets the test look for the reused
        address; through ``load_config`` meeting it takes luck.)"""
        import gc

        from repro.codegen import generate_controller_config
        from repro.mvc import Controller
        from repro.presentation.jsp import RenderContext
        from repro.services import UnitBean
        from repro.services.page_service import PageResult
        from repro.descriptors.page_descriptor import NavigationTarget

        model = build_acm_webml()
        config = generate_controller_config(model)
        page_id = model.find_site_view("public").find_page("Volumes").id
        template = PageTemplate.from_xml(
            "p",
            f"<html><webml:siteMenu><menuItem page='{page_id}' label='V'/>"
            "</webml:siteMenu><webml:indexUnit unit='u1'/></html>",
        )
        result = PageResult("p", "P", navigation=[NavigationTarget(
            "l1", "u1", "page", page_id, parameters=[("oid", "x.oid")],
        )])
        result.beans["u1"] = UnitBean("u1", "U", "index",
                                      rows=[{"oid": 1, "title": "A"}])
        controller = Controller.from_config(config)
        before = template.render(RenderContext(result, controller))
        assert "/moved/" not in before
        moved = Controller.from_config(
            config.replace('path="/', 'path="/moved/')
        ).mappings
        rendered_at = id(controller.mappings)
        controller.mappings = moved  # first swap frees the rendered dict …
        spares = [{**moved} for _ in range(200)] \
            + [dict(moved) for _ in range(200)]
        # … and the second installs whichever new dict got its address
        controller.mappings = next(
            (d for d in spares if id(d) == rendered_at), spares[0]
        )
        del spares
        gc.collect()
        after = template.render(RenderContext(result, controller))
        path = controller.path_of_page(page_id)
        assert path.startswith("/moved/")
        assert f'<a href="{path}">V</a>' in after
        assert f'<a href="{path}?x.oid=1">A</a>' in after

    def test_view_without_landmarks_has_no_menu(self, styled_app):
        browser = Browser(styled_app)
        browser.get(styled_app.operation_url("admin", "Login", {
            "username": "admin", "password": "secret",
        }))
        # admin has no landmark pages, so no menu markup (the CSS class
        # definition is still in the stylesheet text)
        assert '<ul class="site-menu">' not in browser.body

    def test_landmark_roundtrips_through_xml(self):
        from repro.webml import webml_from_xml, webml_to_xml
        from repro.workloads.acm import build_acm_data_model

        model = build_acm_webml()
        loaded = webml_from_xml(webml_to_xml(model), build_acm_data_model())
        view = loaded.find_site_view("public")
        assert [p.name for p in view.landmark_pages()] == \
            ["Volumes", "Browse papers"]


class TestCompiledTemplateOracle:
    """The compiled segment/slot program against the tree-walking
    renderer: byte-identical output on every workload page, with and
    without the fragment cache."""

    def _styled_app(self, build_model, seed, fragment_cache=None):
        model = build_model()
        for unit in model.all_units():
            if unit.kind != "entry":
                unit.cacheable = True
        project = generate_project(model)
        stylesheet = default_stylesheet("Oracle")
        if fragment_cache is not None:
            for rule in stylesheet.unit_rules:
                rule.set_attrs["fragment"] = "cache"
        renderer = PresentationRenderer(
            project.skeletons, stylesheet, fragment_cache=fragment_cache
        )
        app = WebApplication(model, view_renderer=renderer)
        seed(app)
        return app, renderer

    def _page_results(self, app):
        """Every page of every site view, each with an empty selection
        and — when the page has a data unit — a selected object."""
        from repro.services import GenericPageService

        service = GenericPageService(app.ctx)
        for view in app.model.site_views:
            for page in view.all_pages():
                descriptor = app.registry.page(page.id)
                param_sets = [{}]
                data_units = [u for u in page.units if u.kind == "data"]
                if data_units:
                    param_sets.append({f"{data_units[0].id}.oid": "1"})
                for params in param_sets:
                    yield page.id, service.compute_page(descriptor, params)

    def _assert_oracle(self, build_model, seed, fragment_cache):
        from repro.presentation.jsp import RenderContext

        app, renderer = self._styled_app(build_model, seed, fragment_cache)
        compared = 0
        # two passes: the second hits warm fragments (the splice path)
        for _ in range(2 if fragment_cache is not None else 1):
            for page_id, result in self._page_results(app):
                template = renderer.template_for(page_id)
                compiled = template.render(RenderContext(
                    result, app.controller, fragment_cache=fragment_cache
                ))
                oracle = template.render_tree(RenderContext(
                    result, app.controller, fragment_cache=fragment_cache
                ))
                assert compiled == oracle, f"divergence on page {page_id}"
                compared += 1
        assert compared >= 8

    def test_acm_pages_match_oracle(self):
        self._assert_oracle(build_acm_webml, seed_acm, None)

    def test_acm_pages_match_oracle_with_fragments(self):
        from repro.caching import FragmentCache

        self._assert_oracle(build_acm_webml, seed_acm, FragmentCache())

    def test_bookstore_pages_match_oracle(self):
        from repro.caching import FragmentCache
        from repro.workloads.bookstore import (
            build_bookstore_model,
            seed_bookstore,
        )

        self._assert_oracle(build_bookstore_model, seed_bookstore, None)
        self._assert_oracle(build_bookstore_model, seed_bookstore,
                            FragmentCache())

    def test_fragment_hit_render_never_parses_or_serializes(self, monkeypatch):
        """The compiled fast path: once fragments are warm, a full page
        render is pure string assembly — zero parse_xml / serialize."""
        import repro.presentation.jsp as jsp
        from repro.caching import FragmentCache
        from repro.presentation.jsp import RenderContext

        fragment_cache = FragmentCache()
        app, renderer = self._styled_app(build_acm_webml, seed_acm,
                                         fragment_cache)
        browser = Browser(app)
        browser.get("/")  # warm: fragments stored, menu memoized
        warm_body = browser.body

        calls = {"serialize": 0, "parse_xml": 0}
        real_serialize, real_parse = jsp.serialize, jsp.parse_xml

        def counting_serialize(*args, **kwargs):
            calls["serialize"] += 1
            return real_serialize(*args, **kwargs)

        def counting_parse(*args, **kwargs):
            calls["parse_xml"] += 1
            return real_parse(*args, **kwargs)

        monkeypatch.setattr(jsp, "serialize", counting_serialize)
        monkeypatch.setattr(jsp, "parse_xml", counting_parse)
        assert browser.get("/").body == warm_body
        assert calls == {"serialize": 0, "parse_xml": 0}


    def test_cold_render_builds_no_tree(self, monkeypatch):
        """No cache level at all: a Volume Page still renders without
        constructing one ``Element`` or calling ``serialize`` — the
        unit tags write markup (the menu is memoised per mapping)."""
        import repro.presentation.jsp as jsp
        from repro.xmlkit import Element

        app, _renderer = self._styled_app(build_acm_webml, seed_acm)
        view = app.model.find_site_view("public")
        page = view.find_page("Volume Page")
        url = app.page_url("public", "Volume Page", {
            f"{page.unit('Volume data').id}.oid": "1",
        })
        browser = Browser(app)
        first_body = browser.get(url).body
        assert "hierarchy-level" in first_body and "unit-links" in first_body

        built = {"Element": 0, "serialize": 0}
        real_init, real_serialize = Element.__init__, jsp.serialize

        def counting_init(self, *args, **kwargs):
            built["Element"] += 1
            real_init(self, *args, **kwargs)

        def counting_serialize(*args, **kwargs):
            built["serialize"] += 1
            return real_serialize(*args, **kwargs)

        monkeypatch.setattr(Element, "__init__", counting_init)
        monkeypatch.setattr(jsp, "serialize", counting_serialize)
        assert browser.get(url).body == first_body
        assert built == {"Element": 0, "serialize": 0}

    def test_every_page_body_matches_the_committed_digests(self):
        """``tests/golden/page_digests.json`` was written by
        ``tools/page_digests.py`` at the commit before the tags became
        writers: every ACM / bookstore / Acer page, with and without a
        fragment cache, is still the same bytes."""
        import importlib.util
        import json
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        spec = importlib.util.spec_from_file_location(
            "page_digests", root / "tools" / "page_digests.py"
        )
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        golden = json.loads(
            (root / "tests" / "golden" / "page_digests.json").read_text()
        )
        assert tool.first_difference(golden, tool.page_digests()) is None


class TestFragmentCachingInTemplates:
    """Direct template-level checks of the §6 fragment path."""

    def _render_twice(self, bean_rows):
        from repro.services import UnitBean

        return self._render_each(
            "<webml:indexUnit unit='u1' fragment='cache'/>",
            [UnitBean("u1", "U", "index", rows=rows) for rows in bean_rows],
        )

    def test_identical_beans_hit_the_fragment(self):
        rows = [{"oid": 1, "title": "A"}]
        outputs, cache = self._render_twice([rows, rows])
        assert outputs[0] == outputs[1]
        assert cache.stats.hits == 1
        assert cache.stats.puts == 1

    def test_changed_bean_misses_and_rerenders(self):
        outputs, cache = self._render_twice([
            [{"oid": 1, "title": "A"}],
            [{"oid": 1, "title": "B"}],  # different content → new digest
        ])
        assert outputs[0] != outputs[1]
        assert cache.stats.hits == 0
        assert cache.stats.puts == 2
        assert "B" in outputs[1]

    def _render_each(self, tag_xml, beans, urls=None):
        """Render one cached tag once per bean (and request URL)
        against a shared fragment cache; the page is ACM's Volumes."""
        from repro.caching import FragmentCache
        from repro.presentation.jsp import PageTemplate, RenderContext
        from repro.services.page_service import PageResult
        from repro.mvc import Controller, HttpRequest
        from repro.codegen import generate_controller_config

        model = build_acm_webml()
        controller = Controller.from_config(generate_controller_config(model))
        page_id = model.find_site_view("public").find_page("Volumes").id
        template = PageTemplate.from_xml(
            page_id, f"<html><body>{tag_xml}</body></html>"
        )
        cache = FragmentCache()
        outputs = []
        for position, bean in enumerate(beans):
            result = PageResult(page_id, "Volumes")
            result.beans[bean.unit_id] = bean
            request = HttpRequest.from_url(urls[position]) if urls else None
            outputs.append(template.render(RenderContext(
                result, controller, request, fragment_cache=cache
            )))
        return outputs, cache

    def test_fragment_key_covers_the_chosen_oids(self):
        """Same rows, different ``outputs["oids"]``: the second request
        must not be served the first one's ticked boxes."""
        from repro.services import UnitBean

        rows = [{"oid": 1, "title": "A"}, {"oid": 2, "title": "B"}]
        outputs, cache = self._render_each(
            "<webml:multichoiceUnit unit='u1' fragment='cache'/>",
            [UnitBean("u1", "U", "multichoice", rows=rows,
                      outputs={"oids": chosen}) for chosen in ([1], [2])],
        )
        assert 'value="1" checked="checked"' in outputs[0]
        assert 'value="2" checked="checked"' in outputs[1]
        assert 'value="1" checked="checked"' not in outputs[1]
        assert cache.stats.hits == 0

    def test_fragment_key_covers_the_block_count(self):
        """Equal block rows, a different number of blocks: the position
        label and the last-block link follow the bean."""
        from repro.services import UnitBean

        rows = [{"oid": 1, "title": "A"}]
        outputs, cache = self._render_each(
            "<webml:scrollerUnit unit='u1' fragment='cache'/>",
            [UnitBean("u1", "U", "scroller", rows=rows, block=1,
                      block_count=count) for count in (5, 9)],
        )
        assert "block 1/5" in outputs[0]
        assert "block 1/9" in outputs[1]
        assert cache.stats.hits == 0

    def test_fragment_key_covers_the_scrollers_request_parameters(self):
        """The scroller's links carry the *request's* parameters, so a
        fragment built for one request is not another request's."""
        from repro.services import UnitBean

        bean = UnitBean("u1", "U", "scroller",
                        rows=[{"oid": 1, "title": "A"}], block=1,
                        block_count=3)
        outputs, cache = self._render_each(
            "<webml:scrollerUnit unit='u1' fragment='cache'/>",
            [bean, bean, bean],
            urls=["/x?other.keyword=first", "/x?other.keyword=second",
                  "/x?other.keyword=first"],
        )
        assert "other.keyword=first" in outputs[0]
        assert "other.keyword=second" in outputs[1]
        assert "other.keyword=first" not in outputs[1]
        assert outputs[2] == outputs[0]
        assert cache.stats.hits == 1  # the third request, not the second

    def test_untagged_unit_bypasses_cache(self):
        from repro.caching import FragmentCache
        from repro.presentation.jsp import PageTemplate, RenderContext
        from repro.services import UnitBean
        from repro.services.page_service import PageResult
        from repro.mvc import Controller
        from repro.codegen import generate_controller_config

        model = build_acm_webml()
        controller = Controller.from_config(generate_controller_config(model))
        template = PageTemplate.from_xml(
            "p", "<html><webml:indexUnit unit='u1'/></html>"
        )
        cache = FragmentCache()
        result = PageResult("p", "P")
        result.beans["u1"] = UnitBean("u1", "U", "index",
                                      rows=[{"oid": 1, "title": "A"}])
        template.render(RenderContext(result, controller,
                                      fragment_cache=cache))
        assert cache.stats.lookups == 0 and cache.stats.puts == 0
