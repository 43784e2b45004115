"""Integration tests for the application facade, the Figure 6 container
deployment, model-level plug-in units, and generic-vs-conventional
serving equivalence through the full dispatcher."""

import pytest

from repro.app import Browser, WebApplication
from repro.appserver import ComponentContainer, deploy_business_tier
from repro.appserver.integration import OPERATION_COMPONENT, PAGE_COMPONENT
from repro.errors import WebMLError
from repro.services.plugins import PluginUnit, plugin_registry
from repro.util import VirtualClock

from tests.conftest import build_acm_webml, seed_acm


class TestWebApplicationFacade:
    def test_schema_installed_in_dependency_order(self, acm_app):
        # bridge table exists and is usable immediately
        assert "authorship" in acm_app.database.table_names()

    def test_seed_rejects_non_fk_role(self, acm_app):
        with pytest.raises(ValueError, match="connect_instances"):
            acm_app.seed_entity("Paper", [{"title": "x", "Authorship": 1}])

    def test_connect_instances_bridge_inverse(self, acm_app, acm_oids):
        # AuthorOf runs Author→Paper; connecting through the inverse role
        # must land in the same bridge columns.
        acm_app.connect_instances("AuthorOf", acm_oids["authors"][0],
                                  acm_oids["papers"][0])
        row = acm_app.database.query(
            "SELECT paper_oid, author_oid FROM authorship"
            " WHERE paper_oid = :p",
            {"p": acm_oids["papers"][0]},
        ).first()
        assert row == {"paper_oid": acm_oids["papers"][0],
                       "author_oid": acm_oids["authors"][0]}

    def test_connect_instances_fk(self, acm_app, acm_oids):
        [fresh_issue] = acm_app.seed_entity("Issue", [{"number": 9}])
        acm_app.connect_instances("VolumeToIssue", acm_oids["volumes"][1],
                                  fresh_issue)
        volume = acm_app.database.query(
            "SELECT volume_to_issue_oid AS v FROM issue WHERE oid = :i",
            {"i": fresh_issue},
        ).scalar()
        assert volume == acm_oids["volumes"][1]

    def test_page_and_operation_url_helpers(self, acm_app):
        url = acm_app.page_url("public", "Volumes")
        assert acm_app.get(url).status == 200
        login_url = acm_app.operation_url(
            "admin", "Login", {"username": "admin", "password": "secret"}
        )
        assert "username" in login_url and login_url.startswith("/do/")

    def test_existing_database_reused(self, acm_webml):
        from repro.rdb import Database

        shared = Database(name="shared")
        first = WebApplication(acm_webml, database=shared)
        # a second deployment over the same database must not recreate DDL
        second_model = build_acm_webml()
        second = WebApplication(second_model, database=shared)
        assert first.database is second.database


class TestBusinessTierDeployment:
    """§4 Figure 6: the app served through the component container."""

    def _deployed(self):
        app = WebApplication(build_acm_webml())
        seed_acm(app)
        clock = VirtualClock()
        container = deploy_business_tier(
            app, ComponentContainer(clock=clock),
            min_instances=0, max_instances=8, idle_timeout=30.0,
        )
        return app, container, clock

    def test_pages_served_through_container(self):
        app, container, _clock = self._deployed()
        browser = Browser(app)
        assert browser.get("/").status == 200
        assert container.invocations >= 1
        assert container.resident_instances(PAGE_COMPONENT) == 1

    def test_operations_served_through_container(self):
        app, container, _clock = self._deployed()
        browser = Browser(app)
        browser.get(app.operation_url("admin", "Login", {
            "username": "admin", "password": "secret",
        }))
        browser.get(app.operation_url("admin", "CreatePaper", {
            "title": "Via EJB", "pages": "3",
        }))
        assert container.resident_instances(OPERATION_COMPONENT) == 1
        assert app.database.query(
            "SELECT COUNT(*) AS n FROM paper WHERE title = 'Via EJB'"
        ).scalar() == 1

    def test_container_passivates_after_idle(self):
        app, container, clock = self._deployed()
        Browser(app).get("/")
        assert container.resident_instances() >= 1
        clock.advance(60)
        container.sweep()
        assert container.resident_instances() == 0

    def test_non_web_client_shares_components(self):
        app, container, _clock = self._deployed()
        Browser(app).get("/")  # web traffic created the pooled instance
        view = app.model.find_site_view("public")
        page = view.find_page("Volumes")
        descriptor = app.registry.page(page.id)
        # a batch job calls the same business component directly
        result = container.invoke(PAGE_COMPONENT, "compute_page",
                                  descriptor, {})
        assert result.bean_named("All volumes").rows
        assert container.pool_stats(PAGE_COMPONENT)["created_total"] == 1


class _CounterService:
    kind = "counter"

    def compute(self, descriptor, inputs, ctx):
        from repro.services import UnitBean

        bean = UnitBean(descriptor.unit_id, descriptor.name, "counter")
        total = ctx.query(
            "SELECT COUNT(*) AS n FROM paper", {}
        ).scalar()
        bean.current = {"count": total}
        bean.outputs = {"count": total}
        return bean


class _CounterTag:
    def render(self, bean, tag, context):
        from repro.xmlkit import Element

        box = Element("div", {"class": "unit unit-counter",
                              "id": bean.unit_id})
        box.add("span", text=str(bean.current["count"]))
        return box


class TestPluginUnitsEndToEnd:
    """§7: a plug-in kind flows through model → codegen → runtime → view."""

    def _register(self):
        return plugin_registry.register(PluginUnit(
            kind="counter",
            tag_name="webml:counterUnit",
            service=_CounterService(),
            renderer=_CounterTag(),
        ))

    def test_full_pipeline(self):
        self._register()
        try:
            model = build_acm_webml()
            page = model.find_site_view("public").find_page("Volumes")
            plugin_unit = page.plugin_unit("Paper counter", "counter",
                                           extra_outputs=["count"])
            model.validate()

            from repro.codegen import generate_project
            from repro.presentation import PresentationRenderer
            from repro.presentation.renderer import default_stylesheet
            from repro.presentation.xslt import UnitRule

            project = generate_project(model)
            assert f'<webml:counterUnit unit="{plugin_unit.id}"' \
                in project.skeletons[page.id]

            stylesheet = default_stylesheet("ACM")
            stylesheet.unit_rules.append(
                UnitRule(pattern="webml:counterUnit",
                         set_attrs={"class": "counter-box"})
            )
            renderer = PresentationRenderer(project.skeletons, stylesheet)
            app = WebApplication(model, view_renderer=renderer)
            seed_acm(app)
            browser = Browser(app)
            browser.get("/")
            assert "unit-counter" in browser.body
            assert "<span>4</span>" in browser.body
        finally:
            plugin_registry.unregister("counter")

    def test_unregistered_kind_rejected_at_model_time(self):
        model = build_acm_webml()
        page = model.find_site_view("public").find_page("Volumes")
        with pytest.raises(WebMLError, match="no plug-in registered"):
            page.plugin_unit("Ghost", "martian")

    def test_entity_less_plugin_passes_validation(self):
        self._register()
        try:
            model = build_acm_webml()
            page = model.find_site_view("public").find_page("Volumes")
            page.plugin_unit("Paper counter", "counter")
            model.validate()
        finally:
            plugin_registry.unregister("counter")

    def test_custom_descriptor_builder_used(self):
        from repro.descriptors import UnitDescriptor

        def builder(unit, mapping):
            return UnitDescriptor(unit_id=unit.id, name=unit.name,
                                  kind=unit.kind, custom_service="special")

        plugin_registry.register(PluginUnit(
            kind="counter", tag_name="webml:counterUnit",
            service=_CounterService(), descriptor_builder=builder,
        ))
        try:
            from repro.codegen import generate_unit_descriptor
            from repro.er.mapping import map_to_relational

            model = build_acm_webml()
            page = model.find_site_view("public").find_page("Volumes")
            unit = page.plugin_unit("Paper counter", "counter")
            descriptor = generate_unit_descriptor(
                unit, map_to_relational(model.data_model)
            )
            assert descriptor.custom_service == "special"
        finally:
            plugin_registry.unregister("counter")


class TestConventionalServingEquivalence:
    """E9's correctness half, through the whole dispatcher: a front
    controller backed by dedicated classes serves byte-identical pages."""

    def test_identical_html(self):
        from repro.codegen import generate_conventional, generate_project
        from repro.presentation import PresentationRenderer
        from repro.presentation.renderer import default_stylesheet

        model = build_acm_webml()
        project = generate_project(model)
        renderer = PresentationRenderer(project.skeletons,
                                        default_stylesheet("ACM"))
        app = WebApplication(model, view_renderer=renderer)
        seed_acm(app)
        conventional = generate_conventional(
            model, app.project.mapping, validate=False
        ).instantiate()

        view = model.find_site_view("public")
        page = view.find_page("Volume Page")
        volume_data = page.unit("Volume data")
        params = {f"{volume_data.id}.oid": "1"}

        generic_html = Browser(app).get(
            app.page_url("public", "Volume Page", params)
        ).body

        # render the conventional runtime's result through the same view
        from repro.presentation.jsp import RenderContext

        page_result = conventional.compute_page(page.id, app.ctx, params)
        page_result.navigation = list(
            app.registry.page(page.id).navigation
        )
        template = renderer.template_for(page.id)
        from repro.mvc.http import HttpRequest

        request = HttpRequest.from_url(
            app.page_url("public", "Volume Page", params)
        )
        conventional_html = template.render(
            RenderContext(page_result, app.controller, request)
        )
        assert conventional_html == generic_html


class TestSessionPersonalization:
    """§1: 'session-level information and personalization aspects' — a
    data unit keyed on the session's logged-in user."""

    def _personalized_app(self):
        from repro.webml import Selector

        model = build_acm_webml()
        admin = model.find_site_view("admin")
        profile = admin.page("My profile")
        profile.data_unit(
            "Current user", "User",
            display_attributes=["username"],
            selector=Selector.by_key("session.user"),
        )
        model.validate()  # session.* inputs are exempt from link feeding
        app = WebApplication(model)
        seed_acm(app)
        return app

    def test_descriptor_binds_session_param(self):
        app = self._personalized_app()
        admin = app.model.find_site_view("admin")
        profile = admin.find_page("My profile")
        unit = profile.unit("Current user")
        descriptor = app.registry.page(profile.id)
        binding = descriptor.bindings_for(unit.id)[0]
        assert binding.request_param == "session.user"
        unit_descriptor = app.registry.unit(unit.id)
        assert ":session_user" in unit_descriptor.query
        assert unit_descriptor.inputs[0].slot == "session.user"
        assert unit_descriptor.inputs[0].sql_param == "session_user"

    def test_profile_shows_logged_in_user(self):
        app = self._personalized_app()
        browser = Browser(app)
        browser.get(app.operation_url("admin", "Login", {
            "username": "admin", "password": "secret",
        }))
        response = browser.get(app.page_url("admin", "My profile"))
        assert response.status == 200
        assert "1 row(s)" in response.body  # the user's data unit filled

    def test_profile_empty_for_other_session(self):
        app = self._personalized_app()
        logged_in = Browser(app)
        logged_in.get(app.operation_url("admin", "Login", {
            "username": "admin", "password": "secret",
        }))
        # a *different* session is still locked out of the view entirely
        stranger = Browser(app)
        assert stranger.get(app.page_url("admin", "My profile")).status == 403


class TestErrorHandling:
    def test_internal_error_becomes_500(self, acm_app):
        # sabotage a deployed descriptor so page computation explodes
        view = acm_app.model.find_site_view("public")
        page = view.find_page("Volumes")
        unit = page.units[0]
        descriptor = acm_app.registry.unit(unit.id)
        descriptor.query = "SELECT ghost FROM volume ORDER BY oid"
        response = acm_app.get(acm_app.page_url("public", "Volumes"))
        assert response.status == 500
        assert "Internal error" in response.body

    def test_missing_page_descriptor_becomes_500(self, acm_app):
        view = acm_app.model.find_site_view("public")
        page = view.find_page("Volumes")
        del acm_app.registry.pages[page.id]
        response = acm_app.get(acm_app.page_url("public", "Volumes"))
        assert response.status == 500


class TestBrowserForms:
    def _styled(self):
        from repro.codegen import generate_project
        from repro.presentation import PresentationRenderer
        from repro.presentation.renderer import default_stylesheet

        model = build_acm_webml()
        project = generate_project(model)
        renderer = PresentationRenderer(project.skeletons,
                                        default_stylesheet("ACM"))
        app = WebApplication(model, view_renderer=renderer)
        seed_acm(app)
        return app

    def test_forms_parsed_from_markup(self):
        app = self._styled()
        browser = Browser(app)
        view = app.model.find_site_view("public")
        volume_data = view.find_page("Volume Page").unit("Volume data")
        browser.get(app.page_url("public", "Volume Page",
                                 {f"{volume_data.id}.oid": 1}))
        forms = browser.forms()
        assert len(forms) == 1
        assert any(name.endswith(".keyword") for name in forms[0]["fields"])

    def test_submit_search_form(self):
        app = self._styled()
        browser = Browser(app)
        view = app.model.find_site_view("public")
        volume_data = view.find_page("Volume Page").unit("Volume data")
        browser.get(app.page_url("public", "Volume Page",
                                 {f"{volume_data.id}.oid": 1}))
        response = browser.submit({"keyword": "Web"})
        assert response.status == 200
        assert "Indexing the Web" in response.body

    def test_submit_unknown_field_rejected(self):
        app = self._styled()
        browser = Browser(app)
        view = app.model.find_site_view("public")
        volume_data = view.find_page("Volume Page").unit("Volume data")
        browser.get(app.page_url("public", "Volume Page",
                                 {f"{volume_data.id}.oid": 1}))
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="no field matching"):
            browser.submit({"nonsense": "x"})

    def test_login_via_rendered_form(self):
        app = self._styled()
        browser = Browser(app)
        browser.get(app.page_url("admin", "Login"))
        assert browser.status == 200  # login pages are public
        response = browser.submit({"username": "admin", "password": "secret"})
        assert response.status == 200
        assert "Admin Home" in response.body


class TestArtifactExport:
    def test_export_writes_project_layout(self, acm_app, tmp_path):
        written = acm_app.export_files(str(tmp_path))
        assert "sql/schema.sql" in written
        assert "conf/controller-config.xml" in written
        assert any(p.startswith("descriptors/units/") for p in written)
        assert any(p.startswith("skeletons/") for p in written)
        # the files are real and re-loadable
        from repro.descriptors import UnitDescriptor

        unit_file = next(p for p in written
                         if p.startswith("descriptors/units/"))
        with open(tmp_path / unit_file) as handle:
            descriptor = UnitDescriptor.from_xml(handle.read())
        assert descriptor.unit_id in unit_file

    def test_exported_ddl_rebuilds_schema(self, acm_app, tmp_path):
        from repro.rdb import Database

        acm_app.export_files(str(tmp_path))
        ddl = (tmp_path / "sql" / "schema.sql").read_text()
        fresh = Database()
        for statement in filter(None,
                                (s.strip() for s in ddl.split(";"))):
            fresh.execute(statement)
        assert set(fresh.table_names()) == set(acm_app.database.table_names())

    def test_exported_ddl_carries_every_index_the_runtime_builds(
            self, acm_app, tmp_path):
        """The exported schema used to stop at CREATE TABLE: replaying
        it built none of the indexes deploy does."""
        from repro.rdb import Database

        acm_app.export_files(str(tmp_path))
        ddl = (tmp_path / "sql" / "schema.sql").read_text()
        fresh = Database()
        for statement in filter(None,
                                (s.strip() for s in ddl.split(";"))):
            fresh.execute(statement)

        def indexes(db):
            return {
                table: sorted((name, index.columns, index.unique)
                              for name, index in db.table(table).iter_indexes())
                for table in db.table_names()
            }

        assert indexes(fresh) == indexes(acm_app.database)
        assert ddl.count("CREATE INDEX") == 5  # 3 FK + 2 model-derived
        # ... and each derived index says which unit asked for it
        scroller = acm_app.model.find_site_view("public") \
            .find_page("Browse papers").unit("Paper scroller")
        assert (f"-- for {scroller.id} (order_by)\n"
                "CREATE INDEX ix_paper_title ON paper (title);") in ddl


class TestBrowserHistory:
    def test_back_revisits_previous_page(self, acm_app):
        browser = Browser(acm_app)
        browser.get("/")
        first_body = browser.body
        browser.get(acm_app.page_url("public", "Browse papers"))
        response = browser.back()
        assert response.status == 200
        assert response.body == first_body

    def test_back_without_history_rejected(self, acm_app):
        from repro.errors import ReproError

        browser = Browser(acm_app)
        with pytest.raises(ReproError, match="no earlier page"):
            browser.back()


class TestDispatcherEdges:
    def test_root_with_no_site_views(self):
        from repro.descriptors import DescriptorRegistry
        from repro.mvc import Controller, FrontController, HttpRequest
        from repro.rdb import Database
        from repro.services import RuntimeContext

        controller = Controller.from_config(
            "<controllerConfig><actionMappings/></controllerConfig>"
        )
        ctx = RuntimeContext(Database(), DescriptorRegistry())
        front = FrontController(controller, ctx)
        assert front.handle(HttpRequest(path="/")).status == 404

    def test_unknown_site_view_home_404(self, acm_app):
        assert acm_app.get("/sv999").status == 404

    def test_deep_unknown_path_404(self, acm_app):
        assert acm_app.get("/a/b/c").status == 404
