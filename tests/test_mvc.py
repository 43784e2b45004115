"""Tests for the MVC web tier: HTTP objects, the controller, the front
controller's routing, operation redirects and chains, and login
enforcement — all against the generated configuration."""

import pytest

from repro.errors import ControllerError
from repro.mvc import Controller, HttpRequest, HttpResponse, Session, SessionStore
from repro.mvc.http import build_url
from repro.app import Browser

from tests.conftest import build_acm_webml, seed_acm


class TestHttpObjects:
    def test_from_url_parses_query(self):
        request = HttpRequest.from_url("/sv1/page2?unit2.oid=5&x=a%20b")
        assert request.path == "/sv1/page2"
        assert request.params == {"unit2.oid": "5", "x": "a b"}

    def test_build_url_roundtrip(self):
        url = build_url("/p", {"a": "1", "b": "x y"})
        request = HttpRequest.from_url(url)
        assert request.params == {"a": "1", "b": "x y"}

    def test_build_url_skips_none(self):
        assert build_url("/p", {"a": None}) == "/p"

    def test_build_url_expands_list_params(self):
        """A multi-select (checkbox group) must emit one pair per value,
        not a stringified Python list."""
        url = build_url("/do/op5", {"op5.oid": ["1", "2"], "b": "x"})
        assert url == "/do/op5?op5.oid=1&op5.oid=2&b=x"
        request = HttpRequest.from_url(url)
        assert request.params == {"op5.oid": ["1", "2"], "b": "x"}

    def test_response_redirect(self):
        response = HttpResponse.redirect("/elsewhere")
        assert response.is_redirect
        assert response.location == "/elsewhere"

    def test_all_redirect_statuses_recognized(self):
        for status in (301, 302, 303, 307, 308):
            response = HttpResponse(status=status,
                                    headers={"Location": "/x"})
            assert response.is_redirect, status
        for status in (200, 304, 404):
            assert not HttpResponse(status=status).is_redirect

    def test_session_lifecycle(self):
        session = Session("s1")
        assert not session.is_authenticated
        session.login(7, "admin")
        session.set("cart", [1, 2])
        assert session.is_authenticated
        session.logout()
        assert not session.is_authenticated
        assert session.get("cart") is None

    def test_session_store_reuses(self):
        store = SessionStore()
        first = store.get_or_create(None)
        again = store.get_or_create(first.id)
        assert again is first
        other = store.get_or_create(None)
        assert other.id != first.id
        store.invalidate(first.id)
        replacement = store.get_or_create(first.id)
        assert replacement is not first


class TestController:
    def test_loads_generated_config(self, acm_app):
        controller = acm_app.controller
        view = acm_app.model.find_site_view("public")
        page = view.find_page("Volumes")
        mapping = controller.resolve(f"/{view.id}/{page.id}")
        assert mapping.action_type == "PageAction"
        assert mapping.page_id == page.id

    def test_unknown_path_raises(self, acm_app):
        with pytest.raises(ControllerError, match="no action mapping"):
            acm_app.controller.resolve("/nope")

    def test_home_for(self, acm_app):
        view = acm_app.model.find_site_view("admin")
        home = acm_app.controller.home_for(view.id)
        assert home.requires_login

    def test_reload_config_swaps_atomically(self, acm_app):
        """§7: re-link the model, regenerate, reload — nothing else changes."""
        from repro.codegen import generate_controller_config

        model = acm_app.model
        view = model.find_site_view("public")
        volumes = view.find_page("Volumes")
        search = view.find_page("SearchResults")
        matching = search.unit("Matching papers")
        # Re-link: search results now also link back to the volume list.
        model.link(matching, volumes, label="back to volumes")
        acm_app.controller.load_config(generate_controller_config(model))
        assert acm_app.controller.resolve(f"/{view.id}/{volumes.id}")

    def test_wrong_config_root_rejected(self):
        with pytest.raises(ControllerError, match="expected <controllerConfig>"):
            Controller.from_config("<web/>")

    def test_duplicate_path_rejected(self):
        config = (
            "<controllerConfig><actionMappings>"
            "<action path='/a' type='PageAction' siteview='sv1' page='p1'/>"
            "<action path='/a' type='PageAction' siteview='sv1' page='p2'/>"
            "</actionMappings></controllerConfig>"
        )
        with pytest.raises(ControllerError, match="duplicate action path"):
            Controller.from_config(config)

    _TWO_PATHS = (
        "<controllerConfig><actionMappings>"
        "<action path='/do/p1' type='OperationAction' siteview='sv1'"
        " operation='p1'/>"
        "<action path='/first' type='PageAction' siteview='sv1' page='p1'/>"
        "<action path='/second' type='PageAction' siteview='sv1' page='p1'/>"
        "</actionMappings></controllerConfig>"
    )

    def test_path_of_page_first_mapping_wins(self):
        controller = Controller.from_config(self._TWO_PATHS)
        assert controller.path_of_page("p1") == "/first"
        with pytest.raises(ControllerError, match="no mapping serves page"):
            controller.path_of_page("ghost")

    def test_path_of_page_follows_hand_edits_and_reloads(self):
        """The page → path index is only a shortcut: the live mapping
        dict stays the truth."""
        from repro.mvc.controller import ActionMapping

        controller = Controller.from_config(self._TWO_PATHS)
        controller.mappings["/byhand"] = ActionMapping(
            path="/byhand", action_type="PageAction", site_view_id="sv1",
            page_id="p9",
        )
        assert controller.path_of_page("p9") == "/byhand"
        del controller.mappings["/first"]
        assert controller.path_of_page("p1") == "/second"
        controller.load_config(self._TWO_PATHS.replace("/first", "/moved"))
        assert controller.path_of_page("p1") == "/moved"
        with pytest.raises(ControllerError, match="no mapping serves page"):
            controller.path_of_page("p9")


class TestFrontController:
    def test_root_redirects_to_first_home(self, acm_app):
        response = acm_app.get("/")
        assert response.is_redirect
        view = acm_app.model.find_site_view("public")
        assert response.location == f"/{view.id}/{view.home_page_id}"

    def test_site_view_path_redirects_home(self, acm_app):
        view = acm_app.model.find_site_view("public")
        response = acm_app.get(f"/{view.id}")
        assert response.is_redirect

    def test_unknown_path_404(self, acm_app):
        assert acm_app.get("/ghost/path").status == 404

    def test_page_renders(self, acm_app):
        response = Browser(acm_app).get("/")
        assert response.status == 200
        assert "Volumes" in response.body

    def test_session_persists_across_requests(self, acm_app):
        browser = Browser(acm_app)
        browser.get("/")
        first_session = browser.session_id
        browser.get("/")
        assert browser.session_id == first_session

    def test_protected_site_view_forbidden_without_login(self, acm_app):
        view = acm_app.model.find_site_view("admin")
        page = view.find_page("Admin Home")
        response = acm_app.get(f"/{view.id}/{page.id}")
        assert response.status == 403

    def test_login_flow_unlocks_admin(self, acm_app):
        browser = Browser(acm_app)
        login_url = acm_app.operation_url(
            "admin", "Login", {"username": "admin", "password": "secret"}
        )
        response = browser.get(login_url)
        assert response.status == 200
        assert "Admin Home" in response.body
        # now the protected pages serve directly
        response = browser.get(acm_app.page_url("admin", "Admin Home"))
        assert response.status == 200

    def test_failed_login_redirects_to_ko_with_message(self, acm_app):
        browser = Browser(acm_app)
        login_url = acm_app.operation_url(
            "admin", "Login", {"username": "admin", "password": "nope"}
        )
        response = browser.get(login_url, follow_redirects=False)
        assert response.is_redirect
        assert "_message=" in response.location
        final = browser.get(login_url)  # follow the KO redirect
        assert final.status == 200
        assert "Login" in final.body

    def test_operation_redirects_to_ok_page(self, acm_app):
        browser = Browser(acm_app)
        browser.get(acm_app.operation_url(
            "admin", "Login", {"username": "admin", "password": "secret"}
        ))
        create_url = acm_app.operation_url(
            "admin", "CreatePaper", {"title": "Chained", "pages": "10"}
        )
        response = browser.get(create_url, follow_redirects=False)
        assert response.is_redirect
        view = acm_app.model.find_site_view("admin")
        assert f"/{view.id}/" in response.location
        assert acm_app.database.query(
            "SELECT COUNT(*) AS n FROM paper WHERE title = 'Chained'"
        ).scalar() == 1

    def test_operation_chain_create_then_connect(self, acm_app, acm_oids):
        """An OK→operation chain: create an issue, then connect it to a
        volume, then land on the volume page."""
        from repro.webml import LinkKind
        from repro.codegen import generate_project

        model = acm_app.model
        admin = model.find_site_view("admin")
        volume_page = model.find_site_view("public").find_page("Volume Page")
        create_issue = admin.create_op("CreateIssue", "Issue",
                                       ["number", "month"])
        attach = admin.connect_op("AttachIssue", "VolumeToIssue")
        model.link(create_issue, attach, kind=LinkKind.OK,
                   params=[("oid", "target_oid")])
        model.link(create_issue, volume_page, kind=LinkKind.KO)
        model.link(attach, volume_page, kind=LinkKind.OK)
        model.link(attach, volume_page, kind=LinkKind.KO)

        # regenerate + redeploy (the §7 cycle)
        project = generate_project(model, validate=False)
        project.deploy(acm_app.registry)
        acm_app.controller.load_config(project.controller_config)

        volume_oid = acm_oids["volumes"][1]
        browser = Browser(acm_app)
        browser.get(acm_app.operation_url(
            "admin", "Login", {"username": "admin", "password": "secret"}
        ))
        url = acm_app.operation_url("admin", "CreateIssue", {
            "number": "2", "month": "June",
        })
        # the connect operation needs the volume: request-scoped input
        url += f"&{attach.id}.source_oid={volume_oid}"
        response = browser.get(url)
        assert response.status == 200
        connected = acm_app.database.query(
            "SELECT COUNT(*) AS n FROM issue WHERE volume_to_issue_oid = :v"
            " AND month = 'June' AND number = 2",
            {"v": volume_oid},
        ).scalar()
        assert connected == 1

    def test_browser_click_follows_rendered_links(self, acm_app):
        browser = Browser(acm_app)
        browser.get("/")
        # the plain renderer has no anchors; use the real page URL flow
        assert browser.status == 200

    def test_requests_counted(self, acm_app):
        browser = Browser(acm_app)
        browser.get("/")
        assert acm_app.front.requests_served >= 2  # redirect + page


class _PermanentlyMovedApp:
    """A stub application whose entry path answers with a configurable
    redirect status — the flavours a reverse proxy or a renamed site
    view produce."""

    def __init__(self, status: int):
        self.status = status

    def handle(self, request):
        if request.path == "/start":
            return HttpResponse(status=self.status,
                                headers={"Location": "/final"})
        return HttpResponse(status=200, body=f"arrived via {self.status}")


class TestBrowserRedirectFollowing:
    @pytest.mark.parametrize("status", [301, 307, 308])
    def test_follows_every_redirect_flavour(self, status):
        browser = Browser(_PermanentlyMovedApp(status))
        response = browser.get("/start")
        assert response.status == 200
        assert response.body == f"arrived via {status}"
        assert browser.history[-1] == "/final"

    @pytest.mark.parametrize("status", [301, 307, 308])
    def test_follow_can_be_disabled(self, status):
        response = Browser(_PermanentlyMovedApp(status)).get(
            "/start", follow_redirects=False
        )
        assert response.status == status
        assert response.location == "/final"


class TestBulkOperations:
    """A multichoice selection drives one operation over many objects."""

    def _bulk_app(self):
        from repro.codegen import generate_project
        from repro.presentation import PresentationRenderer
        from repro.presentation.renderer import default_stylesheet
        from repro.webml import LinkKind
        from repro.app import WebApplication

        model = build_acm_webml()
        admin = model.find_site_view("admin")
        purge_page = admin.page("Purge papers")
        chooser = purge_page.multichoice_unit(
            "Choose papers", "Paper", display_attributes=["title"]
        )
        purge = admin.delete_op("PurgePapers", "Paper")
        model.link(chooser, purge, params=[("oids", "oid")], label="purge")
        model.link(purge, purge_page, kind=LinkKind.OK)
        model.link(purge, purge_page, kind=LinkKind.KO)

        project = generate_project(model)
        renderer = PresentationRenderer(project.skeletons,
                                        default_stylesheet("ACM"))
        app = WebApplication(model, view_renderer=renderer)
        seed_acm(app)
        return app, chooser, purge

    def test_checkboxes_target_operation_slot(self):
        app, chooser, purge = self._bulk_app()
        browser = Browser(app)
        browser.get(app.operation_url("admin", "Login", {
            "username": "admin", "password": "secret",
        }))
        browser.get(app.page_url("admin", "Purge papers"))
        assert f'name="{purge.id}.oid"' in browser.body
        assert f'action="/do/{purge.id}"' in browser.body

    def test_bulk_delete_removes_all_chosen(self, acm_oids):
        app, chooser, purge = self._bulk_app()
        browser = Browser(app)
        browser.get(app.operation_url("admin", "Login", {
            "username": "admin", "password": "secret",
        }))
        chosen = acm_oids["papers"][:2]
        url = (f"/do/{purge.id}?{purge.id}.oid={chosen[0]}"
               f"&{purge.id}.oid={chosen[1]}")
        response = browser.get(url)
        assert response.status == 200
        assert app.database.row_count("paper") == 2

    def test_bulk_with_missing_row_is_ko(self):
        app, chooser, purge = self._bulk_app()
        browser = Browser(app)
        browser.get(app.operation_url("admin", "Login", {
            "username": "admin", "password": "secret",
        }))
        url = f"/do/{purge.id}?{purge.id}.oid=1&{purge.id}.oid=999"
        response = browser.get(url, follow_redirects=False)
        assert "_message=" in response.location
        # operations are atomic: the failed bulk rolled back entirely
        assert app.database.row_count("paper") == 4


class TestOperationChainSafety:
    def test_chain_cycle_detected(self, acm_app):
        from repro.descriptors import OperationDescriptor, OutcomeTarget
        from repro.errors import ControllerError
        from repro.mvc.actions import OperationAction
        from repro.mvc.controller import ActionMapping
        from repro.mvc.http import HttpRequest, Session

        # two logout-style operations whose OK links point at each other
        first = OperationDescriptor(
            operation_id="cyc1", name="A", kind="logout",
            ok=OutcomeTarget("operation", "cyc2"),
        )
        second = OperationDescriptor(
            operation_id="cyc2", name="B", kind="logout",
            ok=OutcomeTarget("operation", "cyc1"),
        )
        acm_app.registry.deploy_operation(first)
        acm_app.registry.deploy_operation(second)
        action = OperationAction(acm_app.ctx)
        mapping = ActionMapping(path="/do/cyc1",
                                action_type="OperationAction",
                                site_view_id="sv1", operation_id="cyc1")
        with pytest.raises(ControllerError, match="chain exceeded"):
            action.perform(mapping, HttpRequest(path="/do/cyc1"),
                           Session("s"))

    def test_repeated_params_parse_to_lists(self):
        request = HttpRequest.from_url("/p?a=1&a=2&b=3")
        assert request.params == {"a": ["1", "2"], "b": "3"}


class TestOperationOutcomeEdges:
    def _mapping_for(self, operation_id):
        from repro.mvc.controller import ActionMapping

        return ActionMapping(path=f"/do/{operation_id}",
                             action_type="OperationAction",
                             site_view_id="sv1", operation_id=operation_id)

    def test_success_without_ok_target_is_an_error(self, acm_app):
        from repro.descriptors import OperationDescriptor
        from repro.mvc.actions import OperationAction

        descriptor = OperationDescriptor(
            operation_id="nook", name="NoOk", kind="logout",  # always ok
        )
        acm_app.registry.deploy_operation(descriptor)
        action = OperationAction(acm_app.ctx)
        with pytest.raises(ControllerError, match="no OK target"):
            action.perform(self._mapping_for("nook"),
                           HttpRequest(path="/do/nook"), Session("s"))

    def test_failure_without_ko_falls_back_to_ok(self, acm_app):
        from repro.descriptors import (
            OperationDescriptor,
            OutcomeTarget,
            StatementSpec,
        )
        from repro.mvc.actions import OperationAction

        view = acm_app.model.find_site_view("public")
        page = view.find_page("Volumes")
        descriptor = OperationDescriptor(
            operation_id="nofail", name="NoKo", kind="delete",
            statements=[StatementSpec(sql="DELETE FROM paper WHERE oid = :oid",
                                      params=[("oid", "oid", "int")])],
            ok=OutcomeTarget("page", page.id, target_page_id=page.id),
        )
        acm_app.registry.deploy_operation(descriptor)
        action = OperationAction(acm_app.ctx)
        outcome = action.perform(
            self._mapping_for("nofail"),
            HttpRequest(path="/do/nofail", params={"nofail.oid": "99999"}),
            Session("s"),
        )
        assert outcome.kind == "redirect"
        assert outcome.redirect_page_id == page.id
        assert "matched no rows" in outcome.message

    def test_failure_without_any_target_is_an_error(self, acm_app):
        from repro.descriptors import OperationDescriptor, StatementSpec
        from repro.mvc.actions import OperationAction

        descriptor = OperationDescriptor(
            operation_id="bare", name="Bare", kind="delete",
            statements=[StatementSpec(sql="DELETE FROM paper WHERE oid = :oid",
                                      params=[("oid", "oid", "int")])],
        )
        acm_app.registry.deploy_operation(descriptor)
        action = OperationAction(acm_app.ctx)
        with pytest.raises(ControllerError, match="no KO target"):
            action.perform(
                self._mapping_for("bare"),
                HttpRequest(path="/do/bare", params={"bare.oid": "99999"}),
                Session("s"),
            )

    def test_unknown_action_type_rejected(self, acm_app):
        from repro.mvc.controller import ActionMapping

        acm_app.controller.mappings["/weird"] = ActionMapping(
            path="/weird", action_type="TeleportAction", site_view_id="sv1"
        )
        response = acm_app.get("/weird")
        assert response.status == 500
        assert "unknown action type" in response.body
