"""Tests for the delivery tier: the level-0 page cache, the
invalidation bus spanning all three cache levels, conditional HTTP
(ETag / If-None-Match / Cache-Control), and gzip negotiation."""

import gzip

from repro.app import Browser, WebApplication
from repro.caching import (
    FragmentCache,
    InvalidationBus,
    PageCache,
    UnitBeanCache,
    canonical_params,
    content_etag,
)
from repro.codegen import generate_project
from repro.mvc import HttpResponse
from repro.presentation import PresentationRenderer
from repro.presentation.renderer import default_stylesheet

from tests.conftest import build_acm_webml, seed_acm


class TestCanonicalParams:
    def test_order_insensitive(self):
        assert canonical_params({"a": "1", "b": "2"}) == \
            canonical_params({"b": "2", "a": "1"})

    def test_lists_become_tuples(self):
        key = canonical_params({"ids": ["1", "2"]})
        assert key == (("ids", ("1", "2")),)
        hash(key)  # must be usable as a dict key

    def test_different_values_differ(self):
        assert canonical_params({"a": "1"}) != canonical_params({"a": "2"})


class TestContentEtag:
    def test_strong_quoted_form(self):
        etag = content_etag("<html/>")
        assert etag.startswith('"') and etag.endswith('"')

    def test_deterministic_and_content_bound(self):
        assert content_etag("x") == content_etag("x")
        assert content_etag("x") != content_etag("y")


class TestPageCache:
    """What the page level adds to the cache core; the behaviour it
    shares with the other levels (LRU, TTL, scoped invalidation,
    single-flight) is ``tests/test_caching.py``'s conformance suite,
    and the detached flight helpers are in ``tests/test_httpcore.py``."""

    def test_make_entry_precomputes_delivery(self):
        cache = PageCache()
        entry = cache.make_entry("<html>hi</html>", entities=("Paper",),
                                 roles=("Authorship",))
        assert entry.etag == content_etag("<html>hi</html>")
        assert gzip.decompress(entry.gzip_body).decode() == "<html>hi</html>"
        # the entry is stored under the dependency sets it was made with
        cache.put("k", entry)
        assert cache.get("k") is entry
        assert cache.dependents_of(entity="Paper") == 1
        assert cache.dependents_of(role="Authorship") == 1

    def test_an_entry_compresses_on_its_first_gzip_read_only(self,
                                                             monkeypatch):
        from repro.caching import page_cache
        from repro.httpcore.delivery import GZIP_MIN_BYTES, entry_response
        from repro.mvc.http import HttpRequest

        calls = []
        real = gzip.compress
        monkeypatch.setattr(
            page_cache.gzip, "compress",
            lambda *a, **k: calls.append(a) or real(*a, **k),
        )
        body = "<html>" + "x" * GZIP_MIN_BYTES + "</html>"
        entry = PageCache().make_entry(body)
        # stored, served as identity, revalidated: nobody asked for gzip
        for headers in ({}, {"If-None-Match": entry.etag},
                        {"Accept-Encoding": "br"}):
            entry_response(entry, HttpRequest(path="/", headers=headers),
                           "public, no-cache")
        assert calls == []
        wants_gzip = HttpRequest(path="/", headers={"Accept-Encoding": "gzip"})
        first = entry_response(entry, wants_gzip, "public, no-cache")
        again = entry_response(entry, wants_gzip, "public, no-cache")
        # deterministic bytes, made once and kept
        assert first.encoded_body == real(body.encode(), mtime=0)
        assert again.encoded_body is first.encoded_body
        assert len(calls) == 1


class TestInvalidationBus:
    def test_levels_invalidate_in_registration_order(self):
        bus = InvalidationBus()
        bean, fragment = UnitBeanCache(), FragmentCache()
        from repro.services import UnitBean

        bus.register("bean", bean)
        bus.register("fragment", fragment)
        bean.put("b", UnitBean("u", "U", "index"), entities=["Paper"])
        fragment.put("f", "<div/>", entities=["Paper"])
        dropped = bus.invalidate_writes(entities=["Paper"])
        assert dropped == {"bean": 1, "fragment": 1}
        assert bus.targets() == ["bean", "fragment"]

    def test_register_replaces_by_name(self):
        bus = InvalidationBus()
        first, second = FragmentCache(), FragmentCache()
        bus.register("fragment", first)
        bus.register("fragment", second)
        assert bus.targets() == ["fragment"]
        second.put("only-in-second", "<div/>", entities=["Paper"])
        assert bus.invalidate_writes(entities=["Paper"]) == {"fragment": 1}
        assert len(second) == 0 and first.stats.invalidations == 0

    def test_flush_clears_every_level(self):
        bus = InvalidationBus()
        fragment = FragmentCache()
        fragment.put("f", "<div/>")
        bus.register("fragment", fragment)
        assert bus.flush() == {"fragment": 1}
        assert len(fragment) == 0


class TestHttpResponseDelivery:
    def test_not_modified_shape(self):
        response = HttpResponse.not_modified('"abc"', {"Cache-Control": "x"})
        assert response.status == 304
        assert response.body == ""
        assert response.etag == '"abc"'
        assert response.wire_length == 0

    def test_wire_length_prefers_encoded_body(self):
        response = HttpResponse(status=200, body="x" * 1000)
        assert response.wire_length == 1000
        response.encoded_body = b"z" * 40
        assert response.wire_length == 40


def _delivery_app(scoped: bool = True, ttl: float | None = None):
    """The ACM application with all three cache levels active."""
    model = build_acm_webml()
    for unit in model.all_units():
        if unit.kind != "entry":
            unit.cacheable = True
    project = generate_project(model)
    stylesheet = default_stylesheet("ACM")
    for rule in stylesheet.unit_rules:
        rule.set_attrs["fragment"] = "cache"
    fragment_cache = FragmentCache(scoped=scoped)
    page_cache = PageCache(scoped=scoped, ttl_seconds=ttl)
    renderer = PresentationRenderer(
        project.skeletons, stylesheet, fragment_cache=fragment_cache
    )
    bean_cache = UnitBeanCache()
    app = WebApplication(model, view_renderer=renderer,
                         bean_cache=bean_cache, page_cache=page_cache)
    seed_acm(app)
    app.ctx.stats.reset()
    return app, page_cache, fragment_cache, bean_cache


def _admin(app) -> Browser:
    browser = Browser(app)
    browser.get(app.operation_url(
        "admin", "Login", {"username": "admin", "password": "secret"}
    ))
    assert browser.status == 200
    return browser


class TestPageCacheEndToEnd:
    def test_bus_registers_levels_deepest_first(self):
        app, *_ = _delivery_app()
        assert app.ctx.invalidation_bus.targets() == \
            ["bean", "fragment", "page"]

    def test_repeat_get_serves_from_page_cache(self):
        app, page_cache, _, _ = _delivery_app()
        browser = Browser(app)
        first = browser.get("/")
        again = browser.get("/")
        assert first.body == again.body
        assert page_cache.stats.hits == 1
        # beyond the first build, the page no longer touches the model
        queries = app.ctx.stats.queries_executed
        browser.get("/")
        assert app.ctx.stats.queries_executed == queries

    def test_parameter_order_shares_the_entry(self, acm_oids):
        app, page_cache, _, _ = _delivery_app()
        view = app.model.find_site_view("public")
        page = view.find_page("Volume Page")
        unit = page.unit("Volume data")
        oid = acm_oids["volumes"][0]
        base = f"/{view.id}/{page.id}"
        browser = Browser(app)
        browser.get(f"{base}?{unit.id}.oid={oid}&extra=1")
        browser.get(f"{base}?extra=1&{unit.id}.oid={oid}")
        assert page_cache.stats.hits == 1
        assert len(page_cache) == 1

    def test_principal_partitions_the_key(self):
        app, page_cache, _, _ = _delivery_app()
        url = app.page_url("public", "Volumes")
        Browser(app).get(url)
        _admin(app).get(url)
        # same page, same bytes would even match — but an authenticated
        # principal must never share an anonymous entry
        assert len(page_cache) >= 2

    def test_etag_and_cache_control_headers(self):
        app, *_ = _delivery_app()
        response = Browser(app).get("/")
        assert response.etag == content_etag(response.body)
        assert response.headers["Cache-Control"] == "public, no-cache"

    def test_ttl_policy_becomes_max_age(self):
        app, *_ = _delivery_app(ttl=60)
        response = Browser(app).get("/")
        assert response.headers["Cache-Control"] == "public, max-age=60"

    def test_authenticated_responses_are_private(self):
        app, *_ = _delivery_app()
        response = _admin(app).get(app.page_url("admin", "Admin Home"))
        assert response.headers["Cache-Control"].startswith("private")

    def test_if_none_match_gets_304(self):
        app, *_ = _delivery_app()
        browser = Browser(app)
        first = browser.get("/")
        revalidation = app.get(
            app.page_url("public", "Volumes"),
            headers={"If-None-Match": first.etag},
        )
        assert revalidation.status == 304
        assert revalidation.etag == first.etag
        assert revalidation.wire_length == 0

    def test_stale_validator_gets_full_response(self):
        app, *_ = _delivery_app()
        Browser(app).get("/")
        response = app.get(app.page_url("public", "Volumes"),
                           headers={"If-None-Match": '"stale"'})
        assert response.status == 200 and response.body

    def test_gzip_negotiation(self):
        app, *_ = _delivery_app()
        url = app.page_url("public", "Volumes")
        identity = app.get(url)
        compressed = app.get(url, headers={"Accept-Encoding": "gzip"})
        assert compressed.headers["Content-Encoding"] == "gzip"
        assert compressed.headers["Vary"] == "Accept-Encoding"
        assert gzip.decompress(compressed.encoded_body).decode() == \
            identity.body
        assert compressed.wire_length < identity.wire_length

    def test_conditional_http_without_page_cache(self):
        """_finalize gives every 200 HTML GET a validator, even when no
        page cache is deployed."""
        model = build_acm_webml()
        app = WebApplication(model)
        seed_acm(app)
        browser = Browser(app)
        first = browser.get("/")
        assert first.etag is not None
        revalidation = app.get(app.page_url("public", "Volumes"),
                               headers={"If-None-Match": first.etag})
        assert revalidation.status == 304

    def test_browser_conditional_mode_materializes_304(self):
        app, *_ = _delivery_app()
        browser = Browser(app, conditional=True)
        first = browser.get("/")
        assert first.status == 200
        again = browser.get(app.page_url("public", "Volumes"))
        assert again.status == 304  # revalidated on the wire...
        assert again.body == first.body  # ...but the user sees the page


class TestWriteInvalidationAcrossLevels:
    """One operation, three cache levels: each drops exactly the
    dependent entries."""

    def _warm(self, app, acm_oids):
        browser = Browser(app)
        browser.get(app.page_url("public", "Volumes"))
        browser.get(app.page_url(
            "public", "Volume Page",
            {f"{self._volume_unit(app).id}.oid": acm_oids['volumes'][0]},
        ))
        return browser

    @staticmethod
    def _volume_unit(app):
        view = app.model.find_site_view("public")
        return view.find_page("Volume Page").unit("Volume data")

    def test_create_paper_drops_only_paper_dependents(self, acm_oids):
        app, page_cache, fragment_cache, bean_cache = _delivery_app()
        self._warm(app, acm_oids)
        assert len(page_cache) == 2
        assert page_cache.dependents_of(entity="Paper") == 1  # Volume Page
        writer = _admin(app)  # lands on Admin Home: a third cached page
        assert len(page_cache) == 3
        writer.get(app.operation_url(
            "admin", "CreatePaper", {"title": "Fresh", "pages": "3"},
        ), follow_redirects=False)
        # every level dropped its Paper dependents (Volume Page and the
        # admin paper list)...
        assert bean_cache.dependents_of(entity="Paper") == 0
        assert fragment_cache.dependents_of(entity="Paper") == 0
        assert page_cache.dependents_of(entity="Paper") == 0
        # ...and only those: the Volumes page (Volume-only) survived
        assert len(page_cache) == 1
        assert page_cache.dependents_of(entity="Volume") == 1

    def test_read_after_write_observes_the_write(self, acm_oids):
        app, *_ = _delivery_app()
        view = app.model.find_site_view("public")
        matching = view.find_page("SearchResults").unit("Matching papers")
        check_url = app.page_url("public", "SearchResults",
                                 {f"{matching.id}.keyword": "Hot Topic"})
        reader = Browser(app)
        assert "Hot Topic" not in reader.get(check_url).body
        _admin(app).get(app.operation_url(
            "admin", "CreatePaper", {"title": "Hot Topic", "pages": "1"},
        ), follow_redirects=False)
        assert "Hot Topic" in reader.get(check_url).body

    def test_delete_paper_drops_dependents(self, acm_oids):
        app, page_cache, _, _ = _delivery_app()
        self._warm(app, acm_oids)
        writer = _admin(app)
        writer.get(app.operation_url(
            "admin", "DeletePaper", {"oid": acm_oids["papers"][0]},
        ), follow_redirects=False)
        assert page_cache.dependents_of(entity="Paper") == 0
        assert page_cache.dependents_of(entity="Volume") == 1

    def test_login_does_not_invalidate(self, acm_oids):
        app, page_cache, fragment_cache, bean_cache = _delivery_app()
        self._warm(app, acm_oids)
        pages = len(page_cache)
        fragments = len(fragment_cache)
        _admin(app)  # the login operation writes nothing
        # nothing was dropped (the login itself cached one more page)
        assert page_cache.stats.invalidations == 0
        assert fragment_cache.stats.invalidations == 0
        assert bean_cache.stats.invalidations == 0
        assert len(page_cache) >= pages
        assert len(fragment_cache) >= fragments

    def test_unscoped_write_wipes_the_page_cache(self, acm_oids):
        app, page_cache, _, _ = _delivery_app(scoped=False)
        self._warm(app, acm_oids)
        assert len(page_cache) >= 2
        _admin(app).get(app.operation_url(
            "admin", "CreatePaper", {"title": "Wipe", "pages": "1"},
        ), follow_redirects=False)
        assert len(page_cache) == 0  # no model, no precision


class TestAppServerDeliveryStats:
    def test_status_counts_and_bytes_on_wire(self):
        from repro.appserver import ThreadedAppServer

        app, *_ = _delivery_app()
        url = app.page_url("public", "Volumes")
        with ThreadedAppServer(app, workers=2) as server:
            first = server.get(url).result(5)
            etag = first.etag
            server.get(url, headers={"If-None-Match": etag}).result(5)
            stats = server.stats()
        assert stats["status_counts"][200] == 1
        assert stats["status_counts"][304] == 1
        assert stats["bytes_on_wire"] == first.wire_length
