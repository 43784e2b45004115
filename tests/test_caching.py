"""Tests for the cache tier (§6): policies, the conformance suite every
cache level (page, fragment, bean) must pass, what each level adds, and
the end-to-end behaviour that operations invalidate exactly the
dependent beans."""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.app import Browser, WebApplication
from repro.caching import (
    CacheStats,
    FragmentCache,
    PageCache,
    UnitBeanCache,
    parse_policy,
)
from repro.errors import CacheError
from repro.services import UnitBean
from repro.util import VirtualClock

from tests.conftest import build_acm_webml, seed_acm


class TestPolicies:
    def test_model_driven(self):
        policy = parse_policy("model-driven")
        assert policy.ttl_seconds is None

    def test_ttl(self):
        assert parse_policy("ttl:30").ttl_seconds == 30.0

    def test_bad_policies(self):
        for bad in ("ttl:abc", "ttl:0", "ttl:-5", "forever"):
            with pytest.raises(CacheError):
                parse_policy(bad)


class TestCacheStats:
    def test_hit_rate(self):
        stats = CacheStats(hits=3, misses=1)
        assert stats.lookups == 4
        assert stats.hit_rate == 0.75
        stats.reset()
        assert stats.hit_rate == 0.0


# -- one conformance suite, three levels ---------------------------------------
#
# Page, fragment and bean caches are one DependencyCache with three
# names, so every behaviour of the core is asserted once and run
# against each level.  A _Level adaptor hides the only things a test
# must know per level: constructor options, what a stored value looks
# like, and the name of the get-or-build entry point.  Values are
# identified by a short *tag* string the adaptor wraps and unwraps.


class _Level:
    name: str
    entry_point: str

    def make(self, ttl=None, **options):
        self.ttl = ttl
        self.cache = self._new_cache(ttl, options)
        return self.cache

    def put(self, key, tag, entities=(), roles=()):
        self.cache.put(key, self._value(tag, entities, roles),
                       **self._deps(entities, roles))

    def get(self, key):
        return self._tag(self.cache.get(key))

    def build(self, key, make_tag, entities=(), roles=()):
        """The level's get-or-build call; ``make_tag`` is the build."""
        value = getattr(self.cache, self.entry_point)(
            key, lambda: self._value(make_tag(), entities, roles),
            **self._deps(entities, roles))
        return self._tag(value)

    def _tag(self, value):
        return None if value is None else self._unwrap(value)


class _BeanLevel(_Level):
    name, entry_point = "bean", "get_or_compute"

    def _new_cache(self, ttl, options):
        if "scoped" in options:
            pytest.skip("the bean level has no unscoped mode")
        return UnitBeanCache(**options)

    def _value(self, tag, entities, roles):
        return UnitBean(tag, tag, "data")

    def _deps(self, entities, roles):
        policy = f"ttl:{self.ttl}" if self.ttl else "model-driven"
        return {"entities": entities, "roles": roles, "policy": policy}

    def _unwrap(self, bean):
        return bean.unit_id


class _FragmentLevel(_Level):
    name, entry_point = "fragment", "get_or_render"

    def _new_cache(self, ttl, options):
        return FragmentCache(ttl_seconds=ttl, **options)

    def _value(self, tag, entities, roles):
        return tag

    def _deps(self, entities, roles):
        return {"entities": entities, "roles": roles}

    def _unwrap(self, html):
        return html


class _PageLevel(_Level):
    name, entry_point = "page", "get_or_build"

    def _new_cache(self, ttl, options):
        return PageCache(ttl_seconds=ttl, **options)

    def _value(self, tag, entities, roles):
        return self.cache.make_entry(tag, entities, roles)

    def _deps(self, entities, roles):
        return {}

    def _unwrap(self, entry):
        return entry.body


_LEVELS = (_BeanLevel, _FragmentLevel, _PageLevel)


@pytest.fixture(params=_LEVELS, ids=lambda cls: cls.name)
def level(request):
    return request.param()


class TestCacheConformance:
    def test_put_get_counts_one_hit_one_miss(self, level):
        cache = level.make()
        level.put("k", "v")
        assert level.get("k") == "v"
        assert level.get("other") is None
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.puts == 1 and len(cache) == 1

    def test_lru_eviction_respects_recency(self, level):
        cache = level.make(max_entries=2)
        level.put("a", "1")
        level.put("b", "2")
        level.get("a")  # refresh a
        level.put("c", "3")  # evicts b
        assert level.get("b") is None
        assert level.get("a") == "1"
        assert cache.stats.evictions == 1 and len(cache) == 2

    def test_ttl_expiry_on_the_virtual_clock(self, level):
        clock = VirtualClock()
        cache = level.make(ttl=10, clock=clock)
        level.put("k", "v")
        clock.advance(9)
        assert level.get("k") == "v"
        clock.advance(2)
        assert level.get("k") is None
        assert cache.stats.expirations == 1 and len(cache) == 0

    def test_flush_drops_everything(self, level):
        cache = level.make()
        level.put("a", "1", entities=["Paper"])
        assert cache.flush() == 1
        assert len(cache) == 0
        assert cache.dependents_of(entity="Paper") == 0

    def test_capacity_validation(self, level):
        with pytest.raises(CacheError):
            level.make(max_entries=0)

    def test_scoped_invalidation_drops_only_dependents(self, level):
        cache = level.make()
        level.put("papers", "p", entities=["Paper"])
        level.put("volumes", "v", entities=["Volume"])
        level.put("authors", "a", entities=["Author"], roles=["Authorship"])
        assert cache.invalidate_writes(entities=["Paper"]) == 1
        assert level.get("papers") is None
        assert level.get("volumes") == "v"
        assert cache.invalidate_writes(roles=["Authorship"]) == 1
        assert level.get("authors") is None
        assert cache.dependents_of(entity="Paper") == 0
        assert cache.dependents_of(entity="Author") == 0
        assert cache.dependents_of(role="Authorship") == 0
        assert cache.stats.invalidations == 2

    def test_invalidation_counts_every_dependent(self, level):
        cache = level.make()
        for i in range(10):
            level.put(f"k{i}", str(i),
                      entities=["Paper" if i % 2 else "Volume"])
        assert cache.invalidate_writes(entities=["Paper"]) == 5
        assert len(cache) == 5

    def test_unscoped_mode_flushes_on_any_write(self, level):
        cache = level.make(scoped=False)
        level.put("papers", "p", entities=["Paper"])
        level.put("volumes", "v", entities=["Volume"])
        # a write set that scoped mode would ignore still wipes everything
        assert cache.invalidate_writes(entities=["Author"]) == 2
        assert len(cache) == 0
        # ...but an operation with an empty write set drops nothing
        level.put("papers", "p", entities=["Paper"])
        assert cache.invalidate_writes() == 0
        assert len(cache) == 1

    def test_eviction_cleans_dependency_indexes(self, level):
        cache = level.make(max_entries=2)
        for key in ("a", "b", "c"):  # the third put evicts a
            level.put(key, key, entities=["Paper"], roles=["Authorship"])
        assert len(cache) == 2
        assert cache.dependents_of(entity="Paper") == 2
        assert cache.dependents_of(role="Authorship") == 2

    def test_overwrite_reindexes_the_key(self, level):
        cache = level.make()
        level.put("k", "old", entities=["Paper"])
        level.put("k", "new", entities=["Volume"])
        assert level.get("k") == "new" and len(cache) == 1
        assert cache.dependents_of(entity="Paper") == 0
        assert cache.dependents_of(entity="Volume") == 1

    @pytest.mark.parametrize("level_class", _LEVELS, ids=lambda c: c.name)
    @given(st.lists(st.sampled_from(["Paper", "Volume", "Issue"]),
                    min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_invalidation_never_leaves_stale_dependents(self, level_class,
                                                        entities):
        level = level_class()
        cache = level.make()
        for position, entity in enumerate(entities):
            level.put(f"k{position}", "v", entities=[entity])
        for entity in set(entities):
            cache.invalidate_writes(entities=[entity])
            assert cache.dependents_of(entity=entity) == 0
        assert len(cache) == 0


class TestSingleFlightConformance:
    def test_builds_a_missing_key_once_across_threads(self, level):
        cache = level.make()
        builds = []
        gate = threading.Event()

        def build():
            gate.wait(2.0)
            builds.append(1)
            return "once"

        results = []
        threads = [
            threading.Thread(
                target=lambda: results.append(level.build("k", build)))
            for _ in range(6)
        ]
        for thread in threads:
            thread.start()
        gate.set()
        for thread in threads:
            thread.join(timeout=5.0)
        assert len(builds) == 1  # one leader built; the rest waited
        assert results == ["once"] * 6
        assert cache.stats.coalesced >= 1
        # every call ends as exactly one miss (the claimed build) or
        # one hit, coalesced or not
        assert cache.stats.misses == 1 and cache.stats.hits == 5
        assert not cache._in_flight

    def test_failed_build_leaves_no_stuck_flight(self, level):
        cache = level.make()

        def explode():
            raise RuntimeError("build failed")

        with pytest.raises(RuntimeError):
            level.build("k", explode)
        # the in-flight marker was cleaned up: the next caller is not
        # stuck waiting on a leader that will never publish
        assert not cache._in_flight
        assert level.build("k", lambda: "ok") == "ok"

    def test_waiter_retries_after_leader_failure(self, level):
        cache = level.make()
        leader_entered = threading.Event()
        release_leader = threading.Event()

        def failing_build():
            leader_entered.set()
            release_leader.wait(2.0)
            raise RuntimeError("leader died")

        errors, results = [], []

        def leader():
            try:
                level.build("k", failing_build)
            except RuntimeError as exc:
                errors.append(exc)

        def waiter():
            leader_entered.wait(2.0)
            results.append(level.build("k", lambda: "recovered"))

        threads = [threading.Thread(target=leader),
                   threading.Thread(target=waiter)]
        for thread in threads:
            thread.start()
        leader_entered.wait(2.0)
        release_leader.set()
        for thread in threads:
            thread.join(timeout=5.0)
        assert len(errors) == 1  # the leader's failure surfaced to it
        assert results == ["recovered"]  # the waiter retried and won
        assert not cache._in_flight

    def test_invalidation_during_build_discards_result(self, level):
        cache = level.make()

        def build():
            # a write lands between the build and the store
            cache.invalidate_writes(entities=["Paper"])
            return "stale"

        # the caller still gets its value, but it was never cached
        assert level.build("k", build, entities=["Paper"]) == "stale"
        assert level.get("k") is None
        assert cache.stats.puts == 0


# -- level-specific behaviour ---------------------------------------------------


class TestUnitBeanCache:
    def test_put_get_marks_from_cache(self):
        cache = UnitBeanCache()
        bean = UnitBean("u1", "Unit", "index", rows=[{"oid": 1}])
        assert not bean.from_cache
        cache.put("k", bean, entities=["Paper"])
        hit = cache.get("k")
        assert hit is bean and hit.from_cache

    def test_ttl_policy_is_per_put(self):
        clock = VirtualClock()
        cache = UnitBeanCache(clock=clock)
        cache.put("short", UnitBean("u1", "Unit", "index"), policy="ttl:5")
        cache.put("forever", UnitBean("u2", "Unit", "index"))
        clock.advance(6)
        assert cache.get("short") is None
        assert cache.get("forever") is not None
        with pytest.raises(CacheError):
            cache.put("k", UnitBean("u3", "Unit", "index"), policy="forever")


# -- property-style oracle test ---------------------------------------------

_KEYS = ("k0", "k1", "k2", "k3", "k4", "k5")
_ENTITIES = ("Paper", "Volume", "Issue")

_OPS = st.one_of(
    st.tuples(st.just("put"), st.sampled_from(_KEYS),
              st.sampled_from(_ENTITIES), st.sampled_from((None, 10))),
    st.tuples(st.just("get"), st.sampled_from(_KEYS)),
    st.tuples(st.just("invalidate"), st.sampled_from(_ENTITIES)),
    st.tuples(st.just("advance"), st.integers(min_value=1, max_value=15)),
)


class _CacheOracle:
    """A deliberately naive model of the §6 cache: a dict plus a
    recency list, replayed operation by operation."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.now = 0.0
        # key → (serial, entity, expires_at); insertion order = LRU order
        self.entries: dict[str, tuple[str, str, float | None]] = {}

    def put(self, key, serial, entity, ttl):
        expires = self.now + ttl if ttl else None
        self.entries.pop(key, None)
        self.entries[key] = (serial, entity, expires)
        while len(self.entries) > self.capacity:
            self.entries.pop(next(iter(self.entries)))

    def get(self, key):
        entry = self.entries.get(key)
        if entry is None:
            return None
        serial, entity, expires = entry
        if expires is not None and self.now >= expires:
            del self.entries[key]
            return None
        # refresh recency
        del self.entries[key]
        self.entries[key] = (serial, entity, expires)
        return serial

    def invalidate(self, entity):
        self.entries = {
            k: v for k, v in self.entries.items() if v[1] != entity
        }


class TestCacheProperties:
    """Hypothesis-driven oracle test: arbitrary interleavings of put,
    get, invalidate and clock advances must match a naive model — this
    pins down TTL expiry, LRU eviction and dependency invalidation at
    once, on every level (the bean level takes each put's own
    lifetime, as its ``policy``; the others one cache-wide lifetime)."""

    @pytest.mark.parametrize("level_class", _LEVELS, ids=lambda c: c.name)
    @given(st.sampled_from((None, 10)),
           st.lists(_OPS, min_size=1, max_size=60))
    @settings(max_examples=120, deadline=None)
    def test_cache_matches_oracle(self, level_class, ttl, operations):
        clock = VirtualClock()
        capacity = 3
        level = level_class()
        cache = level.make(ttl=ttl, max_entries=capacity, clock=clock)
        oracle = _CacheOracle(capacity)
        serial = 0
        for operation in operations:
            if operation[0] == "put":
                _, key, entity, put_ttl = operation
                serial += 1
                if level.name == "bean":
                    level.ttl = put_ttl
                level.put(key, f"value-{serial}", entities=[entity])
                oracle.put(key, f"value-{serial}", entity, level.ttl)
            elif operation[0] == "get":
                _, key = operation
                assert level.get(key) == oracle.get(key)
            elif operation[0] == "invalidate":
                _, entity = operation
                cache.invalidate_writes(entities=[entity])
                oracle.invalidate(entity)
            else:  # advance
                _, seconds = operation
                clock.advance(seconds)
                oracle.now += seconds
            assert len(cache) == len(oracle.entries)
        # final sweep: every key agrees between cache and oracle
        for key in _KEYS:
            assert level.get(key) == oracle.get(key)


class TestEndToEndCaching:
    """The §6 claims, exercised on the real application."""

    def _cached_app(self):
        model = build_acm_webml()
        # tag the volume index as cached with model-driven invalidation
        volumes_page = model.find_site_view("public").find_page("Volumes")
        volumes_page.unit("All volumes").cacheable = True
        cache = UnitBeanCache()
        app = WebApplication(model, bean_cache=cache)
        seed_acm(app)
        app.ctx.stats.reset()
        app.database.stats.reset()
        return app, cache

    def test_bean_cache_spares_queries(self):
        app, cache = self._cached_app()
        browser = Browser(app)
        browser.get("/")
        first_queries = app.ctx.stats.queries_executed
        assert first_queries == 1
        browser.get("/")
        browser.get("/")
        assert app.ctx.stats.queries_executed == first_queries  # spared!
        assert cache.stats.hits == 2

    def test_operation_invalidates_dependent_bean(self):
        app, cache = self._cached_app()
        browser = Browser(app)
        browser.get("/")
        assert len(cache) == 1

        # add a create-volume operation and run it
        model = app.model
        admin = model.find_site_view("admin")
        volumes_page = model.find_site_view("public").find_page("Volumes")
        from repro.webml import LinkKind

        create_volume = admin.create_op("CreateVolume", "Volume",
                                        ["number", "year", "title"])
        model.link(create_volume, volumes_page, kind=LinkKind.OK)
        model.link(create_volume, volumes_page, kind=LinkKind.KO)
        from repro.codegen import generate_project

        project = generate_project(model, validate=False)
        project.deploy(app.registry)
        app.controller.load_config(project.controller_config)

        login = Browser(app)
        login.get(app.operation_url("admin", "Login",
                                    {"username": "admin",
                                     "password": "secret"}))
        response = login.get(app.operation_url("admin", "CreateVolume", {
            "number": "29", "year": "2004", "title": "TODS 29",
        }))
        assert response.status == 200
        # the cached volume-index bean was invalidated by the write...
        assert cache.stats.invalidations == 1
        # ...so the next rendering shows the new volume (no stale serve)
        browser.get("/")
        assert "3 row(s)" in browser.body

    def test_unrelated_write_keeps_cache(self):
        app, cache = self._cached_app()
        browser = Browser(app)
        browser.get("/")
        login = Browser(app)
        login.get(app.operation_url("admin", "Login",
                                    {"username": "admin",
                                     "password": "secret"}))
        login.get(app.operation_url("admin", "CreatePaper",
                                    {"title": "Unrelated", "pages": "1"}))
        # papers don't feed the volume index: bean survives
        assert cache.stats.invalidations == 0
        assert len(cache) == 1

    def test_fragment_cache_does_not_spare_queries(self):
        """§6's central observation, measured."""
        from repro.caching import FragmentCache
        from repro.presentation import PresentationRenderer, UnitRule
        from repro.presentation.renderer import default_stylesheet
        from repro.codegen import generate_project

        model = build_acm_webml()
        project = generate_project(model)
        stylesheet = default_stylesheet("ACM")
        # mark index fragments cacheable (one rule applies per tag, so
        # extend the existing index rule rather than adding a second one)
        index_rule = next(r for r in stylesheet.unit_rules
                          if r.name == "style-index")
        index_rule.set_attrs["fragment"] = "cache"
        fragment_cache = FragmentCache()
        renderer = PresentationRenderer(
            project.skeletons, stylesheet, fragment_cache=fragment_cache
        )
        app = WebApplication(model, view_renderer=renderer)
        seed_acm(app)
        app.ctx.stats.reset()

        browser = Browser(app)
        browser.get("/")
        browser.get("/")
        assert fragment_cache.stats.hits == 1  # markup generation spared
        assert app.ctx.stats.queries_executed == 2  # queries NOT spared
