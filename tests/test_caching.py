"""Tests for the cache tier (§6): policies, the conformance suite every
cache level (page, fragment, bean) must pass, what each level adds, and
the end-to-end behaviour that operations invalidate exactly the
dependent beans."""

import random
import sys
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

    def put(self, key, tag, keys=()):
        self.cache.put(key, self._value(tag, keys), **self._deps(keys))

    def get(self, key):
        return self._tag(self.cache.get(key))

    def build(self, key, make_tag, keys=()):
        """The level's get-or-build call; ``make_tag`` is the build."""
        value = getattr(self.cache, self.entry_point)(
            key, lambda: self._value(make_tag(), keys), **self._deps(keys))
        return self._tag(value)

    def _tag(self, value):
        return None if value is None else self._unwrap(value)


class _BeanLevel(_Level):
    name, entry_point = "bean", "get_or_compute"

    def _new_cache(self, ttl, options):
        if "scoped" in options:
            pytest.skip("the bean level has no unscoped mode")
        return UnitBeanCache(**options)

    def _value(self, tag, keys):
        return UnitBean(tag, tag, "data")

    def _deps(self, keys):
        policy = f"ttl:{self.ttl}" if self.ttl else "model-driven"
        return {"keys": keys, "policy": policy}

    def _unwrap(self, bean):
        return bean.unit_id


class _FragmentLevel(_Level):
    name, entry_point = "fragment", "get_or_render"

    def _new_cache(self, ttl, options):
        return FragmentCache(ttl_seconds=ttl, **options)

    def _value(self, tag, keys):
        return tag

    def _deps(self, keys):
        return {"keys": keys}

    def _unwrap(self, html):
        return html


class _PageLevel(_Level):
    name, entry_point = "page", "get_or_build"

    def _new_cache(self, ttl, options):
        return PageCache(ttl_seconds=ttl, **options)

    def _value(self, tag, keys):
        return self.cache.make_entry(tag, keys)

    def _deps(self, keys):
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
        level.put("a", "1", keys=["Paper"])
        assert cache.flush() == 1
        assert len(cache) == 0
        assert cache.dependents_of("Paper") == 0

    def test_capacity_validation(self, level):
        with pytest.raises(CacheError):
            level.make(max_entries=0)

    def test_scoped_invalidation_drops_only_dependents(self, level):
        cache = level.make()
        level.put("papers", "p", keys=["Paper"])
        level.put("volumes", "v", keys=["Volume"])
        level.put("authors", "a", keys=["Author", "Authorship"])
        assert cache.invalidate_writes(["Paper"]) == 1
        assert level.get("papers") is None
        assert level.get("volumes") == "v"
        assert cache.invalidate_writes(["Authorship"]) == 1
        assert level.get("authors") is None
        assert cache.dependents_of("Paper") == 0
        assert cache.dependents_of("Author") == 0
        assert cache.dependents_of("Authorship") == 0
        assert cache.stats.invalidations == 2

    def test_invalidation_counts_every_dependent(self, level):
        cache = level.make()
        for i in range(10):
            level.put(f"k{i}", str(i),
                      keys=["Paper" if i % 2 else "Volume"])
        assert cache.invalidate_writes(["Paper"]) == 5
        assert len(cache) == 5

    def test_unscoped_mode_flushes_on_any_write(self, level):
        cache = level.make(scoped=False)
        level.put("papers", "p", keys=["Paper"])
        level.put("volumes", "v", keys=["Volume"])
        # a write set that scoped mode would ignore still wipes everything
        assert cache.invalidate_writes(["Author"]) == 2
        assert len(cache) == 0
        # ...but an operation with an empty write set drops nothing
        level.put("papers", "p", keys=["Paper"])
        assert cache.invalidate_writes() == 0
        assert len(cache) == 1

    def test_eviction_cleans_dependency_indexes(self, level):
        cache = level.make(max_entries=2)
        for key in ("a", "b", "c"):  # the third put evicts a
            level.put(key, key, keys=["Paper", "Authorship"])
        assert len(cache) == 2
        assert cache.dependents_of("Paper") == 2
        assert cache.dependents_of("Authorship") == 2

    def test_overwrite_reindexes_the_key(self, level):
        cache = level.make()
        level.put("k", "old", keys=["Paper"])
        level.put("k", "new", keys=["Volume"])
        assert level.get("k") == "new" and len(cache) == 1
        assert cache.dependents_of("Paper") == 0
        assert cache.dependents_of("Volume") == 1

    def test_instance_keys_drop_their_instance_and_whole_holders(self, level):
        cache = level.make()
        level.put("v3", "a", keys=[("Volume", 3)])
        level.put("v4", "b", keys=[("Volume", 4)])
        level.put("all", "c", keys=["Volume"])
        level.put("issues", "d", keys=[("VolumeToIssue", 3)])
        assert cache.dependency_keys == 4
        # an instance write: its holders and the whole name's
        assert cache.invalidate_writes([("Volume", 3)]) == 2
        assert level.get("v4") == "b" and level.get("issues") == "d"
        # an instance of one name never reaches another name's instance
        # of the same value
        assert cache.invalidate_writes([("VolumeToIssue", 4)]) == 0
        # a bare name is every instance
        assert cache.invalidate_writes(["Volume"]) == 1
        assert cache.dependents_of("VolumeToIssue") == 1
        assert cache.dependents_of(("VolumeToIssue", 3)) == 1
        assert cache.dependency_keys == 1

    def test_null_is_a_value_not_every_instance(self, level):
        cache = level.make()
        level.put("orphans", "o", keys=[("IssueToPaper", None)])
        level.put("issue5", "p", keys=[("IssueToPaper", 5)])
        assert cache.invalidate_writes([("IssueToPaper", None)]) == 1
        assert level.get("issue5") == "p"
        level.put("orphans", "o", keys=[("IssueToPaper", None)])
        assert cache.invalidate_writes([("IssueToPaper", 5)]) == 1
        assert level.get("orphans") == "o"

    def test_status_reports_entries_and_dependency_keys(self, level):
        cache = level.make()
        level.put("k", "v", keys=[("Paper", 1), "Volume", ("Authorship", 1)])
        level.put("j", "w", keys=[("Paper", 1)])
        status = cache.status()
        assert status["entries"] == 2 and status["dependency_keys"] == 3
        assert status["puts"] == cache.stats.puts  # the counters stay

    @pytest.mark.parametrize("level_class", _LEVELS, ids=lambda c: c.name)
    @given(st.lists(st.sampled_from(["Paper", "Volume", "Issue"]),
                    min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_invalidation_never_leaves_stale_dependents(self, level_class,
                                                        entities):
        level = level_class()
        cache = level.make()
        for position, entity in enumerate(entities):
            level.put(f"k{position}", "v", keys=[entity])
        for entity in set(entities):
            cache.invalidate_writes([entity])
            assert cache.dependents_of(entity) == 0
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
            cache.invalidate_writes(["Paper"])
            return "stale"

        # the caller still gets its value, but it was never cached
        assert level.build("k", build, keys=["Paper"]) == "stale"
        assert level.get("k") is None
        assert cache.stats.puts == 0


class TestAdmissionConformance:
    """Step 0 of the flight protocol: a level with room admits every
    miss; a full level — where storing means evicting — stores a key
    only on its second miss."""

    def _full(self, level, capacity=2):
        cache = level.make(max_entries=capacity)
        for position in range(capacity):
            level.put(f"old{position}", f"v{position}")
        return cache

    def test_a_level_with_room_admits_a_first_miss(self, level):
        cache = level.make(max_entries=2)
        level.put("old0", "v0")
        assert level.build("k", lambda: "built") == "built"
        assert cache.stats.refused == 0 and cache.stats.puts == 2
        assert level.get("k") == "built"

    def test_a_full_level_refuses_a_first_miss(self, level):
        cache = self._full(level)
        assert level.build("k", lambda: "built") == "built"
        stats = cache.stats
        assert (stats.misses, stats.refused) == (1, 1)
        assert (stats.puts, stats.evictions) == (2, 0)
        assert not cache._in_flight  # never claimed
        assert level.get("old0") == "v0" and level.get("old1") == "v1"
        assert level.get("k") is None and len(cache) == 2

    def test_the_second_miss_is_stored_and_evicts_the_lru_entry(self, level):
        cache = self._full(level)
        level.get("old0")  # old1 is now least recently used
        assert level.build("k", lambda: "first") == "first"
        assert level.build("k", lambda: "second") == "second"
        stats = cache.stats
        assert (stats.misses, stats.refused, stats.evictions) == (2, 1, 1)
        assert level.get("k") == "second" and level.get("old0") == "v0"
        assert level.get("old1") is None

    def test_the_refusal_memory_never_exceeds_the_cap(self, level):
        cache = self._full(level, capacity=3)
        for position in range(20):
            assert level.build(f"new{position}", lambda: "x") == "x"
            status = cache.status()
            assert status["admission_memory"] <= status["max_entries"] == 3
        assert cache.stats.refused == 20 and cache.stats.puts == 3
        assert len(cache) == 3

    def test_admission_holds_its_bounds_under_contention(self, level):
        """More threads than cores on a full level, switching often:
        every call still ends as one hit or one miss, and neither the
        store nor the refusal memory outgrows the cap."""
        cache = self._full(level, capacity=4)
        threads, calls = 8, 300
        results = []

        def work(seed):
            rng = random.Random(seed)
            results.extend(level.build(f"k{rng.randrange(12)}", lambda: "x")
                           for _ in range(calls))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=work, args=(seed,))
                       for seed in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert results == ["x"] * (threads * calls)
        stats, status = cache.stats, cache.status()
        assert stats.hits + stats.misses == threads * calls
        assert 0 < stats.refused <= stats.misses
        assert status["entries"] <= 4 and status["admission_memory"] <= 4
        assert not cache._in_flight


# -- level-specific behaviour ---------------------------------------------------


class TestUnitBeanCache:
    def test_put_get_marks_from_cache(self):
        cache = UnitBeanCache()
        bean = UnitBean("u1", "Unit", "index", rows=[{"oid": 1}])
        assert not bean.from_cache
        cache.put("k", bean, keys=["Paper"])
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
#: a dependency key: a bare name (every instance) or ``(name, value)``,
#: the value an oid or NULL — which is a value, not "every instance"
_DEPENDENCIES = st.one_of(
    st.sampled_from(_ENTITIES),
    st.tuples(st.sampled_from(_ENTITIES), st.sampled_from((1, 2, None))),
)

_OPS = st.one_of(
    st.tuples(st.just("put"), st.sampled_from(_KEYS),
              _DEPENDENCIES, st.sampled_from((None, 10))),
    st.tuples(st.just("get"), st.sampled_from(_KEYS)),
    st.tuples(st.just("invalidate"), _DEPENDENCIES),
    st.tuples(st.just("advance"), st.integers(min_value=1, max_value=15)),
)


class _CacheOracle:
    """A deliberately naive model of the §6 cache: a dict plus a
    recency list, replayed operation by operation.  An entry holds one
    dependency key; a written key drops it when the names match and
    either side is a bare name or the two values are equal."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.now = 0.0
        # key → (serial, dependency, expires_at); insertion order = LRU
        self.entries: dict[str, tuple[str, object, float | None]] = {}

    def put(self, key, serial, dependency, ttl):
        expires = self.now + ttl if ttl else None
        self.entries.pop(key, None)
        self.entries[key] = (serial, dependency, expires)
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

    def invalidate(self, written):
        def dropped(held) -> bool:
            if isinstance(held, str) or isinstance(written, str):
                return _name(held) == _name(written)
            return held == written

        self.entries = {
            k: v for k, v in self.entries.items() if not dropped(v[1])
        }


def _name(dependency) -> str:
    return dependency if isinstance(dependency, str) else dependency[0]


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
                _, key, dependency, put_ttl = operation
                serial += 1
                if level.name == "bean":
                    level.ttl = put_ttl
                level.put(key, f"value-{serial}", keys=[dependency])
                oracle.put(key, f"value-{serial}", dependency, level.ttl)
            elif operation[0] == "get":
                _, key = operation
                assert level.get(key) == oracle.get(key)
            elif operation[0] == "invalidate":
                _, dependency = operation
                cache.invalidate_writes([dependency])
                oracle.invalidate(dependency)
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

    def test_status_reports_the_reverse_index_size(self):
        app, cache = self._cached_app()
        Browser(app).get("/")
        status = app.ctx.obs.metrics.snapshot()["external"]["cache.bean"]
        assert status["entries"] == 1
        assert status["dependency_keys"] == 1  # ("Volume", *)
        assert status["hits"] == cache.stats.hits

    def test_status_reports_admission_memory_beside_the_cap(self):
        app, cache = self._cached_app()
        Browser(app).get("/")
        status = app.ctx.obs.metrics.snapshot()["external"]["cache.bean"]
        assert status["max_entries"] == cache.max_entries
        assert status["admission_memory"] == 0  # never full
        assert status["refused"] == 0

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


class TestStreamedAdmission:
    """The chunk-streamed page drives the flight steps itself, admission
    included: a page a full page cache refuses streams with no flight
    and stores nothing; its next miss streams into the store."""

    def _app(self):
        from repro.codegen import generate_project
        from repro.presentation import PresentationRenderer
        from repro.presentation.renderer import default_stylesheet
        from repro.workloads.acm import build_acm_model, seed_acm_data

        model = build_acm_model()
        project = generate_project(model)
        renderer = PresentationRenderer(project.skeletons,
                                        default_stylesheet("ACM"))
        app = WebApplication(model, view_renderer=renderer,
                             page_cache=PageCache(max_entries=1))
        seed_acm_data(app, volumes=2, issues_per_volume=1,
                      papers_per_issue=1)
        return app

    def _stream(self, app, oid):
        from repro.httpcore import StreamedPage
        from repro.mvc.http import HttpRequest

        unit = (app.model.find_site_view("public")
                .find_page("Volume Page").unit("Volume data"))
        url = app.page_url("public", "Volume Page", {f"{unit.id}.oid": oid})
        state = app.front.begin(HttpRequest.from_url(url), peek=True)
        streamed = app.front.open_stream(state)
        assert isinstance(streamed, StreamedPage)
        in_flight = []
        for chunk in streamed.chunks:
            in_flight.append(bool(app.page_cache._in_flight))
        return state.page_key, any(in_flight)

    def test_a_refused_page_streams_without_flight_or_store(self):
        app = self._app()
        cache, stats = app.page_cache, app.page_cache.stats
        first, claimed = self._stream(app, 1)
        assert claimed and len(cache) == 1  # room: admitted and stored
        second, claimed = self._stream(app, 2)
        assert not claimed and stats.refused == 1
        assert cache.peek(second) is None and cache.peek(first) is not None
        _, claimed = self._stream(app, 2)  # the second miss is admitted
        assert claimed and cache.peek(second) is not None
        assert cache.peek(first) is None  # evicted by the admitted page
        assert (stats.misses, stats.refused, stats.evictions) == (3, 1, 1)
        assert not cache._in_flight
