"""Tests for the business tier: generic unit/operation/page services
against a seeded application (the descriptors are the generated ones)."""

import pytest

from repro.errors import ServiceError
from repro.mvc.http import Session
from repro.services import (
    GenericOperationService,
    GenericPageService,
    GenericUnitService,
    builtin_service_count,
)
from repro.services.base import coerce_value
from repro.services.plugins import PluginUnit, plugin_registry


def unit_of(app, page_name, unit_name, view="public"):
    return app.model.find_site_view(view).find_page(page_name).unit(unit_name)


def operation_of(app, name, view="admin"):
    site_view = app.model.find_site_view(view)
    return next(o for o in site_view.operations if o.name == name)


class TestServiceInventory:
    def test_paper_counts_eleven_basic_services(self):
        counts = builtin_service_count()
        assert counts["paper_basic_services"] == 11
        assert counts["page_services"] == 1

    def test_extensions_present(self):
        counts = builtin_service_count()
        # hierarchical (Figure 1) + login/logout (session personalization)
        assert counts["unit_services"] == 14


class TestCoercion:
    def test_int(self):
        assert coerce_value("42", "int") == 42
        assert coerce_value(42, "int") == 42

    def test_float_bool_auto(self):
        assert coerce_value("2.5", "float") == 2.5
        assert coerce_value("true", "bool") is True
        assert coerce_value("x", "auto") == "x"
        assert coerce_value(None, "int") is None

    def test_unknown_type(self):
        with pytest.raises(ServiceError):
            coerce_value("x", "decimal")


class TestUnitServices:
    def test_data_unit(self, acm_app, acm_oids):
        unit = unit_of(acm_app, "Volume Page", "Volume data")
        service = GenericUnitService(acm_app.ctx)
        bean = service.compute(
            acm_app.registry.unit(unit.id), {"oid": acm_oids["volumes"][0]}
        )
        assert bean.current["number"] == 27
        assert bean.outputs["oid"] == acm_oids["volumes"][0]

    def test_data_unit_string_oid_coerced(self, acm_app, acm_oids):
        unit = unit_of(acm_app, "Volume Page", "Volume data")
        service = GenericUnitService(acm_app.ctx)
        bean = service.compute(
            acm_app.registry.unit(unit.id), {"oid": str(acm_oids["volumes"][0])}
        )
        assert bean.current is not None

    def test_data_unit_missing_input_gives_empty_bean(self, acm_app):
        unit = unit_of(acm_app, "Volume Page", "Volume data")
        service = GenericUnitService(acm_app.ctx)
        bean = service.compute(acm_app.registry.unit(unit.id), {})
        assert bean.is_empty
        # and no query was wasted on it
        assert acm_app.ctx.stats.queries_executed == 0

    def test_index_unit_ordering(self, acm_app):
        unit = unit_of(acm_app, "Volumes", "All volumes")
        service = GenericUnitService(acm_app.ctx)
        bean = service.compute(acm_app.registry.unit(unit.id), {})
        assert [row["year"] for row in bean.rows] == [2002, 2003]
        assert bean.outputs["oid"] == bean.rows[0]["oid"]

    def test_index_selection_overrides_default(self, acm_app, acm_oids):
        unit = unit_of(acm_app, "Volumes", "All volumes")
        service = GenericUnitService(acm_app.ctx)
        bean = service.compute(
            acm_app.registry.unit(unit.id),
            {"selected": acm_oids["volumes"][1]},
        )
        assert bean.outputs["oid"] == acm_oids["volumes"][1]

    def test_like_search(self, acm_app):
        unit = unit_of(acm_app, "SearchResults", "Matching papers")
        service = GenericUnitService(acm_app.ctx)
        bean = service.compute(
            acm_app.registry.unit(unit.id), {"keyword": "Web"}
        )
        titles = {row["title"] for row in bean.rows}
        assert titles == {"Indexing the Web", "Data-Intensive Web Models"}

    def test_hierarchical_unit_nests(self, acm_app, acm_oids):
        unit = unit_of(acm_app, "Volume Page", "Issues&Papers")
        service = GenericUnitService(acm_app.ctx)
        bean = service.compute(
            acm_app.registry.unit(unit.id),
            {"volume_to_issue": acm_oids["volumes"][0]},
        )
        assert len(bean.rows) == 2  # two issues of volume 27
        papers = [child["title"] for row in bean.rows
                  for child in row["_children"]]
        assert "Query Optimization Revisited" in papers

    def test_bridge_role_unit(self, acm_app, acm_oids):
        unit = unit_of(acm_app, "Paper details", "Authors")
        service = GenericUnitService(acm_app.ctx)
        bean = service.compute(
            acm_app.registry.unit(unit.id), {"paper": acm_oids["papers"][2]}
        )
        assert {row["name"] for row in bean.rows} == {"S. Ceri", "P. Fraternali"}

    def test_scroller_blocks(self, acm_app):
        unit = unit_of(acm_app, "Browse papers", "Paper scroller")
        service = GenericUnitService(acm_app.ctx)
        descriptor = acm_app.registry.unit(unit.id)
        first = service.compute(descriptor, {})
        assert first.total == 4
        assert first.block == 1
        assert first.block_count == 2
        assert len(first.rows) == 2
        second = service.compute(descriptor, {"block": 2})
        assert len(second.rows) == 2
        assert first.rows[0]["title"] < second.rows[0]["title"]  # ordered

    def test_scroller_block_clamped(self, acm_app):
        unit = unit_of(acm_app, "Browse papers", "Paper scroller")
        service = GenericUnitService(acm_app.ctx)
        bean = service.compute(acm_app.registry.unit(unit.id), {"block": 99})
        assert bean.block == 2

    def test_entry_unit_fields_and_prefill(self, acm_app):
        unit = unit_of(acm_app, "Volume Page", "Enter keyword")
        service = GenericUnitService(acm_app.ctx)
        bean = service.compute(
            acm_app.registry.unit(unit.id), {"keyword": "MVC"}
        )
        assert bean.fields[0]["name"] == "keyword"
        assert bean.fields[0]["value"] == "MVC"
        assert bean.outputs["keyword"] == "MVC"

    def test_custom_service_override(self, acm_app, acm_oids):
        """§6: the business component can be completely overridden."""
        unit = unit_of(acm_app, "Volume Page", "Volume data")
        descriptor = acm_app.registry.unit(unit.id)
        descriptor.custom_service = "tuned"

        class TunedService:
            calls = 0

            def compute(self, descriptor, inputs, ctx):
                TunedService.calls += 1
                from repro.services import UnitBean

                return UnitBean(descriptor.unit_id, descriptor.name,
                                descriptor.kind,
                                current={"oid": inputs["oid"], "title": "tuned"})

        acm_app.ctx.register_custom_service("tuned", TunedService())
        service = GenericUnitService(acm_app.ctx)
        bean = service.compute(descriptor, {"oid": acm_oids["volumes"][0]})
        assert bean.current["title"] == "tuned"
        assert TunedService.calls == 1

    def test_unknown_custom_service_raises(self, acm_app, acm_oids):
        unit = unit_of(acm_app, "Volume Page", "Volume data")
        descriptor = acm_app.registry.unit(unit.id)
        descriptor.custom_service = "ghost"
        service = GenericUnitService(acm_app.ctx)
        with pytest.raises(ServiceError, match="unknown custom service"):
            service.compute(descriptor, {"oid": acm_oids["volumes"][0]})


class TestOperationServices:
    def test_create_captures_oid_and_invalidates(self, acm_app):
        operation = operation_of(acm_app, "CreatePaper")
        service = GenericOperationService(acm_app.ctx)
        result = service.execute(
            acm_app.registry.operation(operation.id),
            {"title": "New Paper", "pages": "12"},
            Session("s1"),
        )
        assert result.ok
        assert isinstance(result.outputs["oid"], int)
        stored = acm_app.database.query(
            "SELECT pages FROM paper WHERE title = 'New Paper'"
        ).scalar()
        assert stored == 12  # string input coerced by the column type

    def test_create_ko_on_constraint_violation(self, acm_app):
        operation = operation_of(acm_app, "CreatePaper")
        service = GenericOperationService(acm_app.ctx)
        result = service.execute(
            acm_app.registry.operation(operation.id),
            {"title": None, "pages": "1"},  # title NOT NULL
            Session("s1"),
        )
        assert not result.ok
        assert "NOT NULL" in result.message

    def test_delete_ko_when_no_rows(self, acm_app):
        operation = operation_of(acm_app, "DeletePaper")
        service = GenericOperationService(acm_app.ctx)
        result = service.execute(
            acm_app.registry.operation(operation.id), {"oid": 9999},
            Session("s1"),
        )
        assert not result.ok
        assert "matched no rows" in result.message

    def test_delete_ok(self, acm_app, acm_oids):
        operation = operation_of(acm_app, "DeletePaper")
        service = GenericOperationService(acm_app.ctx)
        result = service.execute(
            acm_app.registry.operation(operation.id),
            {"oid": str(acm_oids["papers"][3])},
            Session("s1"),
        )
        assert result.ok
        assert acm_app.database.row_count("paper") == 3

    def test_login_success_binds_session(self, acm_app):
        operation = operation_of(acm_app, "Login")
        service = GenericOperationService(acm_app.ctx)
        session = Session("s1")
        result = service.execute(
            acm_app.registry.operation(operation.id),
            {"username": "admin", "password": "secret"}, session,
        )
        assert result.ok
        assert session.is_authenticated
        assert session.username == "admin"

    def test_login_failure(self, acm_app):
        operation = operation_of(acm_app, "Login")
        service = GenericOperationService(acm_app.ctx)
        session = Session("s1")
        result = service.execute(
            acm_app.registry.operation(operation.id),
            {"username": "admin", "password": "wrong"}, session,
        )
        assert not result.ok
        assert not session.is_authenticated

    def test_logout_clears_session(self, acm_app):
        session = Session("s1")
        session.login(1, "admin")
        operation = operation_of(acm_app, "Logout")
        service = GenericOperationService(acm_app.ctx)
        result = service.execute(
            acm_app.registry.operation(operation.id), {}, session
        )
        assert result.ok
        assert not session.is_authenticated


class TestPageService:
    def test_parameter_propagation_master_detail(self, acm_app, acm_oids):
        view = acm_app.model.find_site_view("public")
        page = view.find_page("Volume Page")
        volume_data = page.unit("Volume data")
        hierarchy = page.unit("Issues&Papers")
        service = GenericPageService(acm_app.ctx)
        result = service.compute_page(
            acm_app.registry.page(page.id),
            {f"{volume_data.id}.oid": str(acm_oids["volumes"][0])},
        )
        assert result.bean(volume_data.id).current["number"] == 27
        # the transport link fed the hierarchy from the data unit's output
        assert len(result.bean(hierarchy.id).rows) == 2

    def test_units_without_inputs_still_compute(self, acm_app):
        view = acm_app.model.find_site_view("public")
        page = view.find_page("Volume Page")
        service = GenericPageService(acm_app.ctx)
        result = service.compute_page(acm_app.registry.page(page.id), {})
        volume_data = page.unit("Volume data")
        hierarchy = page.unit("Issues&Papers")
        assert result.bean(volume_data.id).is_empty
        assert result.bean(hierarchy.id).is_empty  # fed by the empty data unit

    def test_bean_named_lookup(self, acm_app):
        view = acm_app.model.find_site_view("public")
        page = view.find_page("Volumes")
        service = GenericPageService(acm_app.ctx)
        result = service.compute_page(acm_app.registry.page(page.id), {})
        assert result.bean_named("All volumes").rows
        with pytest.raises(KeyError):
            result.bean_named("Ghost")

    def test_page_stats_counted(self, acm_app):
        view = acm_app.model.find_site_view("public")
        page = view.find_page("Volumes")
        service = GenericPageService(acm_app.ctx)
        service.compute_page(acm_app.registry.page(page.id), {})
        assert acm_app.ctx.stats.pages_computed == 1
        assert acm_app.ctx.stats.units_computed == 1


class TestPluginUnits:
    def test_plugin_unit_registration_and_dispatch(self, acm_app, acm_oids):
        """§7: plug-in units provide their own service and tag."""
        from repro.services import UnitBean

        class CounterUnitService:
            kind = "counter"

            def compute(self, descriptor, inputs, ctx):
                total = ctx.query(
                    f"SELECT COUNT(*) AS n FROM {descriptor.entity.lower()}",
                    {},
                ).scalar()
                bean = UnitBean(descriptor.unit_id, descriptor.name, "counter")
                bean.current = {"count": total}
                return bean

        plugin = PluginUnit(
            kind="counter", tag_name="webml:counterUnit",
            service=CounterUnitService(),
        )
        plugin_registry.register(plugin)
        try:
            from repro.descriptors import UnitDescriptor

            descriptor = UnitDescriptor(
                unit_id="plug1", name="Paper count", kind="counter",
                entity="Paper",
            )
            service = GenericUnitService(acm_app.ctx)
            bean = service.compute(descriptor, {})
            assert bean.current["count"] == 4
        finally:
            plugin_registry.unregister("counter")

    def test_plugin_kind_collision_rejected(self):
        with pytest.raises(ServiceError, match="collides with a built-in"):
            plugin_registry.register(
                PluginUnit(kind="data", tag_name="webml:x", service=object())
            )

    def test_plugin_requires_service(self):
        with pytest.raises(ServiceError, match="needs a unit or operation"):
            PluginUnit(kind="x", tag_name="webml:x")

    def test_unknown_kind_without_plugin_raises(self, acm_app):
        from repro.descriptors import UnitDescriptor

        service = GenericUnitService(acm_app.ctx)
        with pytest.raises(ServiceError, match="no unit service"):
            service.compute(
                UnitDescriptor(unit_id="u", name="n", kind="martian"), {}
            )


class TestScrollerPaginationProperties:
    """Block scrolling must partition the instance set: the union of all
    blocks is the whole ordered set, blocks are disjoint and in order."""

    def test_blocks_partition_the_set(self, acm_app):
        # seed extra papers so there are several blocks
        for position in range(11):
            acm_app.seed_entity("Paper", [{
                "title": f"Extra {position:02d}", "pages": position,
            }])
        unit = unit_of(acm_app, "Browse papers", "Paper scroller")
        descriptor = acm_app.registry.unit(unit.id)
        service = GenericUnitService(acm_app.ctx)

        bean = service.compute(descriptor, {})
        expected_total = acm_app.database.row_count("paper")
        assert bean.total == expected_total

        seen: list = []
        for block in range(1, bean.block_count + 1):
            page = service.compute(descriptor, {"block": block})
            assert page.block == block
            seen.extend(row["oid"] for row in page.rows)
        assert len(seen) == expected_total
        assert len(set(seen)) == expected_total  # disjoint
        # ordered by title across block boundaries
        titles = [
            r["title"] for block in range(1, bean.block_count + 1)
            for r in service.compute(descriptor, {"block": block}).rows
        ]
        assert titles == sorted(titles)

    def _scroller(self, app, extra=11, duplicates=False):
        """(unit, descriptor, unit service) over 4 + ``extra`` papers;
        with ``duplicates`` the extra titles repeat (tie order shows)."""
        for position in range(extra):
            title = f"Extra {position % 3:02d}" if duplicates \
                else f"Extra {position:02d}"
            app.seed_entity("Paper", [{"title": title, "pages": position}])
        unit = unit_of(app, "Browse papers", "Paper scroller")
        return unit, app.registry.unit(unit.id), GenericUnitService(app.ctx)

    @pytest.mark.parametrize("duplicates", [False, True])
    def test_every_block_is_a_slice_of_the_unpaged_query(self, acm_app,
                                                         duplicates):
        _unit, descriptor, service = self._scroller(
            acm_app, duplicates=duplicates
        )
        size = descriptor.block_size
        unpaged = [row["oid"] for row in
                   acm_app.database.query(descriptor.query, {})]
        assert len(unpaged) == 15
        block_count = service.compute(descriptor, {}).block_count
        assert block_count == 8
        for block in range(1, block_count + 1):
            page = service.compute(descriptor, {"block": block})
            start = (block - 1) * size
            assert [row["oid"] for row in page.rows] \
                == unpaged[start:start + size]

    def test_blocks_survive_a_rolled_back_delete(self, acm_app):
        """A rollback re-inserts a row at the end of the heap; the index
        walk must tie equal titles where the heap scan now puts them."""
        _unit, descriptor, service = self._scroller(acm_app, duplicates=True)
        db = acm_app.database
        db.begin()
        db.execute("DELETE FROM paper WHERE title = 'Extra 01' AND pages = 1")
        db.rollback()
        unpaged = db.query(descriptor.query, {})
        # the ground truth is the unindexed sort path over the same heap
        seed = db.prepare(descriptor.query, mode="seed").execute({})
        assert unpaged.as_tuples() == seed.as_tuples()
        swept = [
            row["oid"]
            for block in range(1, 9)
            for row in service.compute(descriptor, {"block": block}).rows
        ]
        assert swept == [row["oid"] for row in unpaged]

    @pytest.mark.parametrize("raw, expected", [
        ("abc", 1), ("-5", 1), ("0", 1), ("99999999", 8), ("3", 3),
    ])
    def test_block_clamping_from_the_request(self, acm_app, raw, expected):
        unit, _descriptor, _service = self._scroller(acm_app)
        page = acm_app.model.find_site_view("public").find_page(
            "Browse papers")
        result = GenericPageService(acm_app.ctx).compute_page(
            acm_app.registry.page(page.id), {f"{unit.id}.block": raw}
        )
        assert result.bean(unit.id).block == expected

    def test_one_statement_one_plan_and_a_block_costs_its_block(self,
                                                                acm_app):
        _unit, descriptor, service = self._scroller(acm_app, extra=60)
        db = acm_app.database
        service.compute(descriptor, {"block": 1})
        plans = db.cached_plan_count()
        paged = f"{descriptor.query} LIMIT :_block_size OFFSET :_block_offset"
        explained = db.explain(paged)
        assert "IndexOrderScan(paper AS t0 ON title)" in explained
        assert "Sort" not in explained and "TopN" not in explained
        assert "RowCount(paper AS t0)" in db.explain(descriptor.count_query)
        for block in range(1, 33):
            db.stats.reset()
            page = service.compute(descriptor, {"block": block})
            assert len(page.rows) == descriptor.block_size
            # the count reads no row; titles are unique, so the block
            # jumps its offset and fetches its own rows only
            assert db.stats.rows_scanned == descriptor.block_size
            assert db.stats.rows_read == 1 + descriptor.block_size
        assert db.cached_plan_count() == plans  # flat over the sweep
        # once a title repeats, the offset is stepped over on index
        # entries (whole tie groups at a time) — still never fetched
        acm_app.seed_entity("Paper", [{"title": "Extra 07", "pages": 1}])
        db.stats.reset()
        page = service.compute(descriptor, {"block": 20})
        assert len(page.rows) == descriptor.block_size
        assert descriptor.block_size < db.stats.rows_scanned \
            <= 19 * descriptor.block_size + descriptor.block_size
        # without the index (or access paths) the same rows come from a
        # bounded top-N over a scan
        from repro.rdb.planner import PlannerFeatures

        params = {"_block_size": 2, "_block_offset": 10}
        fallback = db.prepare(paged, features=PlannerFeatures(access_paths=False))
        assert "TopN(:_block_size + :_block_offset" in fallback.explain()
        assert fallback.execute(params).as_tuples() \
            == db.query(paged, params).as_tuples()


class TestKeywordSearch:
    """A keyword is data, not a pattern — and finding it costs its
    matches, not the table (6 400 papers, the waterfall's data set)."""

    @pytest.fixture(scope="class")
    def library(self):
        from repro.app import WebApplication
        from repro.codegen import generate_conventional
        from repro.workloads.acm import build_acm_model, seed_acm_data

        app = WebApplication(build_acm_model())
        app.database.begin()
        seed_acm_data(app, volumes=200, issues_per_volume=4,
                      papers_per_issue=8)
        app.database.commit()
        unit = unit_of(app, "SearchResults", "Matching papers")
        conventional = generate_conventional(
            app.model, app.project.mapping, validate=False
        ).instantiate()
        return app, unit, conventional.unit_services[unit.id]

    def _search(self, library, keyword) -> list[str]:
        app, unit, dedicated = library
        bean = GenericUnitService(app.ctx).compute(
            app.registry.unit(unit.id), {"keyword": keyword}
        )
        titles = [row["title"] for row in bean.rows]
        # the dedicated class (E2 / E9's baseline) answers identically
        assert titles == [row["title"] for row in dedicated.compute(
            app.ctx, {"keyword": keyword}).rows]
        return titles

    def test_a_keyword_matches_as_literal_text(self, library):
        assert self._search(library, "Paper 12:") \
            == ["Paper 12: Data-Intensive Webs"]
        # wildcards the user typed are text: "a_e" matched "Paper" (all
        # 6 400), "100%" every title containing "100" (17)
        assert self._search(library, "a_e") == []
        assert self._search(library, "100%") == []
        assert self._search(library, "\\") == []
        app = library[0]
        [oid] = app.seed_entity(
            "Paper", [{"title": "100% of a_e\\", "pages": 1}])
        try:
            for keyword in ("100%", "a_e", "e\\", "% of"):
                assert self._search(library, keyword) == ["100% of a_e\\"]
        finally:
            app.database.execute("DELETE FROM paper WHERE oid = :o",
                                 {"o": oid})
        # too short for a trigram: the sweep, same matcher
        assert len(self._search(library, "9:")) == 640

    def test_a_search_costs_its_candidates(self, library):
        app, unit, _dedicated = library
        db = app.database
        query = app.registry.unit(unit.id).query
        assert query.endswith("LIKE :keyword ESCAPE '\\' ORDER BY t0.oid")
        self._search(library, "warm")  # plan, column store and postings
        store = db.table("paper").column_store
        for tombstones in (False, True):
            db.stats.reset()
            rows = db.query(query, {"keyword": "%Paper 123:%"})
            assert [row["oid"] for row in rows] == [123]
            assert db.stats.rows_scanned <= 64  # parent: 6 400
            assert "exec=columnar" in db.explain(query)
            if not tombstones:
                [oid] = app.seed_entity(
                    "Paper", [{"title": "Short-lived", "pages": 1}])
                db.execute("DELETE FROM paper WHERE oid = :o", {"o": oid})
                db.query(query, {"keyword": "%sync%"})
                assert store.tombstones > 0
        assert store.counters["gram_builds"] == 1

    def test_distinct_keywords_build_no_regex_and_no_plan(self, library,
                                                          regex_builds):
        app = library[0]
        self._search(library, "warm")
        plans = app.database.cached_plan_count()
        del regex_builds[:]
        for serial in range(1, 1001):
            assert len(self._search(library, f"Paper {serial}:")) == 1
        assert regex_builds == []
        assert app.database.cached_plan_count() == plans
