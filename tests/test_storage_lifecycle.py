"""Lifecycle of the storage engine across the stack, and commit-driven
cache invalidation.

Satellites of the storage-engine refactor: ``Database`` is a context
manager with an idempotent ``close()``; the runtime context, the
application and the app server all shut the engine down
deterministically.  Every committed transaction invalidates the caches:
the runtime context translates the rows it changed — old and new — into
``(entity, oid)`` and ``(role, source oid)`` keys for both names of
every role realized there, through the relational mapping — whatever
code path made the write, on a primary or a replica.
"""

from __future__ import annotations

import copy
import functools
import os
import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.app import WebApplication
from repro.appserver import ThreadedAppServer
from repro.caching import FragmentCache, PageCache, UnitBeanCache
from repro.descriptors import (
    DescriptorRegistry,
    OperationDescriptor,
    UnitDescriptor,
)
from repro.er import ERModel
from repro.mvc.http import Session
from repro.presentation import PresentationRenderer
from repro.presentation.renderer import default_stylesheet
from repro.rdb import Database
from repro.rdb.wal import OP_DELETE, OP_INSERT, OP_UPDATE
from repro.services import (
    GenericOperationService,
    GenericPageService,
    OperationResult,
    RuntimeContext,
    UnitBean,
)
from repro.services.plugins import PluginUnit, plugin_registry
from repro.webml import (
    AttributeCondition,
    LinkKind,
    RelationshipCondition,
    Selector,
    WebMLModel,
)
from repro.workloads.acm import build_acm_model, seed_acm_data
from repro.workloads.bookstore import build_bookstore_model, seed_bookstore

#: the column realizing GenreToBook (1:N, so on the book table)
_GENRE_COLUMN = "genre_to_book_oid"


class _RecordingCache:
    """Duck-typed cache level that records every invalidation."""

    def __init__(self):
        self.calls: list[tuple] = []

    def get(self, key):
        return None

    def put(self, key, bean, keys, policy=None):
        pass

    def invalidate_writes(self, keys) -> int:
        self.calls.append(tuple(keys))
        return 0

    def flush(self) -> int:
        return 0


def _bookstore_model() -> WebMLModel:
    """The bookstore plus two units selected over a role's *inverse*
    name: ``Books by writer`` (Book over ``Wrote``, which
    ``CreditWriter`` connects as ``WrittenBy``) and ``Genre of book``
    (Genre over ``BookToGenre``, a foreign key on the *book* table);
    two role selectors narrowed by an attribute condition, ``Cheap books
    in genre`` (the foreign key on the unit's rows) and ``Cheap books by
    writer`` (through the bridge); plus ``Reshelve``, a connect
    operation on the forward ``GenreToBook``, and ``Uncredit``, a
    disconnect on the bridge."""
    model = build_bookstore_model()
    shop = model.find_site_view("shop")
    genre_page = shop.find_page("Genre Page")
    cheap_in_genre = genre_page.index_unit(
        "Cheap books in genre", "Book", display_attributes=["title", "price"],
        selector=Selector([RelationshipCondition("GenreToBook", "genre"),
                           AttributeCondition("price", "<", value=25.0)]),
        order_by=[("title", False)],
    )
    model.link(genre_page.unit("Genre"), cheap_in_genre,
               kind=LinkKind.TRANSPORT, params=[("oid", "genre")])
    book_page = shop.find_page("Book Page")
    genre_of_book = book_page.data_unit(
        "Genre of book", "Genre", display_attributes=["name"],
        selector=Selector.over_role("BookToGenre", "book"),
    )
    model.link(book_page.unit("Book"), genre_of_book,
               kind=LinkKind.TRANSPORT, params=[("oid", "book")])
    writer_page = shop.page("Writer Page")
    writer_data = writer_page.data_unit("Writer", "Writer",
                                        display_attributes=["name"])
    books_by_writer = writer_page.index_unit(
        "Books by writer", "Book", display_attributes=["title"],
        selector=Selector.over_role("Wrote", "writer"),
        order_by=[("title", False)],
    )
    model.link(writer_data, books_by_writer, kind=LinkKind.TRANSPORT,
               params=[("oid", "writer")])
    cheap_by_writer = writer_page.index_unit(
        "Cheap books by writer", "Book", display_attributes=["title", "price"],
        selector=Selector([RelationshipCondition("Wrote", "writer"),
                           AttributeCondition("price", "<", value=25.0)]),
        order_by=[("title", False)],
    )
    model.link(writer_data, cheap_by_writer, kind=LinkKind.TRANSPORT,
               params=[("oid", "writer")])
    model.link(book_page.unit("Authors"), writer_data,
               params=[("oid", "oid")])
    office = model.find_site_view("backoffice")
    reshelve = office.connect_op("Reshelve", "GenreToBook")
    desk = office.find_page("Desk")
    shelves = desk.index_unit("Shelves", "Genre", display_attributes=["name"])
    model.link(shelves, reshelve, params=[("oid", "source_oid")])
    model.link(desk.unit("Catalogue"), reshelve,
               params=[("oid", "target_oid")])
    model.link(reshelve, desk, kind=LinkKind.OK)
    model.link(reshelve, desk, kind=LinkKind.KO)
    uncredit = office.disconnect_op("Uncredit", "WrittenBy")
    model.link(desk.unit("Catalogue"), uncredit,
               params=[("oid", "source_oid")])
    model.link(desk.unit("Writers"), uncredit,
               params=[("oid", "target_oid")])
    model.link(uncredit, desk, kind=LinkKind.OK)
    model.link(uncredit, desk, kind=LinkKind.KO)
    return model


def _fully_cached(model, database=None, capacities=(4096, 1024, 512),
                  renderer=None) -> WebApplication:
    """An application with the bean, fragment and page levels on, of
    ``capacities`` entries each (in that order); ``renderer(model,
    fragment_cache)`` builds its view (default :func:`_renderer`)."""
    for unit in model.all_units():
        if unit.kind != "entry":
            unit.cacheable = True
    beans, fragments, pages = capacities
    return WebApplication(
        model, bean_cache=UnitBeanCache(beans), page_cache=PageCache(pages),
        view_renderer=(renderer or _renderer)(model,
                                              FragmentCache(fragments)),
        database=database,
    )


def _renderer(model, fragment_cache=None) -> PresentationRenderer:
    from repro.codegen import generate_project

    stylesheet = default_stylesheet(model.name)
    if fragment_cache is not None:
        for rule in stylesheet.unit_rules:
            rule.set_attrs["fragment"] = "cache"
    return PresentationRenderer(generate_project(model).skeletons,
                                stylesheet, fragment_cache=fragment_cache)


@functools.cache
def _bookstore_templates(fragments: bool) -> PresentationRenderer:
    """:func:`_bookstore_model`'s templates, compiled once per variant
    (with and without fragment rules): compiling them was most of a
    state-machine example's setup."""
    return _renderer(_bookstore_model(), FragmentCache() if fragments else None)


def _bookstore_renderer(model, fragment_cache=None) -> PresentationRenderer:
    """:func:`_renderer` for a :func:`_bookstore_model` (every build of
    it has the same pages and unit ids): a copy of the compiled variant
    over ``fragment_cache``, so no example sees another's fragments."""
    renderer = copy.copy(_bookstore_templates(fragment_cache is not None))
    renderer.fragment_cache = fragment_cache
    return renderer


def _bean(app, page_name: str, unit_name: str, selected: str, oid: int):
    page = app.model.find_site_view("shop").find_page(page_name)
    result = GenericPageService(app.ctx).compute_page(
        app.registry.page(page.id), {f"{page.unit(selected).id}.oid": oid}
    )
    return result.bean_named(unit_name)


def _titles_by_writer(app, writer: int) -> list[str]:
    bean = _bean(app, "Writer Page", "Books by writer", "Writer", writer)
    return [row["title"] for row in bean.rows]


def _genre_of_book(app, book: int) -> str | None:
    bean = _bean(app, "Book Page", "Genre of book", "Book", book)
    return bean.current["name"] if bean.current else None


def _operate(app, name: str, inputs: dict) -> OperationResult:
    view = app.model.find_site_view("backoffice")
    operation = next(o for o in view.operations if o.name == name)
    return GenericOperationService(app.ctx).execute(
        app.registry.operation(operation.id), inputs, Session("clerk"))


class _AdvanceService:
    """§7's workflow plug-in (``examples/plugin_units.py``): moves an
    order draft → approved → shipped, with no invalidation code."""

    kind = "advance"
    NEXT = {"draft": "approved", "approved": "shipped"}

    def execute(self, descriptor, inputs, ctx, session) -> OperationResult:
        oid = int(inputs["oid"])
        row = ctx.query("SELECT status AS status FROM purchase"
                        " WHERE oid = :oid", {"oid": oid}).first()
        status = self.NEXT.get(row["status"]) if row else None
        if status is None:
            return OperationResult(descriptor.operation_id, ok=False)
        ctx.execute("UPDATE purchase SET status = :s WHERE oid = :oid",
                    {"s": status, "oid": oid})
        return OperationResult(descriptor.operation_id, ok=True)


class TestDatabaseLifecycle:
    def test_context_manager_and_idempotent_close(self):
        with Database() as db:
            db.execute(
                "CREATE TABLE t (oid INTEGER NOT NULL, PRIMARY KEY (oid))"
            )
            assert not db.closed
        assert db.closed
        db.close()  # double close is defined: a no-op
        assert db.closed

    def test_durable_close_is_idempotent(self):
        base = tempfile.mkdtemp(prefix="db-close-")
        try:
            db = Database.open(os.path.join(base, "data"))
            db.execute(
                "CREATE TABLE t (oid INTEGER NOT NULL, PRIMARY KEY (oid))"
            )
            db.close()
            db.close()
            assert db.closed
        finally:
            shutil.rmtree(base, ignore_errors=True)

    def test_runtime_context_close_closes_database(self):
        db = Database()
        ctx = RuntimeContext(db, DescriptorRegistry())
        ctx.close()
        assert db.closed
        ctx.close()  # idempotent through the context too


class TestApplicationLifecycle:
    def test_app_close_and_context_manager(self):
        with WebApplication(build_acm_model()) as app:
            app.seed_entity("Volume", [
                {"number": 1, "year": 2002, "title": "V1"},
            ])
            assert not app.database.closed
        assert app.database.closed
        app.close()  # idempotent

    def test_appserver_stop_default_leaves_app_open(self):
        app = WebApplication(build_acm_model())
        with ThreadedAppServer(app, workers=2) as server:
            assert server.listen() == server.address
        assert server.address is None
        assert not app.database.closed
        app.close()

    def test_durable_app_flushes_on_close(self):
        base = tempfile.mkdtemp(prefix="app-durable-")
        try:
            data_dir = os.path.join(base, "data")
            app = WebApplication(
                build_acm_model(),
                database=Database.open(data_dir, group_commit_window=60.0),
            )
            oids = app.seed_entity("Volume", [
                {"number": 27, "year": 2002, "title": "TODS 27"},
            ])
            app.close()
            # despite the wide group-commit window, close() flushed:
            # a reopened database sees the seeded row
            with Database.open(data_dir) as recovered:
                rows = recovered.query(
                    "SELECT title FROM volume WHERE oid = :oid",
                    {"oid": oids[0]},
                )
                assert [r["title"] for r in rows] == ["TODS 27"]
        finally:
            shutil.rmtree(base, ignore_errors=True)

    def test_deploy_installs_model_derived_indexes_on_an_old_directory(self):
        """A data directory written by a deploy that knew PK / FK
        indexes only gains the model-derived ones at the next deploy —
        through logged DDL, so recovery and replicas have them too."""
        from repro.er.mapping import map_to_relational
        from repro.rdb.replication import open_replica
        from repro.rdb.snapshot import snapshot_bytes
        from repro.rdb.wal import read_log

        def index_names(db, table):
            return {n for n, _ in db.table(table).iter_indexes()
                    if not n.startswith("#")}

        base = tempfile.mkdtemp(prefix="app-reindex-")
        try:
            data_dir = os.path.join(base, "data")
            model = build_acm_model()
            with Database.open(data_dir) as old:
                # what _install_schema created before indexes were
                # derived from the hypertext model: the bare ER mapping
                for schema in map_to_relational(model.data_model).schemas:
                    old.create_table(schema)
                for n in range(9):
                    old.insert_row("paper", {"title": f"P{n % 4}", "pages": n})
                assert index_names(old, "paper") \
                    == {"ix_paper_issue_to_paper_oid"}
            app = WebApplication(model, database=Database.open(data_dir))
            db = app.database
            assert index_names(db, "paper") \
                == {"ix_paper_issue_to_paper_oid", "ix_paper_title"}
            assert index_names(db, "volume") == {"ix_volume_year"}
            paged = ("SELECT oid, title FROM paper ORDER BY title"
                     " LIMIT :n OFFSET :k")
            assert "IndexOrderScan(paper AS paper ON title)" \
                in db.explain(paged)
            window = {"n": 4, "k": 3}
            answer = db.query(paged, window).as_tuples()
            assert answer == db.prepare(paged, mode="seed") \
                .execute(window).as_tuples()
            # a second deploy over the same directory adds nothing
            ddl = db.stats.ddl
            WebApplication(model, database=db)
            assert db.stats.ddl == ddl
            # a replica that replays the primary's log has the indexes
            replica = open_replica()
            for record in read_log(db.engine.wal_path):
                replica.apply_replicated(record)
            assert snapshot_bytes(0, replica.engine.tables) \
                == snapshot_bytes(0, db.engine.tables)
            assert replica.query(paged, window).as_tuples() == answer
            assert "IndexOrderScan" in replica.explain(paged)
            # and so has recovery, from the log and from a snapshot
            for checkpoint in (False, True):
                if checkpoint:
                    db.checkpoint()
                db.close()
                db = Database.open(data_dir)
                assert index_names(db, "paper") \
                    == {"ix_paper_issue_to_paper_oid", "ix_paper_title"}
                assert db.query(paged, window).as_tuples() == answer
            db.close()
        finally:
            shutil.rmtree(base, ignore_errors=True)

    def test_durable_engine_surfaces_in_observability(self):
        base = tempfile.mkdtemp(prefix="app-obs-")
        try:
            app = WebApplication(
                build_acm_model(),
                database=Database.open(os.path.join(base, "data")),
            )
            app.seed_entity("Author", [{"name": "S. Ceri"}])
            snapshot = app.ctx.obs.metrics.snapshot()
            storage = snapshot["external"]["rdb.storage"]
            assert storage["engine"] == "durable"
            assert storage["wal_records"] > 0
            assert storage["wal_fsyncs"] > 0
            assert storage["recovery"]["recovered_lsn"] == 0
            histogram = app.ctx.obs.metrics.histogram(
                "rdb.wal_fsync_seconds"
            )
            assert histogram.count > 0
            app.close()
        finally:
            shutil.rmtree(base, ignore_errors=True)

    def test_memory_engine_surfaces_in_observability(self):
        app = WebApplication(build_acm_model())
        storage = app.ctx.obs.metrics.snapshot()["external"]["rdb.storage"]
        assert storage["engine"] == "memory"
        assert storage["commits"] > 0  # schema install committed
        app.close()


class TestCommitDrivenInvalidation:
    def _app(self):
        cache = _RecordingCache()
        app = WebApplication(build_acm_model(), bean_cache=cache)
        return app, cache

    # The call shapes below name instances: a written row publishes
    # ``(entity, oid)`` and ``(role, source-side value)`` for the rows
    # its redo ops carry, no longer the bare entity and role names —
    # one tuple per commit, the entity key first, then the role keys.

    def test_entity_tables_translate_to_entities(self):
        app, cache = self._app()
        cache.calls.clear()
        [author] = app.seed_entity("Author", [{"name": "S. Ceri"}])
        assert cache.calls == [(("Author", author),)]
        assert app.ctx.commit_invalidations == 1
        app.close()

    def test_bridge_table_invalidates_both_endpoints(self):
        """A link row publishes each role name at its source-side
        endpoint; it changes neither endpoint's own row, so neither
        entity is published."""
        app, cache = self._app()
        papers = app.seed_entity(
            "Paper", [{"title": "WebML", "pages": 20}]
        )
        authors = app.seed_entity("Author", [{"name": "S. Ceri"}])
        cache.calls.clear()
        app.connect_instances("Authorship", papers[0], authors[0])
        assert cache.calls == [(("Authorship", papers[0]),
                                ("AuthorOf", authors[0]))]
        app.close()

    def test_direct_sql_writes_also_invalidate(self):
        """The point of the bridge: writes that never pass through an
        operation service (admin scripts, direct SQL) now invalidate —
        an update publishes its old and new row, here the same key."""
        app, cache = self._app()
        oids = app.seed_entity("Author", [{"name": "stale"}])
        cache.calls.clear()
        app.database.execute(
            "UPDATE author SET name = :n WHERE oid = :oid",
            {"n": "fresh", "oid": oids[0]},
        )
        assert cache.calls == [(("Author", oids[0]),)]
        app.close()

    def test_fk_table_carries_both_role_names(self):
        """A paper row publishes ``IssueToPaper`` at its foreign key
        (the role starts at the issue) and ``PaperToIssue`` at its own
        oid; a NULL foreign key publishes nothing for its role."""
        app, cache = self._app()
        [issue] = app.seed_entity("Issue", [{"number": 1}])
        cache.calls.clear()
        [linked] = app.seed_entity("Paper", [
            {"title": "WebML", "pages": 20, "IssueToPaper": issue}])
        [loose] = app.seed_entity("Paper", [{"title": "Loose", "pages": 2}])
        assert cache.calls == [
            (("Paper", linked), ("IssueToPaper", issue),
             ("PaperToIssue", linked)),
            (("Paper", loose), ("PaperToIssue", loose)),
        ]
        app.close()

    def test_an_unmapped_table_publishes_its_name_whole(self):
        """A table the ER mapping does not know has no instance keys:
        each commit writing it publishes the table's name whole, and a
        cache entry holding that name is dropped while others stay."""
        app, cache = self._app()
        app.database.execute(
            "CREATE TABLE audit (oid INTEGER NOT NULL AUTOINCREMENT,"
            " note VARCHAR(40), PRIMARY KEY (oid))")
        assert cache.calls == []  # a schema record publishes nothing
        app.database.execute("INSERT INTO audit (note) VALUES (:n)",
                             {"n": "seen"})
        assert cache.calls == [("audit",)]
        cache.calls.clear()
        app.database.execute("UPDATE audit SET note = :n", {"n": "again"})
        assert cache.calls == [("audit",)]
        app.close()

        beans = UnitBeanCache()
        app = WebApplication(build_acm_model(), bean_cache=beans)
        app.database.execute(
            "CREATE TABLE audit (oid INTEGER NOT NULL AUTOINCREMENT,"
            " note VARCHAR(40), PRIMARY KEY (oid))")
        beans.put("audit", UnitBean("u1", "Audit", "index"), keys=["audit"])
        beans.put("papers", UnitBean("u2", "Papers", "index"),
                  keys=["Paper"])
        app.database.execute("INSERT INTO audit (note) VALUES (:n)",
                             {"n": "seen"})
        assert beans.get("audit") is None
        assert beans.get("papers") is not None
        assert beans.stats.invalidations == 1
        app.close()

    def test_inverse_role_name_drops_the_bean(self):
        """A unit selected over a role's inverse name (``Wrote``) depends
        on that name; connecting the role under its forward name
        (``WrittenBy``) must still drop it."""
        app = _fully_cached(_bookstore_model())
        oids = seed_bookstore(app)
        writer = oids["writers"][2]  # E. Gamma: one book
        assert _titles_by_writer(app, writer) == ["Design Patterns"]
        outcome = _operate(app, "CreditWriter", {
            "source_oid": oids["books"][0], "target_oid": writer})
        assert outcome.ok
        assert len(_titles_by_writer(app, writer)) == 2

    def test_fk_role_changed_by_direct_sql(self):
        app = _fully_cached(_bookstore_model())
        oids = seed_bookstore(app)
        book = oids["books"][0]
        assert _genre_of_book(app, book) == "Web Engineering"
        app.database.execute(
            f"UPDATE book SET {_GENRE_COLUMN} = :g WHERE oid = :b",
            {"g": oids["genres"][0], "b": book},
        )
        assert _genre_of_book(app, book) == "Databases"

    def test_fk_role_changed_by_a_connect_operation(self):
        app = _fully_cached(_bookstore_model())
        oids = seed_bookstore(app)
        book = oids["books"][0]
        assert _genre_of_book(app, book) == "Web Engineering"
        outcome = _operate(app, "Reshelve", {
            "source_oid": oids["genres"][2], "target_oid": book})
        assert outcome.ok
        assert _genre_of_book(app, book) == "Software Design"

    def test_fk_role_changed_on_the_primary_reaches_a_replica(self):
        from repro.rdb.replication import open_replica
        from repro.rdb.wal import read_log

        base = tempfile.mkdtemp(prefix="app-replica-inval-")
        try:
            primary = WebApplication(
                _bookstore_model(),
                database=Database.open(os.path.join(base, "data")),
            )
            oids = seed_bookstore(primary)
            wal_path = primary.database.engine.wal_path
            replica_db = open_replica()

            def ship():
                for record in read_log(wal_path):
                    replica_db.apply_replicated(record)

            ship()
            replica = _fully_cached(_bookstore_model(), database=replica_db)
            book = oids["books"][0]
            assert _genre_of_book(replica, book) == "Web Engineering"
            primary.database.execute(
                f"UPDATE book SET {_GENRE_COLUMN} = :g WHERE oid = :b",
                {"g": oids["genres"][0], "b": book},
            )
            ship()
            assert _genre_of_book(replica, book) == "Databases"
            primary.close()
        finally:
            shutil.rmtree(base, ignore_errors=True)

    def test_a_move_on_the_primary_drops_only_its_instances_on_a_replica(
            self):
        """The replica reads the moved book's old and new rows from the
        shipped WAL: the two genres' pages and the book's own page are
        rebuilt; the home page and every other genre and book page are
        still hits."""
        from repro.rdb.replication import open_replica
        from repro.rdb.wal import read_log

        base = tempfile.mkdtemp(prefix="app-replica-move-")
        try:
            primary = WebApplication(
                _bookstore_model(),
                database=Database.open(os.path.join(base, "data")),
            )
            oids = seed_bookstore(primary)
            wal_path = primary.database.engine.wal_path
            replica_db = open_replica()

            def ship():
                for record in read_log(wal_path):
                    replica_db.apply_replicated(record)

            ship()
            replica = _fully_cached(_bookstore_model(), database=replica_db)
            shop = replica.model.find_site_view("shop")

            def url(page, unit, oid):
                unit_id = shop.find_page(page).unit(unit).id
                return replica.page_url("shop", page, {f"{unit_id}.oid": oid})

            urls = [replica.page_url("shop", "Home")]
            urls += [url("Genre Page", "Genre", g) for g in oids["genres"]]
            urls += [url("Book Page", "Book", b) for b in oids["books"]]
            for target in urls:
                replica.get(target)
            book, old_genre, new_genre = \
                oids["books"][0], oids["genres"][1], oids["genres"][0]
            primary.database.execute(
                f"UPDATE book SET {_GENRE_COLUMN} = :g WHERE oid = :b",
                {"g": new_genre, "b": book},
            )
            ship()
            rebuilt = []
            for target in urls:
                misses = replica.page_cache.stats.misses
                replica.get(target)
                if replica.page_cache.stats.misses > misses:
                    rebuilt.append(target)
            assert rebuilt == [url("Genre Page", "Genre", new_genre),
                               url("Genre Page", "Genre", old_genre),
                               url("Book Page", "Book", book)]
            assert replica.page_cache.stats.invalidations == 3
            primary.close()
        finally:
            shutil.rmtree(base, ignore_errors=True)

    def test_plugin_operation_needs_no_invalidation_code(self):
        """A §7 plug-in operation writes through the context like any
        code; its commit drops the page, fragment and bean levels."""
        plugin_registry.register(PluginUnit(
            kind="advance", tag_name="webml:advanceOp",
            operation_service=_AdvanceService(),
        ))
        try:
            data = ERModel(name="orders")
            data.entity("Purchase", [("product", "VARCHAR(80)", True),
                                     ("status", "VARCHAR(20)", True)])
            model = WebMLModel(data, name="orders")
            view = model.site_view("desk")
            page = view.page("Orders", home=True)
            page.index_unit("Open orders", "Purchase",
                            display_attributes=["product", "status"])
            app = _fully_cached(model)
            [order] = app.seed_entity("Purchase", [
                {"product": "TravelMate 720", "status": "draft"},
            ])
            url = app.page_url("desk", "Orders")
            assert "draft" in app.get(url).body
            advance = OperationDescriptor(
                operation_id="wf1", name="AdvanceOrder", kind="advance",
                site_view_id=view.id,
            )
            app.registry.deploy_operation(advance)
            outcome = GenericOperationService(app.ctx).execute(
                advance, {"oid": order}, Session("s"))
            assert outcome.ok
            body = app.get(url).body
            assert "approved" in body and "draft" not in body
        finally:
            plugin_registry.unregister("advance")


class _RenameWriterService:
    """A §7 plug-in operation that renames a writer through the
    context's plain ``execute`` (autocommit, no invalidation code)."""

    kind = "rename_writer"

    def execute(self, descriptor, inputs, ctx, session) -> OperationResult:
        affected = ctx.execute(
            "UPDATE writer SET name = :name WHERE oid = :oid",
            {"name": inputs["name"], "oid": inputs["oid"]},
        )
        return OperationResult(descriptor.operation_id, ok=affected == 1)


_WORDS = st.sampled_from(["Alpha", "Beta", "Gamma", "Delta", "Web Data"])
_PRICES = st.sampled_from([9.5, 20.0, 31.25])


class _InvalidationMachine(RuleBasedStateMachine):
    """Every write path against an independent truth.

    ``app`` has the bean, fragment and page levels on; ``truth`` is a
    second application over the *same* database with no cache level,
    so it cannot be stale.  After every step each known page served by
    ``app`` must equal the page ``truth`` computes — whether ``app``
    answered from a level or rebuilt.  Each step also checks the
    publisher: one bus call per commit that changed rows, none for a
    rollback.

    Every level indexes entries by instance, so the steps aim at the
    ways an instance key can miss: a row moving between two parents
    (the old parent is named only by the before-image), a NULL foreign
    key, an oid inserted that an empty bean was bound to, a parent
    deleted under its children, and a change to a row a unit shows but
    reaches through a bridge or a foreign key on the other row."""

    #: bean, fragment and page entries of ``app``'s levels
    capacities = (4096, 1024, 512)

    def __init__(self):
        super().__init__()
        model = _bookstore_model()
        self.app = _fully_cached(model, capacities=self.capacities,
                                 renderer=_bookstore_renderer)
        oids = seed_bookstore(self.app)
        self.truth = WebApplication(model,
                                    view_renderer=_bookstore_renderer(model),
                                    database=self.app.database)
        self.books = list(oids["books"])
        self.genres = list(oids["genres"])
        self.writers = list(oids["writers"])
        #: a genre oid no row has yet: its page is served (empty) before
        #: a step inserts it with this explicit oid
        self.pending_genre = max(self.genres) + 100
        self.genre_pages = self.genres + [self.pending_genre]
        self.bus_calls = self.commits = 0
        bus = self.app.ctx.invalidation_bus
        publish = bus.invalidate_writes

        def counted(keys=()):
            self.bus_calls += 1
            return publish(keys)

        bus.invalidate_writes = counted
        self.app.database.commit_stream.subscribe(self._count_commit)
        shop = model.find_site_view("shop")
        self.unit_ids = {
            name: shop.find_page(page).unit(name).id
            for page, name in (("Genre Page", "Genre"), ("Book Page", "Book"),
                               ("Writer Page", "Writer"),
                               ("Search Results", "Hits"),
                               ("Catalogue", "All books"))
        }
        self.rename = OperationDescriptor(
            operation_id="rw1", name="RenameWriter", kind="rename_writer",
            site_view_id=shop.id,
        )

    def _count_commit(self, event) -> None:
        if any(op[0] in (OP_INSERT, OP_UPDATE, OP_DELETE)
               for op in event.ops):
            self.commits += 1

    def _urls(self) -> list[str]:
        def page(name, unit=None, slot="oid", value=None):
            params = {} if unit is None \
                else {f"{self.unit_ids[unit]}.{slot}": value}
            return self.app.page_url("shop", name, params)

        urls = [page("Home"), page("Catalogue"),
                page("Catalogue", "All books", "block", 2),
                page("Search Results", "Hits", "keyword", "a")]
        urls += [page("Genre Page", "Genre", value=g)
                 for g in self.genre_pages]
        urls += [page("Book Page", "Book", value=b) for b in self.books]
        urls += [page("Writer Page", "Writer", value=w) for w in self.writers]
        return urls

    def _write(self, action, commits: int | None = None):
        """Run one write step; it must make one bus call per commit."""
        bus_calls, commits_before = self.bus_calls, self.commits
        outcome = action()
        made = self.commits - commits_before
        assert self.bus_calls - bus_calls == made
        assert made <= 1
        if commits is not None:
            assert made == commits
        return outcome

    def _operate(self, name: str, inputs: dict, commits: int | None = None):
        return self._write(lambda: _operate(self.app, name, inputs), commits)

    @rule(title=_WORDS, price=_PRICES)
    def create(self, title, price):
        outcome = self._operate("CreateBook", {
            "title": title, "price": price, "year": 2003}, commits=1)
        self.books.append(outcome.outputs["oid"])

    @rule(data=st.data())
    def delete(self, data):
        self._operate("DropBook", {"oid": data.draw(st.sampled_from(self.books))})

    # -- the steps, callable with chosen values (see TestInstanceKeySteps)

    def reprice_book(self, book, price):
        self._operate("Reprice", {"oid": book, "price": price})

    def rename_writer(self, writer, name):
        self._write(lambda: GenericOperationService(self.app.ctx).execute(
            self.rename, {"oid": writer, "name": name}, Session("clerk"),
        ), commits=1)

    def move_book(self, book, genre):
        """Out of one genre into another, or into none: the genre it
        left is named only by the old row."""
        self._write(lambda: self.app.database.execute(
            f"UPDATE book SET {_GENRE_COLUMN} = :g WHERE oid = :b",
            {"g": genre, "b": book}))

    def insert_genre_with_oid(self, name):
        """The empty Genre Page of this oid was served already: its data
        unit holds the oid it was bound to, not the none it returned."""
        genre = self.pending_genre
        self._write(lambda: self.app.database.execute(
            "INSERT INTO genre (oid, name) VALUES (:g, :n)",
            {"g": genre, "n": name}), commits=1)
        self.genres.append(genre)
        self.pending_genre = genre + 1
        self.genre_pages.append(self.pending_genre)

    def delete_genre(self, genre):
        """Its books' foreign keys are set to NULL in the same commit."""
        self._write(lambda: self.app.database.execute(
            "DELETE FROM genre WHERE oid = :g", {"g": genre}), commits=1)
        self.genres.remove(genre)

    def rename_genre(self, genre, name):
        """Seen on a Book Page through ``Genre of book``: the foreign key
        is on the book row, so only the genre row's own key names it."""
        self._write(lambda: self.app.database.execute(
            "UPDATE genre SET name = :n WHERE oid = :g",
            {"n": name, "g": genre}), commits=1)

    def uncredit_writer(self, book, writer):
        self._operate("Uncredit", {"source_oid": book, "target_oid": writer})

    # -- the rules ------------------------------------------------------------

    @rule(data=st.data(), price=_PRICES)
    def reprice(self, data, price):
        self.reprice_book(data.draw(st.sampled_from(self.books)), price)

    @rule(data=st.data())
    def credit(self, data):
        self._operate("CreditWriter", {
            "source_oid": data.draw(st.sampled_from(self.books)),
            "target_oid": data.draw(st.sampled_from(self.writers))})

    @rule(data=st.data(), name=_WORDS)
    def plugin_rename_writer(self, data, name):
        self.rename_writer(data.draw(st.sampled_from(self.writers)), name)

    @rule(data=st.data())
    def move_book_by_sql(self, data):
        self.move_book(data.draw(st.sampled_from(self.books)),
                       data.draw(st.sampled_from(self.genres + [None])))

    @rule(name=_WORDS)
    def insert_genre(self, name):
        self.insert_genre_with_oid(name)

    @precondition(lambda self: len(self.genres) > 1)
    @rule(data=st.data())
    def delete_referenced_genre(self, data):
        self.delete_genre(data.draw(st.sampled_from(self.genres)))

    @rule(data=st.data(), name=_WORDS)
    def rename_some_genre(self, data, name):
        self.rename_genre(data.draw(st.sampled_from(self.genres)), name)

    @rule(data=st.data())
    def uncredit(self, data):
        self.uncredit_writer(data.draw(st.sampled_from(self.books)),
                             data.draw(st.sampled_from(self.writers)))

    @rule(data=st.data(), title=_WORDS)
    def seed_book(self, data, title):
        genre = data.draw(st.sampled_from(self.genres))
        self.books += self._write(lambda: self.app.seed_entity("Book", [{
            "title": title, "price": 5.0, "GenreToBook": genre}]), commits=1)

    @rule(data=st.data())
    def rolled_back(self, data):
        database = self.app.database

        def abandon():
            database.begin()
            database.execute("UPDATE book SET title = 'ghost' WHERE oid = :b",
                             {"b": data.draw(st.sampled_from(self.books))})
            database.rollback()

        self._write(abandon, commits=0)

    @rule(data=st.data(), price=_PRICES)
    def bulk_reprice(self, data, price):
        chosen = data.draw(st.lists(st.sampled_from(self.books), min_size=2,
                                    max_size=3, unique=True))
        self._operate("Reprice", {"oid": chosen,
                                  "price": [price] * len(chosen)})

    @invariant()
    def cached_pages_equal_the_truth(self):
        for url in self._urls():
            assert self.app.get(url).body == self.truth.get(url).body, url


@pytest.fixture
def _rename_writer_plugin():
    plugin_registry.register(PluginUnit(
        kind="rename_writer", tag_name="webml:renameWriterOp",
        operation_service=_RenameWriterService(),
    ))
    yield
    plugin_registry.unregister("rename_writer")


@pytest.mark.usefixtures("_rename_writer_plugin")
class TestInstanceKeySteps:
    """Each way an instance key can miss, scripted once against the
    truth, every page warm at every level first.  The seed: books 1-5
    cost 35-60 (none under the cheap units' 25); book 1 is in genre 2
    and written by writers 1 and 2; book 2 is in genre 3 by writer 3."""

    @pytest.fixture
    def machine(self):
        machine = _InvalidationMachine()
        machine.cached_pages_equal_the_truth()
        return machine

    def test_move_a_book_to_another_genre(self, machine):
        machine.move_book(machine.books[0], machine.genres[0])
        machine.cached_pages_equal_the_truth()

    def test_move_a_book_to_no_genre(self, machine):
        machine.move_book(machine.books[0], None)
        machine.cached_pages_equal_the_truth()

    def test_reprice_a_book_the_cheap_genre_list_did_not_return(
            self, machine):
        machine.reprice_book(machine.books[1], 9.5)
        machine.cached_pages_equal_the_truth()

    def test_reprice_a_book_the_cheap_writer_list_did_not_return(
            self, machine):
        machine.reprice_book(machine.books[0], 20.0)
        machine.cached_pages_equal_the_truth()

    def test_insert_a_genre_with_an_explicit_oid(self, machine):
        machine.insert_genre_with_oid("Data Webs")
        machine.cached_pages_equal_the_truth()

    def test_delete_a_genre_books_reference(self, machine):
        machine.delete_genre(machine.genres[1])
        machine.cached_pages_equal_the_truth()

    def test_rename_a_genre_seen_through_genre_of_book(self, machine):
        machine.rename_genre(machine.genres[1], "Webs")
        machine.cached_pages_equal_the_truth()

    def test_rename_a_writer_seen_through_the_bridge(self, machine):
        machine.rename_writer(machine.writers[0], "Stefano Ceri")
        machine.cached_pages_equal_the_truth()

    def test_disconnect_through_the_bridge(self, machine):
        machine.uncredit_writer(machine.books[0], machine.writers[1])
        machine.cached_pages_equal_the_truth()


#: ``All volumes`` (the Volumes page) hand-optimized to list only the
#: volumes that have a first issue: the statement reads the issue
#: table, which neither the generated query nor ``<dependsOn>`` names
_VOLUMES_WITH_A_FIRST_ISSUE = (
    "SELECT t0.oid AS oid, t0.number AS number, t0.year AS year"
    " FROM volume t0 JOIN issue t1 ON t1.volume_to_issue_oid = t0.oid"
    " WHERE t1.number = 1 ORDER BY t0.year ASC")


def _redeploy_optimized(app, unit_id: str, query: str):
    """What a data expert does (§1, §8): edit the deployed descriptor's
    SQL, mark it optimized and hot-redeploy the XML."""
    descriptor = UnitDescriptor.from_xml(app.registry.units[unit_id].xml)
    descriptor.query, descriptor.optimized = query, True
    return app.registry.redeploy_unit(descriptor.to_xml())


class _LatestYearService:
    """A plug-in unit over ``Volume`` that shows the selected volume
    beside the latest year of any volume: it reads more of the table
    than its generated key-selector statement."""

    kind = "latest_year"

    def compute(self, descriptor, inputs, ctx):
        bean = UnitBean(descriptor.unit_id, descriptor.name, self.kind)
        [row] = ctx.query(descriptor.query, inputs).rows
        latest = ctx.query("SELECT MAX(t0.year) AS y FROM volume t0",
                           {}).scalar()
        bean.current = {**row, "latest": latest}
        return bean


class _LatestYearTag:
    def render(self, bean, tag, context):
        from repro.xmlkit import Element

        box = Element("div", {"class": "unit", "id": bean.unit_id})
        box.add("span", text=f"{bean.current['oid']}/{bean.current['latest']}")
        return box


class TestHandOptimizedStatements:
    """A redeployed statement is held by the rows it reads, whatever
    the generator wrote: a cache-less twin over the same database is
    the truth."""

    @pytest.fixture
    def apps(self):
        model = build_acm_model()
        app = _fully_cached(model)
        seed_acm_data(app)
        truth = WebApplication(model, view_renderer=_renderer(model),
                               database=app.database)
        return app, truth

    def test_a_table_only_the_optimized_statement_reads(self, apps):
        app, truth = apps
        for each in apps:
            _redeploy_optimized(each, "unit1", _VOLUMES_WITH_A_FIRST_ISSUE)
        url = app.page_url("public", "Volumes", {})
        before = truth.get(url).body
        assert app.get(url).body == before
        app.database.execute("UPDATE issue SET number = 7 WHERE number = 1")
        after = truth.get(url).body
        assert after != before
        assert app.get(url).body == after

    def test_an_optimized_key_lookup_holds_the_instance(self, apps):
        app, _ = apps
        descriptor = _redeploy_optimized(
            app, "unit5",
            "SELECT t0.oid AS oid, t0.title AS title, t0.abstract AS abstract,"
            " t0.pages AS pages FROM paper t0 WHERE t0.oid = :oid")
        assert descriptor.optimized
        bean = GenericPageService(app.ctx).compute_page(
            app.registry.page(app.model.page_of_unit(
                app.model.element("unit5")).id),
            {"unit5.oid": 3}).bean_named("Paper data")
        assert bean.current["oid"] == 3
        assert bean.dependency_keys() == (("Paper", 3),)

    def test_a_plugin_statement_is_not_what_its_service_reads(self):
        """A plug-in's service runs its own statements, whatever its
        descriptor's generated SQL says: it holds its names whole."""
        plugin_registry.register(PluginUnit(
            kind="latest_year", tag_name="webml:latestYearUnit",
            service=_LatestYearService(), renderer=_LatestYearTag(),
        ))
        try:
            model = build_acm_model()
            page = model.find_site_view("public").find_page("Volume Page")
            latest = page.plugin_unit("Latest year", "latest_year", "Volume",
                                      selector=Selector.by_key())
            model.link(page.unit("Volume data"), latest,
                       kind=LinkKind.TRANSPORT, params=[("oid", "oid")])
            model.validate()
            app = _fully_cached(model)
            first, *_, last = seed_acm_data(app)["volumes"]
            truth = WebApplication(model, view_renderer=_renderer(model),
                                   database=app.database)
            url = app.page_url("public", "Volume Page",
                               {f"{page.unit('Volume data').id}.oid": first})
            before = truth.get(url).body
            assert app.get(url).body == before
            app.database.execute(
                "UPDATE volume SET year = 2099 WHERE oid = :v", {"v": last})
            after = truth.get(url).body
            assert after != before
            assert app.get(url).body == after
        finally:
            plugin_registry.unregister("latest_year")


class _FullLevelsMachine(_InvalidationMachine):
    """The same steps and truth with every level about half the size of
    what one invariant sweep reads (38 beans, 33 fragments, 16 pages),
    so reads run admission — a full level refuses a key's first miss —
    and eviction under every write path.  Much smaller levels only
    refuse: a sweep's other keys clear the refusal memory before a key
    comes back, so no second miss is ever admitted."""

    capacities = (20, 16, 8)


class TestInvalidationGroundTruth:
    def test_every_write_path_keeps_every_level_fresh(self):
        plugin_registry.register(PluginUnit(
            kind="rename_writer", tag_name="webml:renameWriterOp",
            operation_service=_RenameWriterService(),
        ))
        try:
            run_state_machine_as_test(_InvalidationMachine, settings=settings(
                max_examples=200, stateful_step_count=8, deadline=None,
                suppress_health_check=[HealthCheck.too_slow],
            ))
        finally:
            plugin_registry.unregister("rename_writer")

    @pytest.mark.usefixtures("_rename_writer_plugin")
    def test_every_write_path_keeps_full_levels_fresh(self):
        run_state_machine_as_test(_FullLevelsMachine, settings=settings(
            max_examples=20, stateful_step_count=8, deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        ))
