"""Lifecycle of the storage engine across the stack, and commit-driven
cache invalidation.

Satellites of the storage-engine refactor: ``Database`` is a context
manager with an idempotent ``close()``; the runtime context, the
application and the app server all shut the engine down
deterministically.  Every committed transaction invalidates the caches:
the runtime context translates the tables it changed into entities and
both names of every role realized there, through the relational
mapping — whatever code path made the write, on a primary or a replica.
"""

from __future__ import annotations

import os
import shutil
import tempfile

from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.app import WebApplication
from repro.appserver import ThreadedAppServer
from repro.caching import FragmentCache, PageCache, UnitBeanCache
from repro.descriptors import DescriptorRegistry, OperationDescriptor
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
)
from repro.services.plugins import PluginUnit, plugin_registry
from repro.webml import LinkKind, Selector, WebMLModel
from repro.workloads.acm import build_acm_model
from repro.workloads.bookstore import build_bookstore_model, seed_bookstore

#: the column realizing GenreToBook (1:N, so on the book table)
_GENRE_COLUMN = "genre_to_book_oid"


class _RecordingCache:
    """Duck-typed cache level that records every invalidation."""

    def __init__(self):
        self.calls: list[tuple[tuple, tuple]] = []

    def get(self, key):
        return None

    def put(self, key, bean, entities, roles, policy=None):
        pass

    def invalidate_writes(self, entities, roles) -> int:
        self.calls.append((tuple(entities), tuple(roles)))
        return 0

    def flush(self) -> int:
        return 0


def _bookstore_model() -> WebMLModel:
    """The bookstore plus two units selected over a role's *inverse*
    name: ``Books by writer`` (Book over ``Wrote``, which
    ``CreditWriter`` connects as ``WrittenBy``) and ``Genre of book``
    (Genre over ``BookToGenre``, a foreign key on the *book* table);
    plus ``Reshelve``, a connect operation on the forward
    ``GenreToBook``."""
    model = build_bookstore_model()
    shop = model.find_site_view("shop")
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
    return model


def _fully_cached(model, database=None) -> WebApplication:
    """An application with the bean, fragment and page levels on."""
    for unit in model.all_units():
        if unit.kind != "entry":
            unit.cacheable = True
    return WebApplication(
        model, bean_cache=UnitBeanCache(), page_cache=PageCache(),
        view_renderer=_renderer(model, FragmentCache()), database=database,
    )


def _renderer(model, fragment_cache=None) -> PresentationRenderer:
    from repro.codegen import generate_project

    stylesheet = default_stylesheet(model.name)
    if fragment_cache is not None:
        for rule in stylesheet.unit_rules:
            rule.set_attrs["fragment"] = "cache"
    return PresentationRenderer(generate_project(model).skeletons,
                                stylesheet, fragment_cache=fragment_cache)


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
            assert server.running
        assert not app.database.closed
        app.close()

    def test_appserver_stop_can_close_app(self):
        app = WebApplication(build_acm_model())
        server = ThreadedAppServer(app, workers=2).start()
        server.stop(close_app=True)
        assert not server.running
        assert app.database.closed
        server.stop(close_app=True)  # both halves idempotent

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

    def test_entity_tables_translate_to_entities(self):
        app, cache = self._app()
        cache.calls.clear()
        app.seed_entity("Author", [{"name": "S. Ceri"}])
        assert cache.calls == [(("Author",), ())]
        assert app.ctx.commit_invalidations == 1
        app.close()

    def test_bridge_table_invalidates_both_endpoints(self):
        app, cache = self._app()
        papers = app.seed_entity(
            "Paper", [{"title": "WebML", "pages": 20}]
        )
        authors = app.seed_entity("Author", [{"name": "S. Ceri"}])
        cache.calls.clear()
        app.connect_instances("Authorship", papers[0], authors[0])
        assert cache.calls == [(("Author", "Paper"), ("AuthorOf", "Authorship"))]
        app.close()

    def test_direct_sql_writes_also_invalidate(self):
        """The point of the bridge: writes that never pass through an
        operation service (admin scripts, direct SQL) now invalidate."""
        app, cache = self._app()
        oids = app.seed_entity("Author", [{"name": "stale"}])
        cache.calls.clear()
        app.database.execute(
            "UPDATE author SET name = :n WHERE oid = :oid",
            {"n": "fresh", "oid": oids[0]},
        )
        assert cache.calls == [(("Author",), ())]
        app.close()

    def test_fk_table_carries_both_role_names(self):
        app, cache = self._app()
        cache.calls.clear()
        app.seed_entity("Paper", [{"title": "WebML", "pages": 20}])
        assert cache.calls == [(("Paper",), ("IssueToPaper", "PaperToIssue"))]
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
    rollback."""

    def __init__(self):
        super().__init__()
        model = _bookstore_model()
        self.app = _fully_cached(model)
        oids = seed_bookstore(self.app)
        self.truth = WebApplication(model, view_renderer=_renderer(model),
                                    database=self.app.database)
        self.books = list(oids["books"])
        self.genres = list(oids["genres"])
        self.writers = list(oids["writers"])
        self.bus_calls = self.commits = 0
        bus = self.app.ctx.invalidation_bus
        publish = bus.invalidate_writes

        def counted(entities=(), roles=()):
            self.bus_calls += 1
            return publish(entities, roles)

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
        urls += [page("Genre Page", "Genre", value=g) for g in self.genres]
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

    @rule(data=st.data(), price=_PRICES)
    def reprice(self, data, price):
        self._operate("Reprice", {
            "oid": data.draw(st.sampled_from(self.books)), "price": price})

    @rule(data=st.data())
    def credit(self, data):
        self._operate("CreditWriter", {
            "source_oid": data.draw(st.sampled_from(self.books)),
            "target_oid": data.draw(st.sampled_from(self.writers))})

    @rule(data=st.data(), name=_WORDS)
    def plugin_rename_writer(self, data, name):
        self._write(lambda: GenericOperationService(self.app.ctx).execute(
            self.rename,
            {"oid": data.draw(st.sampled_from(self.writers)), "name": name},
            Session("clerk"),
        ), commits=1)

    @rule(data=st.data())
    def move_book_by_sql(self, data):
        self._write(lambda: self.app.database.execute(
            f"UPDATE book SET {_GENRE_COLUMN} = :g WHERE oid = :b",
            {"g": data.draw(st.sampled_from(self.genres)),
             "b": data.draw(st.sampled_from(self.books))},
        ))

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
