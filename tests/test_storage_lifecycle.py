"""Lifecycle of the storage engine across the stack, and the
commit-driven invalidation bridge.

Satellites of the storage-engine refactor: ``Database`` is a context
manager with an idempotent ``close()``; the runtime context, the
application and the app server all shut the engine down
deterministically; and when commit-driven invalidation is enabled,
entity invalidations ride the engine's commit stream (translated from
tables back to ER entities) while role invalidations keep riding the
descriptor path.
"""

from __future__ import annotations

import os
import shutil
import tempfile

from repro.app import WebApplication
from repro.appserver import ThreadedAppServer
from repro.descriptors import DescriptorRegistry
from repro.rdb import Database
from repro.services import RuntimeContext
from repro.services.operations import ModifyOperationService
from repro.workloads.acm import build_acm_model


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

    def test_disabled_by_default(self):
        app, cache = self._app()
        before = len(cache.calls)
        app.seed_entity("Author", [{"name": "P. Fraternali"}])
        # seed-path writes bypass the bus entirely unless enabled
        assert len(cache.calls) == before
        assert app.ctx.commit_invalidations == 0
        app.close()

    def test_entity_tables_translate_to_entities(self):
        app, cache = self._app()
        app.enable_commit_invalidation()
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
        app.enable_commit_invalidation()
        cache.calls.clear()
        app.connect_instances("Authorship", papers[0], authors[0])
        assert cache.calls == [(("Author", "Paper"), ())]
        app.close()

    def test_enable_twice_subscribes_once(self):
        app, cache = self._app()
        app.enable_commit_invalidation()
        app.enable_commit_invalidation()
        cache.calls.clear()
        app.seed_entity("Author", [{"name": "once"}])
        assert len(cache.calls) == 1
        app.close()

    def test_direct_sql_writes_also_invalidate(self):
        """The point of the bridge: writes that never pass through an
        operation service (admin scripts, direct SQL) now invalidate."""
        app, cache = self._app()
        oids = app.seed_entity("Author", [{"name": "stale"}])
        app.enable_commit_invalidation()
        cache.calls.clear()
        app.database.execute(
            "UPDATE author SET name = :n WHERE oid = :oid",
            {"n": "fresh", "oid": oids[0]},
        )
        assert cache.calls == [(("Author",), ())]
        app.close()

    def test_operation_services_only_publish_roles(self):
        db = Database()
        ctx = RuntimeContext(db, DescriptorRegistry())
        published = []
        ctx.invalidation_bus.invalidate_writes = (
            lambda entities, roles: published.append(
                (tuple(entities), tuple(roles))
            )
        )

        class _Descriptor:
            operation_id = "op1"
            writes_entities = ("Paper",)
            writes_roles = ("Authorship",)

        service = ModifyOperationService()
        service._after_success(_Descriptor(), ctx)
        assert published == [(("Paper",), ("Authorship",))]

        published.clear()
        ctx.commit_invalidation_enabled = True
        service._after_success(_Descriptor(), ctx)
        # entities already rode the commit stream; only roles go out
        assert published == [((), ("Authorship",))]

        published.clear()
        _Descriptor.writes_roles = ()
        service._after_success(_Descriptor(), ctx)
        assert published == []
        ctx.close()
