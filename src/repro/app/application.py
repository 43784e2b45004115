"""WebApplication: from models to a served application.

This is the deployment step a WebRatio user gets at the push of a
button: generate, install, deploy, serve.  The pieces stay exposed
(``database``, ``registry``, ``ctx``, ``controller``...) because the
experiments poke at them individually.
"""

from __future__ import annotations

from repro.codegen import GeneratedProject, generate_project
from repro.descriptors import DescriptorRegistry
from repro.mvc import Controller, FrontController, HttpRequest, HttpResponse
from repro.rdb import Database
from repro.rdb.sqlparser import CreateIndex
from repro.services import RuntimeContext
from repro.webml.model import WebMLModel


class WebApplication:
    """A generated, deployable, in-process data-intensive Web application."""

    def __init__(
        self,
        model: WebMLModel,
        bean_cache=None,
        view_renderer=None,
        page_cache=None,
        database: Database | None = None,
        pool_size: int = 8,
    ):
        self.model = model
        self.project: GeneratedProject = generate_project(model)
        self.database = database or Database(name=model.name)
        self._install_schema()
        self.registry = DescriptorRegistry()
        self.project.deploy(self.registry)
        self.ctx = RuntimeContext(
            self.database, self.registry, bean_cache=bean_cache,
            pool_size=pool_size,
        )
        self.ctx.table_write_sets = self.project.mapping.table_write_sets()
        # Deeper cache levels registered first (bean was registered by
        # the context): a page rebuild must find clean lower levels.
        fragment_cache = getattr(view_renderer, "fragment_cache", None)
        if fragment_cache is not None:
            self.ctx.register_cache_level("fragment", fragment_cache)
        self.page_cache = page_cache
        if page_cache is not None:
            self.ctx.register_cache_level("page", page_cache)
        self.controller = Controller.from_config(self.project.controller_config)
        self.front = FrontController(
            self.controller, self.ctx, view_renderer=view_renderer,
            page_cache=page_cache,
            device_classifier=self._device_classifier(view_renderer),
        )

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Shut the application down: flush and close the data tier.

        Idempotent; with a durable database this is what guarantees the
        WAL's group-commit tail reaches disk before process exit."""
        self.ctx.close()

    def __enter__(self) -> "WebApplication":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def enable_commit_invalidation(self) -> None:
        """No-op, kept for ``benchmarks/waterfall/workloads.py``: every
        application already invalidates its caches from the commit
        stream (see ``RuntimeContext._on_commit_event``)."""

    @staticmethod
    def _device_classifier(view_renderer):
        """Page-cache keys must separate the device classes the
        presentation tier can actually distinguish."""
        registry = getattr(view_renderer, "device_registry", None)
        if registry is None:
            return None
        return lambda user_agent: registry.profile_for(user_agent).name

    def _install_schema(self) -> None:
        from repro.util import stable_topological_sort

        schemas = {s.name: s for s in self.project.mapping.schemas}
        # Referenced tables must exist first (self-references excluded).
        dependencies = {
            name: [fk.target_table for fk in schema.foreign_keys
                   if fk.target_table != name]
            for name, schema in schemas.items()
        }
        existing = set(self.database.table_names())
        for name in stable_topological_sort(schemas, dependencies):
            if name not in existing:
                self.database.create_table(schemas[name])
                continue
            # a database deployed before the model asked for an index
            # (an older generator, an edited order_by) gains it here,
            # through the statement path: logged and replicated as DDL
            installed = dict(self.database.table(name).iter_indexes())
            for index in schemas[name].indexes:
                if index.name not in installed:
                    self.database.execute(CreateIndex(index, name))

    # -- data seeding -----------------------------------------------------------

    def seed_entity(self, entity: str, rows: list[dict]) -> list[int]:
        """Insert instances of an ER entity; returns the new oids.

        Attribute names are translated to columns through the mapping;
        relationship roles can be set by passing ``<Role>`` keys holding
        the related oid (FK realizations only).
        """
        entity_map = self.project.mapping.entity_map(entity)
        oids = []
        for values in rows:
            row: dict = {}
            for key, value in values.items():
                if self.model.data_model.has_relationship(key):
                    spec = self.project.mapping.connection_write(key)
                    if spec["kind"] != "fk" or spec["table"] != entity_map.table:
                        raise ValueError(
                            f"role {key!r} is not an FK on {entity!r}; "
                            "connect instances via connect_instances()"
                        )
                    row[spec["column"]] = value
                else:
                    row[entity_map.column_for(key)] = value
            stored = self.database.insert_row(entity_map.table, row)
            oids.append(stored["oid"])
        return oids

    def connect_instances(self, role: str, source_oid: int,
                          target_oid: int) -> None:
        """Create a relationship instance (bridge or FK realization)."""
        spec = self.project.mapping.connection_write(role)
        if spec["kind"] == "bridge":
            source_col = spec["source_column"]
            target_col = spec["target_column"]
            if not spec["forward"]:
                source_oid, target_oid = target_oid, source_oid
            self.database.insert_row(
                spec["table"], {source_col: source_oid, target_col: target_oid}
            )
        else:
            from_entity, _ = self.project.mapping.role_endpoints(role)
            owner_is_from = spec["owner_entity"] == from_entity
            owner_oid = source_oid if owner_is_from else target_oid
            other_oid = target_oid if owner_is_from else source_oid
            self.database.execute(
                f"UPDATE {spec['table']} SET {spec['column']} = :other "
                "WHERE oid = :owner",
                {"other": other_oid, "owner": owner_oid},
            )

    # -- artifact export ---------------------------------------------------------------

    def export_files(self, directory: str) -> list[str]:
        """Write every generated artifact to disk, the way the original
        tool materializes a project (descriptors as editable XML, the
        controller configuration, DDL, template skeletons).

        Returns the written paths (relative to ``directory``).
        """
        import os

        written = []
        for relative_path, content in self.project.as_files().items():
            absolute = os.path.join(directory, relative_path)
            os.makedirs(os.path.dirname(absolute), exist_ok=True)
            with open(absolute, "w") as handle:
                handle.write(content)
            written.append(relative_path)
        return sorted(written)

    # -- serving --------------------------------------------------------------------

    def handle(self, request: HttpRequest) -> HttpResponse:
        return self.front.handle(request)

    def get(self, url: str, session_id: str | None = None,
            headers: dict | None = None) -> HttpResponse:
        return self.handle(
            HttpRequest.from_url(url, headers=headers, session_id=session_id)
        )

    # -- conveniences used by examples/experiments ------------------------------------

    def page_url(self, site_view_name: str, page_name: str,
                 params: dict | None = None) -> str:
        from repro.mvc.http import build_url

        view = self.model.find_site_view(site_view_name)
        page = view.find_page(page_name)
        return build_url(f"/{view.id}/{page.id}", params)

    def operation_url(self, site_view_name: str, operation_name: str,
                      inputs: dict | None = None) -> str:
        from repro.mvc.http import build_url

        view = self.model.find_site_view(site_view_name)
        operation = next(
            o for o in view.operations if o.name == operation_name
        )
        params = {
            f"{operation.id}.{slot}": value
            for slot, value in (inputs or {}).items()
        }
        return build_url(f"/do/{operation.id}", params)
