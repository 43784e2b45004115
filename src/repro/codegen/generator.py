"""Whole-project generation.

``generate_project`` runs every generator over a validated WebML model
and bundles the artifacts the way a WebRatio deployment would lay them
out: relational DDL, XML descriptors, the controller configuration, and
one template skeleton per page.  The bundle deploys into a
:class:`~repro.descriptors.DescriptorRegistry` (honouring §6's
optimized-descriptor preservation on regeneration).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.codegen.configgen import generate_controller_config
from repro.codegen.descriptorgen import (
    generate_operation_descriptor,
    generate_page_descriptor,
    generate_unit_descriptor,
)
from repro.codegen.skeletongen import generate_page_skeleton
from repro.descriptors import (
    DescriptorRegistry,
    OperationDescriptor,
    PageDescriptor,
    UnitDescriptor,
)
from repro.er.mapping import RelationalMapping, map_to_relational
from repro.webml.model import WebMLModel


@dataclass
class GeneratedProject:
    """Everything the generators produced for one application."""

    model: WebMLModel
    mapping: RelationalMapping
    ddl: list[str] = field(default_factory=list)
    unit_descriptors: list[UnitDescriptor] = field(default_factory=list)
    page_descriptors: list[PageDescriptor] = field(default_factory=list)
    operation_descriptors: list[OperationDescriptor] = field(default_factory=list)
    controller_config: str = ""
    skeletons: dict[str, str] = field(default_factory=dict)  # page_id → xml
    generation_seconds: float = 0.0

    def deploy(self, registry: DescriptorRegistry) -> dict[str, int]:
        """Deploy all descriptors; returns preserved-descriptor counts."""
        preserved_units = 0
        for descriptor in self.unit_descriptors:
            if not registry.deploy_unit(descriptor):
                preserved_units += 1
        for descriptor in self.page_descriptors:
            registry.deploy_page(descriptor)
        preserved_operations = 0
        for descriptor in self.operation_descriptors:
            if not registry.deploy_operation(descriptor):
                preserved_operations += 1
        return {
            "preserved_units": preserved_units,
            "preserved_operations": preserved_operations,
        }

    def as_files(self) -> dict[str, str]:
        """The on-disk layout of the generated artifacts."""
        files: dict[str, str] = {
            "sql/schema.sql": ";\n\n".join(self.ddl) + ";\n",
            "conf/controller-config.xml": self.controller_config,
        }
        for descriptor in self.unit_descriptors:
            files[f"descriptors/units/{descriptor.unit_id}.xml"] = descriptor.to_xml()
        for descriptor in self.page_descriptors:
            files[f"descriptors/pages/{descriptor.page_id}.xml"] = descriptor.to_xml()
        for descriptor in self.operation_descriptors:
            files[
                f"descriptors/operations/{descriptor.operation_id}.xml"
            ] = descriptor.to_xml()
        for page_id, skeleton in self.skeletons.items():
            files[f"skeletons/{page_id}.xml"] = skeleton
        return files

    def counts(self) -> dict[str, int]:
        """The §8-style artifact inventory."""
        queries = 0
        for descriptor in self.unit_descriptors:
            if descriptor.query:
                queries += 1
            if descriptor.count_query:
                queries += 1
            queries += len(descriptor.levels)
        for descriptor in self.operation_descriptors:
            queries += len(descriptor.statements)
            if descriptor.user_query:
                queries += 1
        return {
            "site_views": len(self.model.site_views),
            "page_templates": len(self.skeletons),
            "unit_descriptors": len(self.unit_descriptors),
            "page_descriptors": len(self.page_descriptors),
            "operation_descriptors": len(self.operation_descriptors),
            "sql_statements": queries,
            "tables": len(self.mapping.schemas),
        }


def generate_project(model: WebMLModel,
                     validate: bool = True) -> GeneratedProject:
    """Generate all artifacts for ``model``."""
    started = time.perf_counter()
    if validate:
        model.validate()
    mapping = map_to_relational(model.data_model)
    project = GeneratedProject(model=model, mapping=mapping)
    for view in model.site_views:
        landmarks = [(p.id, p.name) for p in view.landmark_pages()]
        for page in view.all_pages():
            project.page_descriptors.append(
                generate_page_descriptor(model, page)
            )
            project.skeletons[page.id] = generate_page_skeleton(
                page, landmarks=landmarks
            )
            for unit in page.units:
                project.unit_descriptors.append(
                    generate_unit_descriptor(unit, mapping)
                )
    for operation in model.all_operations():
        project.operation_descriptors.append(
            generate_operation_descriptor(model, operation, mapping)
        )
    project.ddl = _schema_ddl(project)
    project.controller_config = generate_controller_config(model)
    project.generation_seconds = time.perf_counter() - started
    return project


def _schema_ddl(project: GeneratedProject) -> list[str]:
    """CREATE TABLE, then one CREATE INDEX per index of the table — the
    foreign-key ones and those the unit descriptors derived, each under
    a comment naming the units that asked for it.  Runs after descriptor
    generation, which is what adds the derived indexes to the schemas."""
    asked: dict[str, list[str]] = {}
    for descriptor in project.unit_descriptors:
        for use in descriptor.indexes:
            asked.setdefault(use.name, []).append(
                f"{descriptor.unit_id} ({use.reason})"
            )
    ddl = []
    for schema in project.mapping.schemas:
        ddl.append(schema.to_ddl())
        for index, statement in zip(schema.indexes, schema.index_ddl()):
            why = asked.get(index.name)
            ddl.append(
                f"-- for {', '.join(why)}\n{statement}" if why else statement
            )
    return ddl
