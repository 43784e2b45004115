"""Descriptor generation.

Produces the unit/page/operation descriptors of §4 from the WebML model:
the unit descriptor wraps the generated SQL (see
:mod:`repro.codegen.sqlgen`), the page descriptor encodes the page's
dataflow topology (computation order + slot bindings) and its outgoing
navigation, and the operation descriptor encodes the DML plus the OK/KO
control flow.
"""

from __future__ import annotations

from repro.codegen.sqlgen import operation_statements, unit_queries
from repro.descriptors import (
    IndexUse,
    NavigationTarget,
    OperationDescriptor,
    OutcomeTarget,
    PageDescriptor,
    SlotBinding,
    UnitDescriptor,
)
from repro.er.mapping import RelationalMapping
from repro.errors import CodegenError
from repro.util import stable_topological_sort
from repro.webml.links import Link, LinkKind
from repro.webml.model import Page, WebMLModel
from repro.webml.operations import OperationUnit
from repro.webml.units import ContentUnit, EntryUnit, ScrollerUnit


def request_param_name(element_id: str, slot: str) -> str:
    """The canonical HTTP request parameter feeding ``element_id.slot``."""
    return f"{element_id}.{slot}"


def generate_unit_descriptor(unit: ContentUnit,
                             mapping: RelationalMapping) -> UnitDescriptor:
    from repro.services.plugins import plugin_registry

    plugin = plugin_registry.get(unit.kind)
    if plugin is not None and plugin.descriptor_builder is not None:
        # §7: the plug-in supplies "the XSL rules for building their
        # descriptors" — here, the descriptor builder itself.
        return plugin.descriptor_builder(unit, mapping)
    queries = unit_queries(unit, mapping)
    descriptor = UnitDescriptor(
        unit_id=unit.id,
        name=unit.name,
        kind=unit.kind,
        entity=unit.entity,
        query=queries["query"],
        count_query=queries["count_query"],
        inputs=queries["inputs"],
        properties=queries["properties"],
        levels=queries["levels"],
        cacheable=unit.cacheable,
        cache_policy=unit.cache_policy,
    )
    for table, columns, reason in queries["indexes"]:
        # the schema gains the index; the descriptor records who asked
        name = mapping.derive_index(table, columns)
        if name is not None:
            descriptor.indexes.append(IndexUse(name, table, columns, reason))
    if isinstance(unit, ScrollerUnit):
        descriptor.block_size = unit.block_size
    if isinstance(unit, EntryUnit):
        descriptor.entry_fields = [
            {
                "name": f.name,
                "type": f.field_type,
                "required": "true" if f.required else "false",
                "label": f.label or f.name,
            }
            for f in unit.fields
        ]
    if unit.entity:
        descriptor.depends_on_entities = _entity_closure(unit, mapping)
    descriptor.depends_on_roles = list(unit.depends_on_roles)
    return descriptor


def _entity_closure(unit: ContentUnit, mapping: RelationalMapping) -> list[str]:
    """Entities whose content the unit's bean reflects (for §6 cache
    invalidation): the unit entity plus every hierarchy-level entity."""
    entities = [unit.entity]
    for level in getattr(unit, "levels", []):
        if level.entity not in entities:
            entities.append(level.entity)
    return entities


def generate_page_descriptor(model: WebMLModel, page: Page) -> PageDescriptor:
    view = model.site_view_of_page(page)
    unit_ids = [unit.id for unit in page.units]
    unit_set = set(unit_ids)

    # Intra-page dataflow: transport/automatic unit→unit links.
    dependencies: dict[str, list[str]] = {uid: [] for uid in unit_ids}
    intra_links: list[Link] = []
    for unit in page.units:
        for link in model.links_to(unit.id):
            if link.kind not in (LinkKind.TRANSPORT, LinkKind.AUTOMATIC):
                continue
            if link.source in unit_set:
                dependencies[unit.id].append(link.source)
                intra_links.append(link)
    order = stable_topological_sort(unit_ids, dependencies)

    descriptor = PageDescriptor(
        page_id=page.id,
        name=page.name,
        site_view_id=view.id,
        layout_category=page.layout_category,
        unit_order=order,
    )

    # Slot bindings: intra-page links win; everything else comes from the
    # HTTP request under the canonical parameter name.
    bound: set[tuple[str, str]] = set()
    for link in intra_links:
        for parameter in link.parameters:
            descriptor.bindings.append(
                SlotBinding(
                    unit_id=link.target,
                    slot=parameter.target_input,
                    source="unit",
                    source_unit_id=link.source,
                    source_output=parameter.source_output,
                )
            )
            bound.add((link.target, parameter.target_input))
    for unit in page.units:
        for slot in unit.input_slots:
            if (unit.id, slot) in bound:
                continue
            # Slots named "session.<key>" read the session pseudo-params
            # the page action injects (§1's session-level personalization,
            # e.g. a data unit keyed on "session.user").
            param = slot if slot.startswith("session.") \
                else request_param_name(unit.id, slot)
            descriptor.bindings.append(
                SlotBinding(
                    unit_id=unit.id,
                    slot=slot,
                    source="request",
                    request_param=param,
                )
            )

    # Navigation: normal links leaving this page's units (or the page).
    sources: list[tuple[str | None, object]] = [(None, page)]
    sources.extend((unit.id, unit) for unit in page.units)
    for source_unit_id, source in sources:
        for link in model.links_from(source.id):
            if link.kind != LinkKind.NORMAL:
                continue
            descriptor.navigation.append(
                _navigation_target(model, link, source_unit_id)
            )
    return descriptor


def _navigation_target(model: WebMLModel, link: Link,
                       source_unit_id: str | None) -> NavigationTarget:
    target = model.element(link.target)
    if isinstance(target, OperationUnit):
        return NavigationTarget(
            link_id=link.id,
            source_unit_id=source_unit_id,
            target_kind="operation",
            target_id=target.id,
            parameters=[
                (p.source_output, p.target_input) for p in link.parameters
            ],
            label=link.label,
        )
    if isinstance(target, ContentUnit):
        target_page = model.page_of_unit(target)
        return NavigationTarget(
            link_id=link.id,
            source_unit_id=source_unit_id,
            target_kind="page",
            target_id=target_page.id,
            target_page_id=target_page.id,
            parameters=[
                (p.source_output, request_param_name(target.id, p.target_input))
                for p in link.parameters
            ],
            label=link.label,
        )
    if isinstance(target, Page):
        return NavigationTarget(
            link_id=link.id,
            source_unit_id=source_unit_id,
            target_kind="page",
            target_id=target.id,
            target_page_id=target.id,
            parameters=[
                (p.source_output, p.target_input) for p in link.parameters
            ],
            label=link.label,
        )
    raise CodegenError(f"link {link.id} targets an unlinkable element")


def generate_operation_descriptor(
    model: WebMLModel, operation: OperationUnit, mapping: RelationalMapping
) -> OperationDescriptor:
    generated = operation_statements(operation, mapping)
    descriptor = OperationDescriptor(
        operation_id=operation.id,
        name=operation.name,
        kind=operation.kind,
        site_view_id=model.site_view_of_operation(operation).id,
        entity=getattr(operation, "entity", None),
        role=getattr(operation, "role", None),
        statements=generated["statements"],
        user_query=generated["user_query"],
    )
    for link in model.links_from(operation.id):
        if link.kind == LinkKind.OK:
            descriptor.ok = _outcome_target(model, link)
        elif link.kind == LinkKind.KO:
            descriptor.ko = _outcome_target(model, link)
    return descriptor


def _outcome_target(model: WebMLModel, link: Link) -> OutcomeTarget:
    target = model.element(link.target)
    if isinstance(target, OperationUnit):
        return OutcomeTarget(
            target_kind="operation",
            target_id=target.id,
            parameters=[
                (p.source_output, p.target_input) for p in link.parameters
            ],
        )
    if isinstance(target, ContentUnit):
        target_page = model.page_of_unit(target)
        return OutcomeTarget(
            target_kind="page",
            target_id=target_page.id,
            target_page_id=target_page.id,
            parameters=[
                (p.source_output, request_param_name(target.id, p.target_input))
                for p in link.parameters
            ],
        )
    if isinstance(target, Page):
        return OutcomeTarget(
            target_kind="page",
            target_id=target.id,
            target_page_id=target.id,
            parameters=[
                (p.source_output, p.target_input) for p in link.parameters
            ],
        )
    raise CodegenError(f"OK/KO link {link.id} targets an unlinkable element")
