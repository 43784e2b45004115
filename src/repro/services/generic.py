"""Descriptor-driven dispatch — the Figure 5 architecture.

:class:`GenericUnitService` is the single entry point the page service
calls for *any* unit: it coerces the inputs per the descriptor, honours
the §6 bean cache and custom-service override, and delegates to the
per-kind implementation (or a registered plug-in unit, §7).

``builtin_service_count()`` is the number the paper's §8 comparison
quotes ("only one generic page service is required ... and 11 unit
services").
"""

from __future__ import annotations

from repro.descriptors import OperationDescriptor, UnitDescriptor
from repro.descriptors.unit_descriptor import contains_pattern
from repro.errors import ServiceError
from repro.obs import span
from repro.services.base import RuntimeContext, coerce_value
from repro.services.beans import OperationResult, UnitBean
from repro.services.operations import OPERATION_SERVICES
from repro.services.plugins import plugin_registry
from repro.services.units import CONTENT_UNIT_SERVICES


#: the 11 "basic WebML units" §8 counts services for
PAPER_BASIC_KINDS = (
    "data", "index", "multidata", "multichoice", "scroller", "entry",
    "create", "delete", "modify", "connect", "disconnect",
)


def builtin_service_count() -> dict[str, int]:
    """How many distinct service classes the generic architecture needs."""
    all_kinds = set(CONTENT_UNIT_SERVICES) | set(OPERATION_SERVICES)
    return {
        "page_services": 1,
        "unit_services": len(all_kinds),
        "content_unit_services": len(CONTENT_UNIT_SERVICES),
        "operation_services": len(OPERATION_SERVICES),
        "paper_basic_services": sum(
            1 for kind in PAPER_BASIC_KINDS if kind in all_kinds
        ),
    }


class GenericUnitService:
    """The generic unit service: descriptor in, unit bean out."""

    def __init__(self, ctx: RuntimeContext):
        self.ctx = ctx

    def compute(self, descriptor: UnitDescriptor, inputs: dict) -> UnitBean:
        with span("services.unit", tier="services",
                  unit=descriptor.name, kind=descriptor.kind):
            return self._compute(descriptor, inputs)

    def _compute(self, descriptor: UnitDescriptor, inputs: dict) -> UnitBean:
        prepared, missing = self._prepare_inputs(descriptor, inputs)
        if missing:
            # A required input was never supplied: the unit displays
            # nothing (e.g. a data unit before any selection was made).
            return UnitBean(descriptor.unit_id, descriptor.name, descriptor.kind)

        cache = self.ctx.bean_cache if descriptor.cacheable else None
        if cache is None:
            bean = self._compute_fresh(descriptor, prepared, inputs)
            self.ctx.stats.increment("units_computed")
            return bean

        cache_key = self._cache_key(descriptor, prepared)
        computed_fresh = False

        def _fresh() -> UnitBean:
            nonlocal computed_fresh
            computed_fresh = True
            bean = self._compute_fresh(descriptor, prepared, inputs)
            self.ctx.stats.increment("units_computed")
            return bean

        with span("cache.bean", tier="cache", level="bean") as probe:
            # Single-flight: under concurrent misses of the same key one
            # thread computes, the rest wait and share the result.
            bean = cache.get_or_compute(
                cache_key, _fresh,
                entities=descriptor.depends_on_entities,
                roles=descriptor.depends_on_roles,
                policy=descriptor.cache_policy,
            )
            if probe is not None:
                probe.tags["hit"] = not computed_fresh
        if computed_fresh:
            self.ctx.stats.increment("bean_cache_misses")
        else:
            self.ctx.stats.increment("bean_cache_hits")
        return bean

    def _compute_fresh(self, descriptor: UnitDescriptor, prepared: dict,
                       raw_inputs: dict) -> UnitBean:
        bean = self._compute_bean(descriptor, prepared)
        # Stamp the §6 dependency sets on the bean so the fragment and
        # page caches can index entries without consulting the registry.
        bean.depends_entities = tuple(descriptor.depends_on_entities)
        bean.depends_roles = tuple(descriptor.depends_on_roles)
        return bean

    def _compute_bean(self, descriptor: UnitDescriptor,
                      prepared: dict) -> UnitBean:
        if descriptor.custom_service:
            service = self.ctx.custom_service(descriptor.custom_service)
            return service.compute(descriptor, prepared, self.ctx)
        implementation = CONTENT_UNIT_SERVICES.get(descriptor.kind)
        if implementation is None:
            plugin = plugin_registry.get(descriptor.kind)
            if plugin is None:
                raise ServiceError(
                    f"no unit service for kind {descriptor.kind!r}"
                )
            implementation = plugin.service
        return implementation.compute(descriptor, prepared, self.ctx)

    def _prepare_inputs(self, descriptor: UnitDescriptor,
                        inputs: dict) -> tuple[dict, list[str]]:
        """Coerce and decorate inputs; returns (prepared, missing-required)."""
        prepared = dict(inputs)
        missing: list[str] = []
        for parameter in descriptor.inputs:
            value = inputs.get(parameter.slot)
            if value is None or value == "":
                if parameter.required:
                    missing.append(parameter.slot)
                continue
            try:
                value = coerce_value(value, parameter.value_type)
            except (TypeError, ValueError):
                missing.append(parameter.slot)
                continue
            if parameter.match == "contains":
                value = contains_pattern(value)
            prepared[parameter.sql_param] = value
        return prepared, missing

    @staticmethod
    def _cache_key(descriptor: UnitDescriptor, prepared: dict) -> tuple:
        relevant = tuple(
            (p.sql_param, _freeze(prepared.get(p.sql_param)))
            for p in descriptor.inputs
        )
        extra = ()
        if descriptor.kind == "scroller":
            extra = (("block", _freeze(prepared.get("block"))),)
        return (descriptor.unit_id, relevant + extra)


def _freeze(value):
    if isinstance(value, list):
        return tuple(_freeze(item) for item in value)
    return value


class GenericOperationService:
    """The generic operation service: descriptor in, OK/KO result out."""

    def __init__(self, ctx: RuntimeContext):
        self.ctx = ctx

    def execute(self, descriptor: OperationDescriptor, inputs: dict,
                session) -> OperationResult:
        if descriptor.custom_service:
            service = self.ctx.custom_service(descriptor.custom_service)
            return service.execute(descriptor, inputs, self.ctx, session)
        implementation = OPERATION_SERVICES.get(descriptor.kind)
        if implementation is None:
            plugin = plugin_registry.get(descriptor.kind)
            if plugin is None or plugin.operation_service is None:
                raise ServiceError(
                    f"no operation service for kind {descriptor.kind!r}"
                )
            implementation = plugin.operation_service
        return implementation.execute(descriptor, inputs, self.ctx, session)
