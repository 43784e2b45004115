"""The generic page service.

§3: "The page service is a business function supporting the computation
of a page.  It exposes a single function computePage(), invoked to carry
out the parameter propagation and unit computation process."  §4 makes
it generic: one class, parameterized by the page descriptor's topology.

``compute_page`` walks the descriptor's computation order, resolves each
unit's input slots (from the HTTP request or from previously computed
unit beans, per the slot bindings), and invokes the generic unit
service.  The result — all unit beans plus the page's navigation — is
what the View renders.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.descriptors import PageDescriptor
from repro.services.base import RuntimeContext
from repro.services.beans import UnitBean
from repro.services.generic import GenericUnitService


@dataclass
class PageResult:
    """Everything the View needs to render one page."""

    page_id: str
    name: str
    beans: dict[str, UnitBean] = field(default_factory=dict)
    navigation: list = field(default_factory=list)
    layout_category: str = "one-column"

    def bean(self, unit_id: str) -> UnitBean:
        return self.beans[unit_id]

    def bean_named(self, unit_name: str) -> UnitBean:
        for bean in self.beans.values():
            if bean.name == unit_name:
                return bean
        raise KeyError(f"no bean for unit named {unit_name!r}")


class GenericPageService:
    """computePage() for any page, driven by its descriptor."""

    def __init__(self, ctx: RuntimeContext):
        self.ctx = ctx
        self.unit_service = GenericUnitService(ctx)

    def compute_page(self, descriptor: PageDescriptor,
                     request_params: dict) -> PageResult:
        result = PageResult(
            page_id=descriptor.page_id,
            name=descriptor.name,
            navigation=list(descriptor.navigation),
            layout_category=descriptor.layout_category,
        )
        for unit_id in descriptor.unit_order:
            unit_descriptor = self.ctx.registry.unit(unit_id)
            inputs = self._resolve_inputs(
                descriptor, unit_id, request_params, result.beans
            )
            result.beans[unit_id] = self.unit_service.compute(
                unit_descriptor, inputs
            )
        self.ctx.stats.increment("pages_computed")
        return result

    def _resolve_inputs(
        self,
        descriptor: PageDescriptor,
        unit_id: str,
        request_params: dict,
        beans: dict[str, UnitBean],
    ) -> dict:
        inputs: dict = {}
        for binding in descriptor.bindings_for(unit_id):
            if binding.source == "request":
                value = request_params.get(binding.request_param)
            else:
                source_bean = beans.get(binding.source_unit_id)
                value = (
                    source_bean.output(binding.source_output)
                    if source_bean is not None else None
                )
            if value is not None:
                inputs[binding.slot] = value
        # Selection/scrolling controls always come from the request.
        for control in ("selected", "block", "oids"):
            control_param = f"{unit_id}.{control}"
            if control_param in request_params:
                inputs[control] = _coerce_control(
                    control, request_params[control_param]
                )
        return inputs


def _coerce_control(control: str, value):
    """Request control values arrive as strings; normalize them.  A
    value that does not parse — an ``oids`` list with any member that
    is not an integer included — is ``None``, as if it were absent."""
    try:
        if control in ("selected", "block"):
            return int(value)
        if control == "oids":
            if isinstance(value, (list, tuple)):
                return [int(v) for v in value]
            return [int(v) for v in str(value).split(",") if v.strip()]
    except (TypeError, ValueError):
        return None
    return value
