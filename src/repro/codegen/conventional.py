"""The conventional (baseline) generator — one dedicated class per unit
and per page.

§4: "Every unit and operation requires a dedicated service in the
business tier ... All the services of individual units of the same kind
are very similar, because they differ only for the details of the data
retrieval or update query ... However, this similarity is not exploited
to reduce the amount of code to build and maintain."

This module *is* that unexploited-similarity architecture: it emits one
self-contained Python class per content unit (query and bean packing
inlined) and one per page (parameter propagation inlined), exactly the
artifact population §8 counts (556 page classes + 3068 unit classes for
Acer-Euro).  The sources are real code — ``instantiate()`` compiles them
and the resulting runtime serves pages, so experiments E2 (artifact
counts/LoC) and E9 (runtime overhead of genericity) compare two live
implementations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.codegen.descriptorgen import (
    generate_page_descriptor,
    generate_unit_descriptor,
)
from repro.descriptors import PageDescriptor, UnitDescriptor
from repro.descriptors.unit_descriptor import LIKE_ESCAPE, LIKE_ESCAPED
from repro.er.mapping import RelationalMapping, map_to_relational
from repro.errors import CodegenError
from repro.services.beans import UnitBean
from repro.services.page_service import PageResult
from repro.util import snake_to_camel
from repro.webml.model import WebMLModel


def _class_name(prefix: str, element_id: str) -> str:
    return f"{prefix}{snake_to_camel(element_id)}Service"


# ---------------------------------------------------------------------------
# Unit class emission
# ---------------------------------------------------------------------------


def _emit_input_lines(descriptor: UnitDescriptor, out: list[str]) -> None:
    """Inline input coercion — repeated verbatim in every dedicated class."""
    out.append("        params = dict(inputs)")
    for parameter in descriptor.inputs:
        slot = parameter.slot
        out.append(f"        value = inputs.get({slot!r})")
        out.append("        if value is None or value == '':")
        if parameter.required:
            out.append(f"            return UnitBean({descriptor.unit_id!r}, "
                       f"{descriptor.name!r}, {descriptor.kind!r})")
        else:
            out.append("            value = None")
        if parameter.value_type == "int":
            out.append("        if value is not None:")
            out.append("            value = int(str(value))")
        elif parameter.value_type == "float":
            out.append("        if value is not None:")
            out.append("            value = float(value)")
        if parameter.match == "contains":
            escaped = "".join(
                f".replace({ch!r}, {LIKE_ESCAPE + ch!r})" for ch in LIKE_ESCAPED
            )
            out.append("        if value is not None:")
            out.append(f"            value = '%' + str(value){escaped} + '%'")
        out.append(f"        params[{parameter.sql_param!r}] = value")


def _emit_projection(properties) -> str:
    pairs = ", ".join(f"{p.name!r}: row.get({p.column!r})" for p in properties)
    return "{" + pairs + "}"


def generate_unit_class(descriptor: UnitDescriptor) -> str:
    """Emit the dedicated service class source for one unit."""
    name = _class_name("Unit", descriptor.unit_id)
    out = [
        f"class {name}:",
        f"    \"\"\"Dedicated service for unit {descriptor.name!r} "
        f"({descriptor.kind}).\"\"\"",
        "",
        f"    UNIT_ID = {descriptor.unit_id!r}",
        "",
        "    def compute(self, ctx, inputs):",
    ]
    kind = descriptor.kind
    bean_args = f"{descriptor.unit_id!r}, {descriptor.name!r}, {kind!r}"

    if kind == "entry":
        out.append(f"        bean = UnitBean({bean_args})")
        out.append(f"        field_specs = {descriptor.entry_fields!r}")
        out.append("        for spec in field_specs:")
        out.append("            value = inputs.get(spec['name'], '')")
        out.append("            bean.fields.append({**spec, 'value': value})")
        out.append("            bean.outputs[spec['name']] = "
                   "inputs.get(spec['name'])")
        out.append("        return bean")
        return "\n".join(out) + "\n"

    _emit_input_lines(descriptor, out)
    out.append(f"        bean = UnitBean({bean_args})")

    if kind == "data":
        out.append(f"        rows = ctx.query({descriptor.query!r}, params)")
        out.append("        first = rows.first()")
        out.append("        if first is not None:")
        out.append("            bean.current = "
                   + _emit_projection(descriptor.properties).replace("row.", "first."))
        out.append("            bean.outputs = dict(bean.current)")
    elif kind in ("index", "multichoice", "multidata"):
        out.append(f"        result = ctx.query({descriptor.query!r}, params)")
        out.append("        bean.rows = ["
                   + _emit_projection(descriptor.properties)
                   + " for row in result]")
        if kind == "index":
            out.append("        selected = inputs.get('selected')")
            out.append("        current = None")
            out.append("        if selected is not None:")
            out.append("            current = next((r for r in bean.rows "
                       "if r.get('oid') == selected), None)")
            out.append("        if current is None and bean.rows:")
            out.append("            current = bean.rows[0]")
            out.append("        if current is not None:")
            out.append("            bean.outputs['oid'] = current.get('oid')")
        elif kind == "multichoice":
            out.append("        bean.outputs['oids'] = inputs.get('oids') or []")
    elif kind == "scroller":
        block_size = descriptor.block_size or 10
        out.append("        query_params = {k: v for k, v in params.items() "
                   "if k != 'block'}")
        out.append(f"        total = ctx.query({descriptor.count_query!r}, "
                   "query_params).scalar() or 0")
        out.append(f"        block_count = max(1, -(-total // {block_size}))")
        out.append("        block = inputs.get('block') or 1")
        out.append("        block = max(1, min(int(block), block_count))")
        out.append(f"        offset = (block - 1) * {block_size}")
        out.append(f"        paged = {descriptor.query!r} "
                   f"+ ' LIMIT {block_size} OFFSET ' + str(offset)")
        out.append("        result = ctx.query(paged, query_params)")
        out.append("        bean.rows = ["
                   + _emit_projection(descriptor.properties)
                   + " for row in result]")
        out.append("        bean.total = total")
        out.append("        bean.block = block")
        out.append("        bean.block_count = block_count")
        out.append("        bean.outputs = {'block': block, "
                   "'block_count': block_count}")
    elif kind == "hierarchical":
        out.append(f"        result = ctx.query({descriptor.query!r}, params)")
        out.append("        bean.rows = ["
                   + _emit_projection(descriptor.properties)
                   + " for row in result]")
        indent = "        "
        rows_var = "bean.rows"
        for depth, level in enumerate(descriptor.levels):
            row_var = f"row{depth}"
            out.append(f"{indent}for {row_var} in {rows_var}:")
            indent += "    "
            out.append(f"{indent}children = ctx.query({level.query!r}, "
                       f"{{'parent': {row_var}['oid']}})")
            out.append(f"{indent}{row_var}['_children'] = ["
                       + _emit_projection(level.properties)
                       + " for row in children]")
            rows_var = f"{row_var}['_children']"
        out.append("        if bean.rows:")
        out.append("            bean.outputs['oid'] = bean.rows[0].get('oid')")
    else:
        raise CodegenError(
            f"conventional generator: unsupported unit kind {kind!r}"
        )
    out.append("        return bean")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Page class emission
# ---------------------------------------------------------------------------


def generate_page_class(descriptor: PageDescriptor) -> str:
    """Emit the dedicated page-service class source for one page."""
    name = _class_name("Page", descriptor.page_id)
    out = [
        f"class {name}:",
        f"    \"\"\"Dedicated page service for {descriptor.name!r}.\"\"\"",
        "",
        f"    PAGE_ID = {descriptor.page_id!r}",
        "",
        "    def compute_page(self, ctx, unit_services, request_params):",
        f"        result = PageResult({descriptor.page_id!r}, "
        f"{descriptor.name!r})",
        "        beans = result.beans",
    ]
    for unit_id in descriptor.unit_order:
        out.append(f"        # unit {unit_id}")
        out.append("        inputs = {}")
        for binding in descriptor.bindings_for(unit_id):
            if binding.source == "request":
                out.append(f"        value = request_params.get("
                           f"{binding.request_param!r})")
            else:
                out.append(
                    f"        source = beans.get({binding.source_unit_id!r})"
                )
                out.append(
                    "        value = source.output("
                    f"{binding.source_output!r}) if source else None"
                )
            out.append("        if value is not None:")
            out.append(f"            inputs[{binding.slot!r}] = value")
        for control in ("selected", "block", "oids"):
            out.append(
                f"        if {unit_id + '.' + control!r} in request_params:"
            )
            out.append(
                f"            inputs[{control!r}] = _coerce_control("
                f"{control!r}, request_params[{unit_id + '.' + control!r}])"
            )
        out.append(
            f"        beans[{unit_id!r}] = unit_services[{unit_id!r}]"
            ".compute(ctx, inputs)"
        )
    out.append("        return result")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Project bundle
# ---------------------------------------------------------------------------


@dataclass
class ConventionalProject:
    """The generated dedicated-class code base."""

    files: dict[str, str] = field(default_factory=dict)
    unit_classes: dict[str, str] = field(default_factory=dict)  # unit_id → class
    page_classes: dict[str, str] = field(default_factory=dict)  # page_id → class

    def total_loc(self) -> int:
        return sum(source.count("\n") for source in self.files.values())

    def class_count(self) -> dict[str, int]:
        return {
            "unit_service_classes": len(self.unit_classes),
            "page_service_classes": len(self.page_classes),
        }

    def instantiate(self) -> "ConventionalRuntime":
        """Compile every generated source and build a live runtime."""
        namespace = {
            "UnitBean": UnitBean,
            "PageResult": PageResult,
            "_coerce_control": _coerce_control,
        }
        for path, source in self.files.items():
            code = compile(source, path, "exec")
            exec(code, namespace)  # noqa: S102 - generated by us, by design
        unit_services = {
            unit_id: namespace[class_name]()
            for unit_id, class_name in self.unit_classes.items()
        }
        page_services = {
            page_id: namespace[class_name]()
            for page_id, class_name in self.page_classes.items()
        }
        return ConventionalRuntime(unit_services, page_services)


def _coerce_control(control: str, value):
    from repro.services.page_service import _coerce_control as impl

    return impl(control, value)


class ConventionalRuntime:
    """Serves pages through the dedicated classes (no descriptors)."""

    def __init__(self, unit_services: dict, page_services: dict):
        self.unit_services = unit_services
        self.page_services = page_services

    def compute_page(self, page_id: str, ctx, request_params: dict) -> PageResult:
        page_service = self.page_services[page_id]
        return page_service.compute_page(ctx, self.unit_services, request_params)


def generate_conventional(model: WebMLModel,
                          mapping: RelationalMapping | None = None,
                          validate: bool = True) -> ConventionalProject:
    """Run the baseline generator over a model."""
    if validate:
        model.validate()
    if mapping is None:
        mapping = map_to_relational(model.data_model)
    project = ConventionalProject()
    for page in model.all_pages():
        page_descriptor = generate_page_descriptor(model, page)
        class_name = _class_name("Page", page.id)
        project.page_classes[page.id] = class_name
        project.files[f"src/pages/{class_name}.py"] = generate_page_class(
            page_descriptor
        )
        for unit in page.units:
            unit_descriptor = generate_unit_descriptor(unit, mapping)
            unit_class = _class_name("Unit", unit.id)
            project.unit_classes[unit.id] = unit_class
            project.files[f"src/units/{unit_class}.py"] = generate_unit_class(
                unit_descriptor
            )
    return project
