"""Content-unit service implementations.

One class per WebML unit kind, each "parametric with respect to the
features of individual units, like the SQL query to perform, the input
parameters of such a query, and the properties of the output data bean"
(§4).  The descriptor supplies those parameters; the class supplies the
kind's computation shape.
"""

from __future__ import annotations

import math

from repro.descriptors import UnitDescriptor
from repro.services.base import RuntimeContext, UnitServiceBase
from repro.services.batching import load_grouped, query_list_param
from repro.services.beans import UnitBean


def _project(row: dict, properties) -> dict:
    """Shape a result row into bean properties (name ← column)."""
    return {prop.name: row.get(prop.column) for prop in properties}


def _fetch_rows(descriptor: UnitDescriptor, inputs: dict,
                ctx: RuntimeContext):
    """The unit's rows: one query normally; when an input holds a list
    (a multichoice selection fed through a transport link) and the
    descriptor allows batching, a single IN-list query over the set."""
    if descriptor.batched:
        batched = query_list_param(ctx, descriptor.query, inputs)
        if batched is not None:
            return batched
    return ctx.query(descriptor.query, inputs)


class DataUnitService(UnitServiceBase):
    """Publishes one object; its outputs expose the object's values so
    transport links can feed sibling units (Figure 1's dashed arrow)."""

    kind = "data"

    def compute(self, descriptor: UnitDescriptor, inputs: dict,
                ctx: RuntimeContext) -> UnitBean:
        bean = UnitBean(descriptor.unit_id, descriptor.name, self.kind)
        rows = ctx.query(descriptor.query, inputs)
        first = rows.first()
        if first is not None:
            bean.current = _project(first, descriptor.properties)
            bean.outputs = dict(bean.current)
        return bean


class IndexUnitService(UnitServiceBase):
    """Publishes a list; the *current selection* (first row by default,
    or the row named by the ``selected`` input) drives its outputs."""

    kind = "index"

    def compute(self, descriptor: UnitDescriptor, inputs: dict,
                ctx: RuntimeContext) -> UnitBean:
        bean = UnitBean(descriptor.unit_id, descriptor.name, self.kind)
        result = _fetch_rows(descriptor, inputs, ctx)
        bean.rows = [_project(row, descriptor.properties) for row in result]
        selected = inputs.get("selected")
        current = None
        if selected is not None:
            current = next(
                (r for r in bean.rows if r.get("oid") == selected), None
            )
        if current is None and bean.rows:
            current = bean.rows[0]
        if current is not None:
            bean.outputs["oid"] = current.get("oid")
        return bean


class MultidataUnitService(UnitServiceBase):
    kind = "multidata"

    def compute(self, descriptor: UnitDescriptor, inputs: dict,
                ctx: RuntimeContext) -> UnitBean:
        bean = UnitBean(descriptor.unit_id, descriptor.name, self.kind)
        result = _fetch_rows(descriptor, inputs, ctx)
        bean.rows = [_project(row, descriptor.properties) for row in result]
        return bean


class MultichoiceUnitService(IndexUnitService):
    """An index whose output is the set of checked oids (defaults to
    the ``oids`` input when the page round-trips a selection)."""

    kind = "multichoice"

    def compute(self, descriptor: UnitDescriptor, inputs: dict,
                ctx: RuntimeContext) -> UnitBean:
        bean = super().compute(descriptor, inputs, ctx)
        bean.kind = self.kind
        bean.outputs = {"oids": inputs.get("oids") or []}
        return bean


class ScrollerUnitService(UnitServiceBase):
    """Block-scrolls over the selected instances."""

    kind = "scroller"

    def compute(self, descriptor: UnitDescriptor, inputs: dict,
                ctx: RuntimeContext) -> UnitBean:
        bean = UnitBean(descriptor.unit_id, descriptor.name, self.kind)
        block_size = descriptor.block_size or 10
        query_inputs = {k: v for k, v in inputs.items() if k != "block"}
        total = ctx.query(descriptor.count_query, query_inputs).scalar() or 0
        block_count = max(1, math.ceil(total / block_size))
        block = inputs.get("block") or 1
        block = max(1, min(int(block), block_count))
        # one statement per scroller — block size and offset are inputs,
        # so every block reuses the same parse, plan and compiled code
        result = ctx.query(
            f"{descriptor.query} LIMIT :_block_size OFFSET :_block_offset",
            {**query_inputs, "_block_size": block_size,
             "_block_offset": (block - 1) * block_size},
        )
        bean.rows = [_project(row, descriptor.properties) for row in result]
        bean.total = total
        bean.block = block
        bean.block_count = block_count
        bean.outputs = {"block": block, "block_count": block_count}
        return bean


class EntryUnitService(UnitServiceBase):
    """Builds the form model; inputs prefill fields (edit forms)."""

    kind = "entry"

    def compute(self, descriptor: UnitDescriptor, inputs: dict,
                ctx: RuntimeContext) -> UnitBean:
        bean = UnitBean(descriptor.unit_id, descriptor.name, self.kind)
        bean.fields = [
            {**field_spec, "value": inputs.get(field_spec["name"], "")}
            for field_spec in descriptor.entry_fields
        ]
        bean.outputs = {
            field_spec["name"]: inputs.get(field_spec["name"])
            for field_spec in descriptor.entry_fields
        }
        return bean


class HierarchicalIndexService(UnitServiceBase):
    """Figure 1's nested index: computes the root level, then expands
    the hierarchy level by level via the per-level queries (``:parent``).

    With ``descriptor.batched`` (the default) each level is one IN-list
    query over every parent at that depth — O(levels) queries instead of
    O(rows).  When the level query resists the rewrite the per-parent
    loop is kept, so the bean is identical either way."""

    kind = "hierarchical"

    def compute(self, descriptor: UnitDescriptor, inputs: dict,
                ctx: RuntimeContext) -> UnitBean:
        bean = UnitBean(descriptor.unit_id, descriptor.name, self.kind)
        result = ctx.query(descriptor.query, inputs)
        bean.rows = [_project(row, descriptor.properties) for row in result]
        self._expand(bean.rows, 0, descriptor, ctx)
        if bean.rows:
            bean.outputs["oid"] = bean.rows[0].get("oid")
        return bean

    def _expand(self, rows: list[dict], level_index: int,
                descriptor: UnitDescriptor, ctx: RuntimeContext) -> None:
        if level_index >= len(descriptor.levels) or not rows:
            return
        level = descriptor.levels[level_index]
        grouped = None
        if descriptor.batched:
            grouped = load_grouped(
                ctx, level.query, "parent", [row["oid"] for row in rows]
            )
        if grouped is None:  # rewrite refused: per-parent fallback
            for row in rows:
                children = ctx.query(level.query, {"parent": row["oid"]})
                row["_children"] = [
                    _project(child, level.properties) for child in children
                ]
        else:
            for row in rows:
                row["_children"] = [
                    _project(child, level.properties)
                    for child in grouped.get(row["oid"], [])
                ]
        next_rows = [child for row in rows for child in row["_children"]]
        self._expand(next_rows, level_index + 1, descriptor, ctx)


#: kind → service instance; the registry the generic dispatcher consults.
CONTENT_UNIT_SERVICES: dict[str, UnitServiceBase] = {
    service.kind: service
    for service in (
        DataUnitService(),
        IndexUnitService(),
        MultidataUnitService(),
        MultichoiceUnitService(),
        ScrollerUnitService(),
        EntryUnitService(),
        HierarchicalIndexService(),
    )
}
