"""Unit beans and operation results.

"At the end of the page service execution, all the JavaBeans storing the
result of the data retrieval queries of the page units (called unit
beans) are available to the View" (§3).  A :class:`UnitBean` is that
object: the computed content of one unit plus the output values other
units may receive over links.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.descriptors.unit_descriptor import KEYED_KINDS


@dataclass
class UnitBean:
    """The computed content of one unit.

    - ``current`` — the single row of a data unit,
    - ``rows`` — the row list of index/multidata/multichoice/scroller
      units; hierarchical units nest children under the ``_children``
      key of each row,
    - ``fields`` — the form fields of an entry unit,
    - ``total``/``block``/``block_count`` — scroller window state,
    - ``outputs`` — slot→value pairs transportable over links,
    - ``from_cache`` — True when the bean was served by the §6
      business-tier cache instead of being recomputed,
    - ``source`` — the descriptor and the inputs it was bound with, set
      by the generic unit service: what :meth:`dependency_keys` reads,
      so every cache level (bean, fragment, page) indexes the bean
      under the instances it shows without a registry round-trip.
    """

    unit_id: str
    name: str
    kind: str
    current: dict | None = None
    rows: list[dict] = field(default_factory=list)
    fields: list[dict] = field(default_factory=list)
    total: int | None = None
    block: int | None = None
    block_count: int | None = None
    outputs: dict = field(default_factory=dict)
    from_cache: bool = False
    source: tuple | None = field(default=None, repr=False, compare=False)
    _keys: tuple | None = field(default=None, repr=False, compare=False)

    def output(self, slot: str):
        return self.outputs.get(slot)

    def dependency_keys(self) -> tuple | None:
        """The dependency keys the bean's content depends on, one tuple
        of entity and role keys — ``(name, value)`` instances, or a bare
        name held whole (DESIGN §12).  Computed on first use, so a request no cache level sees
        never pays for it; ``None`` for a bean no generic service
        computed, whose dependencies are unknown."""
        source = self.source  # read once: another thread may clear it
        if self._keys is None and source is not None:
            self._keys = _held_keys(self, *source)
            self.source = None  # a cached bean keeps its keys, not its inputs
        return self._keys

    @property
    def is_empty(self) -> bool:
        return self.current is None and not self.rows and not self.fields

    def row_count(self) -> int:
        if self.current is not None:
            return 1
        return len(self.rows)


def _held_keys(bean: UnitBean, descriptor, inputs: dict | None) -> tuple:
    """What ``bean`` holds of each name its descriptor depends on, by
    the name's :class:`~repro.descriptors.Binding`; a name without one
    — or every name of a unit whose query the bindings cannot speak for
    (a scroller, a plug-in, a custom service, an ``optimized`` query) —
    is held whole.  ``inputs`` of ``None``: a required input was missing
    and the bean is empty whatever the data holds."""
    if inputs is None:
        return ()
    whole = (descriptor.optimized or descriptor.custom_service
             or descriptor.kind not in KEYED_KINDS)
    held: list = []
    for names, bindings in (
            (descriptor.depends_on_entities, descriptor.entity_bindings),
            (descriptor.depends_on_roles, descriptor.role_bindings)):
        for name in names:
            binding = None if whole else bindings.get(name)
            values = None if binding is None \
                else _bound_values(binding, descriptor, inputs, bean)
            if values is None:
                held.append(name)
            else:
                held.extend((name, value) for value in values
                            if value is not None)
    return tuple(held)


def _bound_values(binding, descriptor, inputs: dict, bean: UnitBean):
    """The values ``binding`` holds its name at; ``None`` = whole."""
    if binding.via is not None:
        return ()
    if binding.slot in (":row", ":parent"):
        rows = [bean.current] if bean.current is not None else bean.rows
        for _ in range(binding.level - (binding.slot == ":parent")):
            rows = [child for row in rows
                    for child in row.get("_children", ())]
        return [row.get("oid") for row in rows]
    parameter = next((p for p in descriptor.inputs
                      if p.slot == binding.slot), None)
    if parameter is None:  # "*", or a slot the unit does not have
        return None
    value = inputs.get(parameter.sql_param)
    return value if isinstance(value, (list, tuple)) else (value,)


@dataclass
class OperationResult:
    """The outcome of one operation execution.

    ``ok`` selects the OK or KO link; ``outputs`` (e.g. a create unit's
    new oid) are forwarded along that link's parameters.
    """

    operation_id: str
    ok: bool
    outputs: dict = field(default_factory=dict)
    message: str | None = None
    affected_rows: int = 0

    def output(self, slot: str):
        return self.outputs.get(slot)
