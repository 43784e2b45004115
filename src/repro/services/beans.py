"""Unit beans and operation results.

"At the end of the page service execution, all the JavaBeans storing the
result of the data retrieval queries of the page units (called unit
beans) are available to the View" (§3).  A :class:`UnitBean` is that
object: the computed content of one unit plus the output values other
units may receive over links.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.services.dependencies import held_keys


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
    - ``source`` — the runtime context, the descriptor and the inputs
      it was bound with, set by the generic unit service: what
      :meth:`dependency_keys` reads, so every cache level (bean,
      fragment, page) indexes the bean under the instances it shows
      without a registry round-trip.
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
        name held whole — read from the statements its descriptor runs
        (:mod:`repro.services.dependencies`, DESIGN §12).  Computed on
        first use, so a request no cache level sees never pays for it;
        ``()`` when a required input was missing (the bean is empty
        whatever the data holds); ``None`` for a bean no generic service
        computed, whose dependencies are unknown."""
        source = self.source  # read once: another thread may clear it
        if self._keys is None and source is not None:
            ctx, descriptor, inputs = source
            self._keys = () if inputs is None else held_keys(
                ctx.key_plan(descriptor), self, inputs)
            self.source = None  # a cached bean keeps its keys, not its inputs
        return self._keys

    @property
    def is_empty(self) -> bool:
        return self.current is None and not self.rows and not self.fields

    def row_count(self) -> int:
        if self.current is not None:
            return 1
        return len(self.rows)


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
