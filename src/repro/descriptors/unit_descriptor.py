"""Unit descriptors.

A :class:`UnitDescriptor` carries everything the generic unit service
needs to act as a concrete unit (paper Figure 5: "SQL query, I/O
parameters"):

- the data-extraction ``query`` with named parameters,
- the ordered :class:`InputParameter` list (unit slot → SQL parameter,
  plus the match mode for LIKE-style searches),
- the :class:`BeanProperty` list describing the unit bean's fields,
- for hierarchical units, one :class:`LevelQuery` per nesting level,
- the :class:`IndexUse` list: the indexes the generator derived from
  this unit's sort key and selector attributes,
- the §6 dependency names (entities/roles): a bean's keys are read from
  the SQL (:mod:`repro.services.dependencies`); the names spell them,
  and are held whole by a unit with no SQL or a custom service,
- the ``optimized`` flag: when a developer replaces the generated query
  and marks the descriptor optimized, regeneration must preserve it.

Descriptors serialize to XML so the data expert can edit them "both in
the design stage and after the application is deployed" (§1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import DescriptorError
from repro.xmlkit import Element, parse_xml, pretty_print


#: the escape character of a generated ``LIKE :param ESCAPE '…'`` clause
LIKE_ESCAPE = "\\"
#: what a keyword has escaped to be literal text — the escape character
#: itself first, or it would escape the escapes
LIKE_ESCAPED = (LIKE_ESCAPE, "%", "_")


def contains_pattern(value) -> str:
    """The LIKE pattern finding ``value`` as literal text anywhere in a
    column.  A keyword is data, not a pattern: its ``%``, ``_`` and
    escape characters are escaped before the ``%...%`` wrapping."""
    text = str(value)
    for ch in LIKE_ESCAPED:
        text = text.replace(ch, LIKE_ESCAPE + ch)
    return f"%{text}%"


@dataclass
class InputParameter:
    """One input slot of the unit, bound to a named SQL parameter.

    ``match`` is ``"exact"`` or ``"contains"``; contains-parameters are
    bound as :func:`contains_pattern` of the value (keyword search
    fields), which the query reads with ``ESCAPE`` :data:`LIKE_ESCAPE`.
    ``value_type`` tells the generic service how to coerce the raw HTTP
    request string before binding (``int``/``float``/``bool``/``auto``).
    """

    slot: str
    sql_param: str
    match: str = "exact"
    required: bool = True
    value_type: str = "auto"

    def __post_init__(self) -> None:
        if self.match not in ("exact", "contains"):
            raise DescriptorError(f"unknown match mode {self.match!r}")
        if self.value_type not in ("auto", "int", "float", "bool", "string"):
            raise DescriptorError(f"unknown value type {self.value_type!r}")


@dataclass
class BeanProperty:
    """One property of the unit bean: the SQL output column it comes
    from and the attribute name it exposes."""

    name: str
    column: str


@dataclass
class LevelQuery:
    """One hierarchy level: the query fetching the children of a parent
    instance (``:parent`` parameter), plus its bean properties."""

    entity: str
    query: str
    properties: list[BeanProperty] = field(default_factory=list)


@dataclass
class IndexUse:
    """One index the unit's queries were generated to use, and why:
    ``reason`` is ``"order_by"`` (the unit's sort key, walked in order)
    or ``"selector"`` (an exact / range selector attribute).  This is
    where an operator reads *why* an index of the generated schema
    exists."""

    name: str
    table: str
    columns: tuple[str, ...]
    reason: str


@dataclass
class UnitDescriptor:
    unit_id: str
    name: str
    kind: str
    entity: str | None = None
    query: str | None = None
    count_query: str | None = None  # scrollers: total instance count
    inputs: list[InputParameter] = field(default_factory=list)
    properties: list[BeanProperty] = field(default_factory=list)
    levels: list[LevelQuery] = field(default_factory=list)
    indexes: list[IndexUse] = field(default_factory=list)
    block_size: int | None = None
    entry_fields: list[dict] = field(default_factory=list)
    depends_on_entities: list[str] = field(default_factory=list)
    depends_on_roles: list[str] = field(default_factory=list)
    cacheable: bool = False
    cache_policy: str = "model-driven"
    optimized: bool = False
    #: allow the runtime to rewrite per-instance queries into IN-list
    #: batches; data experts can switch it off per descriptor when a
    #: hand-optimised query must run exactly as written.
    batched: bool = True
    custom_service: str | None = None  # §6: override the business component

    # -- XML -----------------------------------------------------------------

    def to_xml(self) -> str:
        root = Element(
            "unitDescriptor",
            {"id": self.unit_id, "name": self.name, "kind": self.kind},
        )
        if self.entity:
            root.set("entity", self.entity)
        if self.optimized:
            root.set("optimized", "true")
        if not self.batched:
            root.set("batched", "false")
        if self.cacheable:
            root.set("cacheable", "true")
            root.set("cachePolicy", self.cache_policy)
        if self.block_size is not None:
            root.set("blockSize", str(self.block_size))
        if self.custom_service:
            root.set("customService", self.custom_service)
        if self.query:
            root.add("query", text=self.query)
        if self.count_query:
            root.add("countQuery", text=self.count_query)
        inputs_el = root.add("inputs")
        for parameter in self.inputs:
            inputs_el.add(
                "input",
                {
                    "slot": parameter.slot,
                    "param": parameter.sql_param,
                    "match": parameter.match,
                    "required": "true" if parameter.required else "false",
                    "type": parameter.value_type,
                },
            )
        bean_el = root.add("bean")
        for prop in self.properties:
            bean_el.add("property", {"name": prop.name, "column": prop.column})
        for level in self.levels:
            level_el = root.add("level", {"entity": level.entity})
            level_el.add("query", text=level.query)
            for prop in level.properties:
                level_el.add(
                    "property", {"name": prop.name, "column": prop.column}
                )
        for use in self.indexes:
            root.add("index", {
                "name": use.name, "table": use.table,
                "columns": ",".join(use.columns), "reason": use.reason,
            })
        for entry_field in self.entry_fields:
            root.add("field", {k: str(v) for k, v in entry_field.items()})
        depends_el = root.add("dependsOn")
        for name in self.depends_on_entities:
            depends_el.add("entity", {"name": name})
        for name in self.depends_on_roles:
            depends_el.add("role", {"name": name})
        return pretty_print(root)

    @classmethod
    def from_xml(cls, document: str) -> "UnitDescriptor":
        root = parse_xml(document)
        if root.tag != "unitDescriptor":
            raise DescriptorError(
                f"expected <unitDescriptor>, got <{root.tag}>"
            )
        query_el = root.find("query")
        count_el = root.find("countQuery")
        descriptor = cls(
            unit_id=root.require_attr("id"),
            name=root.require_attr("name"),
            kind=root.require_attr("kind"),
            entity=root.get("entity"),
            query=query_el.text() if query_el is not None else None,
            count_query=count_el.text() if count_el is not None else None,
            block_size=int(root.get("blockSize")) if root.get("blockSize") else None,
            cacheable=root.get("cacheable") == "true",
            cache_policy=root.get("cachePolicy", "model-driven"),
            optimized=root.get("optimized") == "true",
            batched=root.get("batched", "true") == "true",
            custom_service=root.get("customService"),
        )
        inputs_el = root.find("inputs")
        if inputs_el is not None:
            for input_el in inputs_el.find_all("input"):
                descriptor.inputs.append(
                    InputParameter(
                        slot=input_el.require_attr("slot"),
                        sql_param=input_el.require_attr("param"),
                        match=input_el.get("match", "exact"),
                        required=input_el.get("required", "true") == "true",
                        value_type=input_el.get("type", "auto"),
                    )
                )
        bean_el = root.find("bean")
        if bean_el is not None:
            for prop_el in bean_el.find_all("property"):
                descriptor.properties.append(
                    BeanProperty(
                        prop_el.require_attr("name"),
                        prop_el.require_attr("column"),
                    )
                )
        for level_el in root.find_all("level"):
            descriptor.levels.append(
                LevelQuery(
                    entity=level_el.require_attr("entity"),
                    query=level_el.required("query").text(),
                    properties=[
                        BeanProperty(p.require_attr("name"), p.require_attr("column"))
                        for p in level_el.find_all("property")
                    ],
                )
            )
        for index_el in root.find_all("index"):
            descriptor.indexes.append(IndexUse(
                index_el.require_attr("name"), index_el.require_attr("table"),
                tuple(index_el.require_attr("columns").split(",")),
                index_el.require_attr("reason"),
            ))
        for field_el in root.find_all("field"):
            descriptor.entry_fields.append(dict(field_el.attrs))
        depends_el = root.find("dependsOn")
        if depends_el is not None:  # older files' slot= / via= marks: ignored
            descriptor.depends_on_entities = [
                e.require_attr("name") for e in depends_el.find_all("entity")]
            descriptor.depends_on_roles = [
                e.require_attr("name") for e in depends_el.find_all("role")]
        return descriptor
