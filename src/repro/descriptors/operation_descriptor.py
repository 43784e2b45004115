"""Operation descriptors.

Operations map to "an operation service in the business layer, and an
action mapping in the Controller's configuration file, which dictates
the flow of control after the operation is executed" (§3).  The
descriptor carries both halves: the DML statements the generic operation
service runs, and the OK/KO targets with their parameter forwarding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import DescriptorError
from repro.xmlkit import Element, parse_xml, pretty_print


@dataclass
class StatementSpec:
    """One DML statement: the SQL plus slot→parameter bindings.

    ``params`` entries are ``(slot, sql_param, value_type)``;
    ``value_type`` (``int``/``auto``...) drives request-string coercion.
    ``captures_new_oid`` marks the INSERT whose auto-increment key
    becomes the operation's ``oid`` output.
    """

    sql: str
    params: list[tuple[str, str, str]] = field(default_factory=list)
    captures_new_oid: bool = False

    def __post_init__(self) -> None:
        # Accept legacy 2-tuples for convenience; default the type.
        self.params = [
            (p[0], p[1], p[2] if len(p) > 2 else "auto") for p in self.params
        ]


@dataclass
class OutcomeTarget:
    """Where an OK or KO link leads, and which outputs it forwards."""

    target_kind: str  # "page" | "operation"
    target_id: str
    target_page_id: str | None = None
    parameters: list[tuple[str, str]] = field(default_factory=list)


@dataclass
class OperationDescriptor:
    operation_id: str
    name: str
    kind: str
    site_view_id: str | None = None
    entity: str | None = None
    role: str | None = None
    statements: list[StatementSpec] = field(default_factory=list)
    ok: OutcomeTarget | None = None
    ko: OutcomeTarget | None = None
    # login specifics
    user_query: str | None = None
    optimized: bool = False
    custom_service: str | None = None

    # -- XML -----------------------------------------------------------------

    def to_xml(self) -> str:
        root = Element(
            "operationDescriptor",
            {"id": self.operation_id, "name": self.name, "kind": self.kind},
        )
        if self.site_view_id:
            root.set("siteview", self.site_view_id)
        if self.entity:
            root.set("entity", self.entity)
        if self.role:
            root.set("role", self.role)
        if self.optimized:
            root.set("optimized", "true")
        if self.custom_service:
            root.set("customService", self.custom_service)
        for statement in self.statements:
            statement_el = root.add("statement")
            if statement.captures_new_oid:
                statement_el.set("capturesNewOid", "true")
            statement_el.add("sql", text=statement.sql)
            for slot, sql_param, value_type in statement.params:
                statement_el.add(
                    "param",
                    {"slot": slot, "sqlParam": sql_param, "type": value_type},
                )
        if self.user_query:
            root.add("userQuery", text=self.user_query)
        for label, outcome in (("ok", self.ok), ("ko", self.ko)):
            if outcome is None:
                continue
            outcome_el = root.add(
                label,
                {"targetKind": outcome.target_kind, "target": outcome.target_id},
            )
            if outcome.target_page_id:
                outcome_el.set("targetPage", outcome.target_page_id)
            for output, request_param in outcome.parameters:
                outcome_el.add("param", {"output": output, "request": request_param})
        return pretty_print(root)

    @classmethod
    def from_xml(cls, document: str) -> "OperationDescriptor":
        root = parse_xml(document)
        if root.tag != "operationDescriptor":
            raise DescriptorError(
                f"expected <operationDescriptor>, got <{root.tag}>"
            )
        descriptor = cls(
            operation_id=root.require_attr("id"),
            name=root.require_attr("name"),
            kind=root.require_attr("kind"),
            site_view_id=root.get("siteview"),
            entity=root.get("entity"),
            role=root.get("role"),
            optimized=root.get("optimized") == "true",
            custom_service=root.get("customService"),
        )
        for statement_el in root.find_all("statement"):
            descriptor.statements.append(
                StatementSpec(
                    sql=statement_el.required("sql").text(),
                    params=[
                        (
                            p.require_attr("slot"),
                            p.require_attr("sqlParam"),
                            p.get("type", "auto"),
                        )
                        for p in statement_el.find_all("param")
                    ],
                    captures_new_oid=statement_el.get("capturesNewOid") == "true",
                )
            )
        user_query_el = root.find("userQuery")
        if user_query_el is not None:
            descriptor.user_query = user_query_el.text()
        for label in ("ok", "ko"):
            outcome_el = root.find(label)
            if outcome_el is None:
                continue
            outcome = OutcomeTarget(
                target_kind=outcome_el.require_attr("targetKind"),
                target_id=outcome_el.require_attr("target"),
                target_page_id=outcome_el.get("targetPage"),
                parameters=[
                    (p.require_attr("output"), p.require_attr("request"))
                    for p in outcome_el.find_all("param")
                ],
            )
            if label == "ok":
                descriptor.ok = outcome
            else:
                descriptor.ko = outcome
        return descriptor
