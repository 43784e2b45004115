"""SQL generation.

Turns WebML units into data-extraction queries and operation units into
DML statements, using the :class:`~repro.er.mapping.RelationalMapping`
as the single source of truth for tables, columns, and join paths.
Generated queries always alias the unit's entity table ``t0`` and use
named parameters matching the unit's input slots, so the descriptors can
bind link-supplied values positionlessly.
"""

from __future__ import annotations

from repro.descriptors import (
    BeanProperty,
    InputParameter,
    LevelQuery,
    StatementSpec,
)
from repro.descriptors.unit_descriptor import LIKE_ESCAPE
from repro.er.mapping import RelationalMapping
from repro.errors import CodegenError
from repro.webml.operations import (
    ConnectUnit,
    CreateUnit,
    DeleteUnit,
    DisconnectUnit,
    LoginUnit,
    LogoutUnit,
    ModifyUnit,
    OperationUnit,
)
from repro.webml.selectors import (
    AttributeCondition,
    KeyCondition,
    RelationshipCondition,
)
from repro.webml.units import ContentUnit, EntryUnit, HierarchicalIndexUnit


def sql_literal(value) -> str:
    """Render a Python value as a SQL literal."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, (int, float)):
        return str(value)
    text = str(value).replace("'", "''")
    return f"'{text}'"


def _display_attributes(unit_entity: str, declared: list[str],
                        mapping: RelationalMapping) -> list[str]:
    if declared:
        return list(declared)
    entity = mapping.model.entity(unit_entity)
    return entity.attribute_names


def _select_list(entity: str, attributes: list[str],
                 mapping: RelationalMapping, alias: str = "t0") -> tuple[str, list[BeanProperty]]:
    entity_map = mapping.entity_map(entity)
    pieces = [f"{alias}.oid AS oid"]
    properties = [BeanProperty("oid", "oid")]
    for attribute in attributes:
        if attribute == "oid":
            continue
        column = entity_map.column_for(attribute)
        pieces.append(f"{alias}.{column} AS {attribute}")
        properties.append(BeanProperty(attribute, attribute))
    return ", ".join(pieces), properties



def _sql_param(slot: str) -> str:
    """SQL parameter name for a unit input slot (slots like
    ``session.user`` need sanitizing for the :name syntax)."""
    from repro.util import make_identifier

    return make_identifier(slot) if "." in slot else slot


class _QueryBuilder:
    """Accumulates joins/conditions for one unit query."""

    def __init__(self, entity: str, mapping: RelationalMapping):
        self.mapping = mapping
        self.entity = entity
        self.table = mapping.table_for(entity)
        self.joins: list[str] = []
        self.where: list[str] = []
        self.inputs: list[InputParameter] = []
        self._alias_counter = 0
        #: columns of the unit's own table under an equality / a range
        #: condition — what :meth:`wanted_indexes` derives indexes from
        self.exact_columns: list[str] = []
        self.range_columns: list[str] = []
        self.keyed = False

    def _next_alias(self) -> str:
        self._alias_counter += 1
        return f"r{self._alias_counter}"

    def add_condition(self, condition) -> None:
        if isinstance(condition, KeyCondition):
            sql_param = _sql_param(condition.parameter)
            self.keyed = True
            self.where.append(f"t0.oid = :{sql_param}")
            self.inputs.append(
                InputParameter(condition.parameter, sql_param,
                               value_type="int")
            )
        elif isinstance(condition, AttributeCondition):
            self._add_attribute_condition(condition)
        elif isinstance(condition, RelationshipCondition):
            self._add_role_condition(condition)
        else:  # pragma: no cover - defensive
            raise CodegenError(f"unknown selector condition {condition!r}")

    def _add_attribute_condition(self, condition: AttributeCondition) -> None:
        column = self.mapping.entity_map(self.entity).column_for(
            condition.attribute
        )
        operator = condition.operator.upper() if condition.operator == "like" \
            else condition.operator
        if operator == "=":
            self.exact_columns.append(column)
        elif operator in ("<", "<=", ">", ">="):
            self.range_columns.append(column)
        if condition.parameter is not None:
            sql_param = _sql_param(condition.parameter)
            # the bound value is the user's text escaped into a pattern
            # (``match="contains"``); a model literal stays a pattern
            escape = f" ESCAPE '{LIKE_ESCAPE}'" if operator == "LIKE" else ""
            self.where.append(f"t0.{column} {operator} :{sql_param}{escape}")
            self.inputs.append(
                InputParameter(
                    condition.parameter,
                    sql_param,
                    match="contains" if condition.operator == "like" else "exact",
                    value_type=_value_type_of(self.mapping, self.entity,
                                              condition.attribute),
                )
            )
        elif condition.value is None and condition.operator == "=":
            self.where.append(f"t0.{column} IS NULL")
        else:
            self.where.append(
                f"t0.{column} {operator} {sql_literal(condition.value)}"
            )

    def _add_role_condition(self, condition: RelationshipCondition) -> None:
        """The unit publishes role-*target* instances given a role-*source*
        oid parameter."""
        rel_map, forward = self.mapping.relationship_map(condition.role)
        parameter = _sql_param(condition.parameter)
        if rel_map.kind == "bridge":
            alias = self._next_alias()
            near = rel_map.target_column if forward else rel_map.source_column
            far = rel_map.source_column if forward else rel_map.target_column
            self.joins.append(
                f"JOIN {rel_map.bridge_table} {alias} ON {alias}.{near} = t0.oid"
            )
            self.where.append(f"{alias}.{far} = :{parameter}")
        else:
            to_entity = rel_map.target_entity if forward else rel_map.source_entity
            fk_on_unit_side = rel_map.fk_table == self.mapping.table_for(to_entity)
            if fk_on_unit_side:
                self.exact_columns.append(rel_map.fk_column)
                self.where.append(f"t0.{rel_map.fk_column} = :{parameter}")
            else:
                alias = self._next_alias()
                self.joins.append(
                    f"JOIN {rel_map.fk_table} {alias} "
                    f"ON {alias}.{rel_map.fk_column} = t0.oid"
                )
                self.where.append(f"{alias}.oid = :{parameter}")
        self.inputs.append(InputParameter(condition.parameter, parameter,
                                          value_type="int"))

    def build(self, select_list: str, order_by: list[tuple[str, bool]]) -> str:
        parts = [f"SELECT {select_list}", f"FROM {self.table} t0"]
        parts.extend(self.joins)
        if self.where:
            parts.append("WHERE " + " AND ".join(self.where))
        parts.append("ORDER BY " + self._order_clause(order_by))
        return " ".join(parts)

    def build_count(self) -> str:
        parts = ["SELECT COUNT(*) AS total", f"FROM {self.table} t0"]
        parts.extend(self.joins)
        if self.where:
            parts.append("WHERE " + " AND ".join(self.where))
        return " ".join(parts)

    def wanted_indexes(self, order_by: list[tuple[str, bool]]) -> list[tuple]:
        """``(table, columns, reason)`` for each access path this query
        can use on the unit's own table: the sort key of a single-table
        query, led by the equality-selector columns (an index walked in
        ORDER BY order — no sort, and a scroller block stops it), and
        every exact or range selector attribute on its own.  A key lookup reads one
        row and needs neither."""
        if self.keyed:
            return []
        entity_map = self.mapping.entity_map(self.entity)
        wanted = []
        if order_by and not self.joins \
                and len({descending for _, descending in order_by}) == 1:
            sort_key = [entity_map.column_for(a) for a, _ in order_by]
            leading = [c for c in dict.fromkeys(self.exact_columns)
                       if c not in sort_key]
            wanted.append((self.table, tuple(leading + sort_key), "order_by"))
        wanted.extend(
            (self.table, (column,), "selector")
            for column in dict.fromkeys(self.exact_columns + self.range_columns)
        )
        return wanted

    def _order_clause(self, order_by: list[tuple[str, bool]]) -> str:
        if not order_by:
            return "t0.oid"
        entity_map = self.mapping.entity_map(self.entity)
        pieces = []
        for attribute, descending in order_by:
            column = entity_map.column_for(attribute)
            pieces.append(f"t0.{column} {'DESC' if descending else 'ASC'}")
        return ", ".join(pieces)


def unit_queries(unit: ContentUnit, mapping: RelationalMapping) -> dict:
    """Generate the queries for one content unit.

    Returns a dict with keys ``query``, ``count_query``, ``inputs``,
    ``properties``, ``levels`` (the latter only for hierarchical units)
    and ``indexes`` (see :meth:`_QueryBuilder.wanted_indexes`).  Entry
    units return an empty spec (no data extraction).
    """
    if isinstance(unit, EntryUnit) or unit.entity is None:
        # Entry units and entity-less plug-in units extract no data.
        return {"query": None, "count_query": None, "inputs": [],
                "properties": [], "levels": [], "indexes": []}
    if isinstance(unit, HierarchicalIndexUnit):
        return _hierarchical_queries(unit, mapping)

    attributes = _display_attributes(unit.entity, unit.display_attributes, mapping)
    select_list, properties = _select_list(unit.entity, attributes, mapping)
    builder = _QueryBuilder(unit.entity, mapping)
    for condition in (unit.selector.conditions if unit.selector else []):
        builder.add_condition(condition)
    order_by = getattr(unit, "order_by", [])
    query = builder.build(select_list, order_by)
    count_query = builder.build_count() if unit.kind == "scroller" else None
    return {
        "query": query,
        "count_query": count_query,
        "inputs": builder.inputs,
        "properties": properties,
        "levels": [],
        "indexes": builder.wanted_indexes(order_by),
    }


def _hierarchical_queries(unit: HierarchicalIndexUnit,
                          mapping: RelationalMapping) -> dict:
    levels: list[LevelQuery] = []
    indexes: list[tuple] = []
    root_inputs: list[InputParameter] = []
    root_query = None
    root_properties: list[BeanProperty] = []
    for position, level in enumerate(unit.levels):
        attributes = _display_attributes(
            level.entity, level.display_attributes, mapping
        )
        select_list, properties = _select_list(level.entity, attributes, mapping)
        builder = _QueryBuilder(level.entity, mapping)
        if position == 0:
            for condition in (unit.selector.conditions if unit.selector else []):
                builder.add_condition(condition)
            root_query = builder.build(select_list, level.order_by)
            root_inputs = builder.inputs
            root_properties = properties
            indexes += builder.wanted_indexes(level.order_by)
            continue
        builder.add_condition(
            RelationshipCondition(level.role, parameter="parent")
        )
        indexes += builder.wanted_indexes(level.order_by)
        levels.append(
            LevelQuery(
                entity=level.entity,
                query=builder.build(select_list, level.order_by),
                properties=properties,
            )
        )
    return {
        "query": root_query,
        "count_query": None,
        "inputs": root_inputs,
        "properties": root_properties,
        "levels": levels,
        "indexes": indexes,
    }


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def operation_statements(operation: OperationUnit,
                         mapping: RelationalMapping) -> dict:
    """Generate the DML for one operation unit.

    Returns ``{"statements": [StatementSpec...], "user_query": str|None}``.
    """
    if isinstance(operation, CreateUnit):
        return {"statements": [_create_statement(operation, mapping)],
                "user_query": None}
    if isinstance(operation, DeleteUnit):
        table = mapping.table_for(operation.entity)
        return {
            "statements": [
                StatementSpec(
                    sql=f"DELETE FROM {table} WHERE oid = :oid",
                    params=[("oid", "oid", "int")],
                )
            ],
            "user_query": None,
        }
    if isinstance(operation, ModifyUnit):
        entity_map = mapping.entity_map(operation.entity)
        assignments = ", ".join(
            f"{entity_map.column_for(attribute)} = :{attribute}"
            for attribute in operation.attributes
        )
        return {
            "statements": [
                StatementSpec(
                    sql=(
                        f"UPDATE {entity_map.table} SET {assignments} "
                        "WHERE oid = :oid"
                    ),
                    params=[("oid", "oid", "int")]
                    + [(a, a, "auto") for a in operation.attributes],
                )
            ],
            "user_query": None,
        }
    if isinstance(operation, ConnectUnit):
        return {"statements": [_connect_statement(operation.role, mapping,
                                                  disconnect=False)],
                "user_query": None}
    if isinstance(operation, DisconnectUnit):
        return {"statements": [_connect_statement(operation.role, mapping,
                                                  disconnect=True)],
                "user_query": None}
    if isinstance(operation, LoginUnit):
        entity_map = mapping.entity_map(operation.user_entity)
        username_col = entity_map.column_for(operation.username_attribute)
        password_col = entity_map.column_for(operation.password_attribute)
        return {
            "statements": [],
            "user_query": (
                f"SELECT oid AS oid FROM {entity_map.table} "
                f"WHERE {username_col} = :username "
                f"AND {password_col} = :password"
            ),
        }
    if isinstance(operation, LogoutUnit):
        return {"statements": [], "user_query": None}
    raise CodegenError(f"no SQL generation for operation kind {operation.kind!r}")


def _create_statement(operation: CreateUnit,
                      mapping: RelationalMapping) -> StatementSpec:
    entity_map = mapping.entity_map(operation.entity)
    attributes = operation.attributes or [
        a.name for a in mapping.model.entity(operation.entity).attributes
    ]
    columns = ", ".join(entity_map.column_for(a) for a in attributes)
    placeholders = ", ".join(f":{a}" for a in attributes)
    return StatementSpec(
        sql=f"INSERT INTO {entity_map.table} ({columns}) VALUES ({placeholders})",
        params=[(a, a, "auto") for a in attributes],
        captures_new_oid=True,
    )


def _connect_statement(role: str, mapping: RelationalMapping,
                       disconnect: bool) -> StatementSpec:
    spec = mapping.connection_write(role)
    from_entity, _to_entity = mapping.role_endpoints(role)
    if spec["kind"] == "bridge":
        if spec["forward"]:
            source_slot, target_slot = "source_oid", "target_oid"
        else:
            source_slot, target_slot = "target_oid", "source_oid"
        if disconnect:
            sql = (
                f"DELETE FROM {spec['table']} "
                f"WHERE {spec['source_column']} = :{source_slot} "
                f"AND {spec['target_column']} = :{target_slot}"
            )
        else:
            sql = (
                f"INSERT INTO {spec['table']} "
                f"({spec['source_column']}, {spec['target_column']}) "
                f"VALUES (:{source_slot}, :{target_slot})"
            )
        return StatementSpec(
            sql=sql,
            params=[(source_slot, source_slot, "int"),
                    (target_slot, target_slot, "int")],
        )
    # FK realization: the owner row points at the other endpoint.
    owner_is_from_side = spec["owner_entity"] == from_entity
    owner_slot = "source_oid" if owner_is_from_side else "target_oid"
    other_slot = "target_oid" if owner_is_from_side else "source_oid"
    if disconnect:
        sql = (
            f"UPDATE {spec['table']} SET {spec['column']} = NULL "
            f"WHERE oid = :{owner_slot} AND {spec['column']} = :{other_slot}"
        )
    else:
        sql = (
            f"UPDATE {spec['table']} SET {spec['column']} = :{other_slot} "
            f"WHERE oid = :{owner_slot}"
        )
    return StatementSpec(
        sql=sql,
        params=[(owner_slot, owner_slot, "int"),
                (other_slot, other_slot, "int")],
    )

def _value_type_of(mapping: RelationalMapping, entity: str, attribute: str) -> str:
    """Coercion hint for a parameter compared against an attribute."""
    from repro.rdb.types import BooleanType, FloatType, IntegerType

    declared = mapping.model.entity(entity).attribute(attribute)
    from repro.rdb.types import type_from_name

    sql_type = type_from_name(declared.type_name)
    if isinstance(sql_type, IntegerType):
        return "int"
    if isinstance(sql_type, FloatType):
        return "float"
    if isinstance(sql_type, BooleanType):
        return "bool"
    return "auto"
