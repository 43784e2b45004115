"""The ER→relational mapping.

The paper: "this standard schema is then used by the WebRatio
implementation as either the schema of a newly designed database ... or
as a reference for mapping to pre-existing data sources" (§1).

Mapping rules (deterministic, so regeneration is idempotent):

- every entity becomes a table named after the entity (snake_case) with
  an ``oid INTEGER`` auto-increment primary key and one column per
  attribute;
- a 1:N (or N:1) relationship becomes a foreign-key column on the "many"
  side, named ``<role>_oid`` after the snake_case of the relationship
  name, with ON DELETE CASCADE (WebML's delete semantics remove the
  dependent connections);
- a 1:1 relationship becomes a unique foreign-key column on the target
  side;
- an N:M relationship becomes a bridge table ``<role>`` with the two
  endpoint foreign keys as a composite primary key;
- every foreign-key column gets a secondary index.  Further indexes are
  derived from the *hypertext* model — the sort keys and selector
  attributes its units state — through
  :meth:`RelationalMapping.derive_index`.

The resulting :class:`RelationalMapping` is the *single source of truth*
for the SQL generators: it knows each entity's table and columns, and
how to join across any relationship role in either direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ERModelError
from repro.rdb.schema import Column, ForeignKey, Index, TableSchema
from repro.rdb.types import IntegerType, type_from_name
from repro.er.model import Cardinality, Entity, ERModel, Relationship
from repro.util import make_identifier


@dataclass
class EntityMap:
    """Where one entity's instances live."""

    entity: str
    table: str
    key_column: str = "oid"
    attribute_columns: dict[str, str] = field(default_factory=dict)

    def column_for(self, attribute: str) -> str:
        if attribute == "oid":
            return self.key_column
        try:
            return self.attribute_columns[attribute]
        except KeyError:
            raise ERModelError(
                f"entity {self.entity!r} has no attribute {attribute!r}"
            ) from None


@dataclass
class RelationshipMap:
    """How one relationship is realized relationally.

    ``kind`` is ``"fk"`` (a foreign-key column ``fk_column`` on
    ``fk_table``, pointing at ``fk_target_table``) or ``"bridge"``
    (a join table with ``source_column``/``target_column``).
    """

    relationship: str
    kind: str
    source_entity: str
    target_entity: str
    # fk realization
    fk_table: str | None = None
    fk_column: str | None = None
    fk_target_table: str | None = None
    fk_on_many_side_of_source: bool = True
    # bridge realization
    bridge_table: str | None = None
    source_column: str | None = None
    target_column: str | None = None

    def fk_on_reached_side(self, forward: bool) -> bool:
        """Whether the FK column sits on the rows a role reaches: the
        target's for the forward name, the source's for the inverse.
        Read from the direction, never from table names, which cannot
        tell the two ends of a self-relationship apart."""
        return self.fk_on_many_side_of_source == forward


@dataclass(frozen=True)
class TableKeys:
    """The dependency keys one row of a table publishes when a commit
    writes it: ``(name, row[column])`` for each ``(name, column)`` pair
    — the table's entity first, then the role names it realizes.
    A NULL value publishes nothing: a unit bound to a NULL source
    computes an empty bean whatever the data holds."""

    pairs: tuple = ()

    @property
    def names(self) -> tuple[str, ...]:
        """The bare names: what a write publishes when it cannot name
        the instances (a redo op without its old row)."""
        return tuple(name for name, _ in self.pairs)

    def publish(self, row: dict, out: dict) -> None:
        """Add ``row``'s keys to ``out`` (a dict used as an ordered
        set)."""
        for name, column in self.pairs:
            value = row.get(column)
            if value is not None:
                out[(name, value)] = None


class RelationalMapping:
    """The full model→schema mapping plus join metadata."""

    def __init__(self, model: ERModel):
        self.model = model
        self.entity_maps: dict[str, EntityMap] = {}
        self.relationship_maps: dict[str, RelationshipMap] = {}
        self.schemas: list[TableSchema] = []

    def entity_map(self, entity: str) -> EntityMap:
        try:
            return self.entity_maps[entity]
        except KeyError:
            raise ERModelError(f"no mapping for entity {entity!r}") from None

    def relationship_map(self, name: str) -> tuple[RelationshipMap, bool]:
        """Resolve a forward or inverse role name to its mapping.

        Returns ``(mapping, forward)``.
        """
        relationship, forward = self.model.resolve_role(name)
        return self.relationship_maps[relationship.name], forward

    def table_for(self, entity: str) -> str:
        return self.entity_map(entity).table

    def derive_index(self, table: str, columns: tuple[str, ...]) -> str | None:
        """Make sure ``table`` can be reached through an index on
        ``columns`` and return that index's name — how the hypertext
        generators ask the schema for the access paths their units'
        selectors and sort keys state.  An index with exactly these
        columns is reused (a single column also by any index leading
        with it); the primary key and unique constraints, which the
        engine indexes by itself, answer with None."""
        schema = next(s for s in self.schemas if s.name == table)
        if columns in (schema.primary_key, *schema.unique_constraints):
            return None
        for index in schema.indexes:
            if index.columns == columns or (
                    len(columns) == 1 and index.columns[0] == columns[0]):
                return index.name
        index = Index(f"ix_{table}_{'_'.join(columns)}", columns)
        schema.indexes.append(index)
        return index.name

    def table_keys(self) -> dict[str, "TableKeys"]:
        """Table name → the instance keys a write to one of its rows
        publishes (see :class:`TableKeys`).

        The reverse of the mapping rules, used to translate the storage
        engine's commit events (which speak in tables and rows) into the
        vocabulary unit descriptors state their dependencies in.  A row
        of an entity table publishes ``(entity, oid)``; every role name
        realized on a table publishes ``(name, v)``, ``v`` the row's
        value on the name's *source* side: the foreign key when the name
        starts at the referenced entity, the row's own oid when it starts
        at the row's entity, the source-side column of a bridge row.
        """
        pairs = {m.table: ((m.entity, m.key_column),)
                 for m in self.entity_maps.values()}
        for relationship in self.model.relationships:
            rmap = self.relationship_maps[relationship.name]
            if rmap.kind == "bridge":
                table = rmap.bridge_table
                pairs[table] = ()
                columns = (rmap.source_column, rmap.target_column)
            else:
                table = rmap.fk_table
                # the forward name starts at the relationship's source:
                # the referenced row when the FK is on the target side
                columns = ((rmap.fk_column, "oid")
                           if rmap.fk_on_many_side_of_source
                           else ("oid", rmap.fk_column))
            names = (relationship.name, relationship.inverse_name)
            pairs[table] += tuple((name, column)
                                  for name, column in zip(names, columns)
                                  if name is not None)
        return {table: TableKeys(table_pairs)
                for table, table_pairs in pairs.items()}

    def join_steps(self, role_name: str) -> list[dict]:
        """The join conditions to traverse a relationship role.

        Returns a list of step dicts, each with ``table``, ``left_on``
        (column of the *previous* table) and ``right_on`` (column of the
        step's table).  One step for FK relationships, two for bridges.
        The traversal starts from the role's *source side* table (the
        entity you already have) and ends at the other side's table.
        """
        mapping, forward = self.relationship_map(role_name)
        to_entity = mapping.target_entity if forward else mapping.source_entity
        to_table = self.table_for(to_entity)
        if mapping.kind == "bridge":
            near = mapping.source_column if forward else mapping.target_column
            far = mapping.target_column if forward else mapping.source_column
            return [
                {"table": mapping.bridge_table, "left_on": "oid", "right_on": near},
                {"table": to_table, "left_on": far, "right_on": "oid"},
            ]
        # FK realization: the fk column lives on fk_table.
        if not mapping.fk_on_reached_side(forward):
            return [
                {"table": to_table, "left_on": mapping.fk_column, "right_on": "oid"}
            ]
        return [
            {"table": to_table, "left_on": "oid", "right_on": mapping.fk_column}
        ]

    def role_endpoints(self, role_name: str) -> tuple[str, str]:
        """(from_entity, to_entity) for a role name."""
        mapping, forward = self.relationship_map(role_name)
        if forward:
            return mapping.source_entity, mapping.target_entity
        return mapping.target_entity, mapping.source_entity

    def connection_write(self, role_name: str) -> dict:
        """How connect/disconnect operations write this role.

        Returns a dict with ``kind`` and either the fk location
        (``table``, ``column``, ``owner_entity``) or the bridge spec.
        """
        mapping, forward = self.relationship_map(role_name)
        if mapping.kind == "bridge":
            return {
                "kind": "bridge",
                "table": mapping.bridge_table,
                "source_column": mapping.source_column,
                "target_column": mapping.target_column,
                "forward": forward,
            }
        owner_entity = (
            mapping.target_entity if mapping.fk_on_many_side_of_source
            else mapping.source_entity
        )
        return {
            "kind": "fk",
            "table": mapping.fk_table,
            "column": mapping.fk_column,
            "owner_entity": owner_entity,
            "forward": forward,
        }


def map_to_relational(model: ERModel) -> RelationalMapping:
    """Run the mapping rules over a validated model."""
    model.validate()
    mapping = RelationalMapping(model)

    fk_extras: dict[str, list[Column]] = {}
    fk_constraints: dict[str, list[ForeignKey]] = {}
    fk_uniques: dict[str, list[tuple[str, ...]]] = {}
    fk_indexes: dict[str, list[Index]] = {}

    for entity in model.entities:
        table = entity.table_name
        entity_map = EntityMap(entity=entity.name, table=table)
        for attribute in entity.attributes:
            entity_map.attribute_columns[attribute.name] = attribute.column_name
        mapping.entity_maps[entity.name] = entity_map
        fk_extras[table] = []
        fk_constraints[table] = []
        fk_uniques[table] = []
        fk_indexes[table] = []

    bridge_schemas: list[TableSchema] = []
    for relationship in model.relationships:
        mapping.relationship_maps[relationship.name] = _map_relationship(
            mapping, relationship, fk_extras, fk_constraints, fk_uniques,
            fk_indexes, bridge_schemas,
        )

    for entity in model.entities:
        table = entity.table_name
        columns = [Column("oid", IntegerType(), nullable=False, auto_increment=True)]
        for attribute in entity.attributes:
            columns.append(
                Column(
                    attribute.column_name,
                    type_from_name(attribute.type_name),
                    nullable=not attribute.required,
                )
            )
        columns.extend(fk_extras[table])
        schema = TableSchema(
            name=table,
            columns=columns,
            primary_key=("oid",),
            foreign_keys=fk_constraints[table],
            unique_constraints=fk_uniques[table],
            indexes=fk_indexes[table],
        )
        mapping.schemas.append(schema)
    mapping.schemas.extend(bridge_schemas)
    return mapping


def _map_relationship(
    mapping: RelationalMapping,
    relationship: Relationship,
    fk_extras: dict,
    fk_constraints: dict,
    fk_uniques: dict,
    fk_indexes: dict,
    bridge_schemas: list,
) -> RelationshipMap:
    source_table = mapping.table_for(relationship.source)
    target_table = mapping.table_for(relationship.target)
    role = make_identifier(relationship.name)
    cardinality = relationship.cardinality

    if cardinality == Cardinality.MANY_TO_MANY:
        source_column = f"{make_identifier(relationship.source)}_oid"
        target_column = f"{make_identifier(relationship.target)}_oid"
        if source_column == target_column:  # self-relationship
            target_column = f"{target_column}_2"
        bridge_schemas.append(
            TableSchema(
                name=role,
                columns=[
                    Column(source_column, IntegerType(), nullable=False),
                    Column(target_column, IntegerType(), nullable=False),
                ],
                primary_key=(source_column, target_column),
                foreign_keys=[
                    ForeignKey((source_column,), source_table, ("oid",),
                               on_delete="cascade"),
                    ForeignKey((target_column,), target_table, ("oid",),
                               on_delete="cascade"),
                ],
                indexes=[
                    Index(f"ix_{role}_{target_column}", (target_column,)),
                ],
            )
        )
        return RelationshipMap(
            relationship=relationship.name,
            kind="bridge",
            source_entity=relationship.source,
            target_entity=relationship.target,
            bridge_table=role,
            source_column=source_column,
            target_column=target_column,
        )

    # FK realizations: pick the "many" side (or the target for 1:1).
    if cardinality == Cardinality.MANY_TO_ONE:
        fk_table, referenced = source_table, target_table
    else:  # ONE_TO_MANY, ONE_TO_ONE
        fk_table, referenced = target_table, source_table

    fk_column = f"{role}_oid"
    fk_extras[fk_table].append(Column(fk_column, IntegerType(), nullable=True))
    fk_constraints[fk_table].append(
        ForeignKey((fk_column,), referenced, ("oid",), on_delete="set_null")
    )
    fk_indexes[fk_table].append(Index(f"ix_{fk_table}_{fk_column}", (fk_column,)))
    if cardinality == Cardinality.ONE_TO_ONE:
        fk_uniques[fk_table].append((fk_column,))
    return RelationshipMap(
        relationship=relationship.name,
        kind="fk",
        source_entity=relationship.source,
        target_entity=relationship.target,
        fk_table=fk_table,
        fk_column=fk_column,
        fk_target_table=referenced,
        fk_on_many_side_of_source=(cardinality != Cardinality.MANY_TO_ONE),
    )
