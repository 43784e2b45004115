"""ER model elements.

The supported model is deliberately "conventional" (paper §1): named
entities with flat typed attributes, and *binary* relationships with
one of four cardinalities.  Every entity implicitly carries a surrogate
``oid`` identifier — WebML units address instances by object identifier,
and the relational mapping relies on it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import ERModelError, ValidationError
from repro.rdb.types import type_from_name
from repro.util import make_identifier


class Cardinality(enum.Enum):
    """Cardinality of a relationship, read source→target.

    ``ONE_TO_MANY`` means one source instance relates to many targets
    (the classic Volume→Issue shape).
    """

    ONE_TO_ONE = "1:1"
    ONE_TO_MANY = "1:N"
    MANY_TO_ONE = "N:1"
    MANY_TO_MANY = "N:M"

    @classmethod
    def parse(cls, text: str) -> "Cardinality":
        for member in cls:
            if member.value == text.upper():
                return member
        raise ERModelError(f"unknown cardinality {text!r} (use 1:1, 1:N, N:1, N:M)")

    def inverted(self) -> "Cardinality":
        mapping = {
            Cardinality.ONE_TO_MANY: Cardinality.MANY_TO_ONE,
            Cardinality.MANY_TO_ONE: Cardinality.ONE_TO_MANY,
        }
        return mapping.get(self, self)


@dataclass
class Attribute:
    """A typed entity attribute; ``type_name`` uses SQL DDL spelling."""

    name: str
    type_name: str = "VARCHAR(255)"
    required: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ERModelError("attribute name must be non-empty")
        # Fail fast on bad types instead of at mapping time.
        type_from_name(self.type_name)

    @property
    def column_name(self) -> str:
        return make_identifier(self.name)


@dataclass
class Entity:
    """An entity with its attributes.

    The implicit ``oid`` key is not listed among ``attributes``; it is
    added by the relational mapping.
    """

    name: str
    attributes: list[Attribute] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.name:
            raise ERModelError("entity name must be non-empty")

    def attribute(self, name: str) -> Attribute:
        for attribute in self.attributes:
            if attribute.name == name:
                return attribute
        raise ERModelError(f"entity {self.name!r} has no attribute {name!r}")

    def has_attribute(self, name: str) -> bool:
        return any(a.name == name for a in self.attributes)

    @property
    def attribute_names(self) -> list[str]:
        return [a.name for a in self.attributes]

    @property
    def table_name(self) -> str:
        return make_identifier(self.name)


@dataclass
class Relationship:
    """A named binary relationship between two entities.

    WebML navigates relationships in both directions; ``name`` labels the
    source→target direction (``VolumeToIssue``) and ``inverse_name``, when
    given, labels target→source (``IssueToVolume``).
    """

    name: str
    source: str
    target: str
    cardinality: Cardinality = Cardinality.ONE_TO_MANY
    inverse_name: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ERModelError("relationship name must be non-empty")
        if isinstance(self.cardinality, str):
            self.cardinality = Cardinality.parse(self.cardinality)


class ERModel:
    """A validated collection of entities and relationships."""

    def __init__(
        self,
        entities: list[Entity] | None = None,
        relationships: list[Relationship] | None = None,
        name: str = "schema",
    ):
        self.name = name
        self.entities: list[Entity] = []
        self.relationships: list[Relationship] = []
        for entity in entities or []:
            self.add_entity(entity)
        for relationship in relationships or []:
            self.add_relationship(relationship)

    # -- construction -----------------------------------------------------------

    def add_entity(self, entity: Entity) -> Entity:
        if any(e.name == entity.name for e in self.entities):
            raise ERModelError(f"duplicate entity {entity.name!r}")
        self.entities.append(entity)
        return entity

    def entity(self, name: str, attributes: list | None = None) -> Entity:
        """Fetch an entity by name or, when ``attributes`` is given,
        declare a new one (fluent model-building helper)."""
        if attributes is not None:
            parsed = [
                a if isinstance(a, Attribute) else Attribute(*a)
                if isinstance(a, tuple) else Attribute(a)
                for a in attributes
            ]
            return self.add_entity(Entity(name, parsed))
        for entity in self.entities:
            if entity.name == name:
                return entity
        raise ERModelError(f"unknown entity {name!r}")

    def has_entity(self, name: str) -> bool:
        return any(e.name == name for e in self.entities)

    def add_relationship(self, relationship: Relationship) -> Relationship:
        if any(r.name == relationship.name for r in self.relationships):
            raise ERModelError(f"duplicate relationship {relationship.name!r}")
        self.relationships.append(relationship)
        return relationship

    def relate(
        self,
        name: str,
        source: str,
        target: str,
        cardinality: str | Cardinality = Cardinality.ONE_TO_MANY,
        inverse_name: str | None = None,
    ) -> Relationship:
        if isinstance(cardinality, str):
            cardinality = Cardinality.parse(cardinality)
        return self.add_relationship(
            Relationship(name, source, target, cardinality, inverse_name)
        )

    def relationship(self, name: str) -> Relationship:
        """Resolve ``name`` as a forward or inverse relationship name.

        Returns the relationship; callers that need the direction should
        use :meth:`resolve_role`.
        """
        relationship, _ = self.resolve_role(name)
        return relationship

    def resolve_role(self, name: str) -> tuple[Relationship, bool]:
        """Find a relationship by forward or inverse name.

        Returns ``(relationship, forward)`` where ``forward`` is False
        when ``name`` matched the inverse role.
        """
        for relationship in self.relationships:
            if relationship.name == name:
                return relationship, True
            if relationship.inverse_name == name:
                return relationship, False
        raise ERModelError(f"unknown relationship {name!r}")

    def has_relationship(self, name: str) -> bool:
        try:
            self.resolve_role(name)
            return True
        except ERModelError:
            return False

    # -- validation --------------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`ValidationError` listing every problem found."""
        problems: list[str] = []
        for entity in self.entities:
            seen: set[str] = set()
            for attribute in entity.attributes:
                if attribute.name in seen:
                    problems.append(
                        f"entity {entity.name!r}: duplicate attribute "
                        f"{attribute.name!r}"
                    )
                seen.add(attribute.name)
            if "oid" in {a.column_name for a in entity.attributes}:
                problems.append(
                    f"entity {entity.name!r}: attribute collides with the "
                    "implicit oid key"
                )
        names_seen: set[str] = set()
        for relationship in self.relationships:
            for endpoint in (relationship.source, relationship.target):
                if not self.has_entity(endpoint):
                    problems.append(
                        f"relationship {relationship.name!r}: unknown entity "
                        f"{endpoint!r}"
                    )
            for role in (relationship.name, relationship.inverse_name):
                if role is None:
                    continue
                if role in names_seen:
                    problems.append(f"duplicate relationship role name {role!r}")
                if self.has_entity(role):
                    # one dependency-key space holds entity and role names
                    problems.append(
                        f"relationship role name {role!r} is an entity name"
                    )
                names_seen.add(role)
        if problems:
            raise ValidationError(problems)
