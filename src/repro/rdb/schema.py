"""Table schema definitions.

A :class:`TableSchema` is pure metadata: columns with SQL types, the
primary key, foreign keys, unique constraints, and secondary indexes.
Storage and enforcement live in :mod:`repro.rdb.storage` and
:mod:`repro.rdb.database`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SchemaError
from repro.rdb.types import SqlType


@dataclass
class Column:
    """A table column.

    ``auto_increment`` is only legal on single-column INTEGER primary
    keys; the database assigns ascending values when the INSERT omits the
    column or passes NULL.
    """

    name: str
    sql_type: SqlType
    nullable: bool = True
    auto_increment: bool = False
    default: object = None

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("column name must be non-empty")


@dataclass
class ForeignKey:
    """``columns`` in this table reference ``target_columns`` of ``target_table``.

    ``on_delete`` is one of ``"restrict"`` (reject deletes of referenced
    rows), ``"cascade"`` (delete referencing rows too), or ``"set_null"``.
    """

    columns: tuple[str, ...]
    target_table: str
    target_columns: tuple[str, ...]
    on_delete: str = "restrict"

    def __post_init__(self) -> None:
        self.columns = tuple(self.columns)
        self.target_columns = tuple(self.target_columns)
        if len(self.columns) != len(self.target_columns):
            raise SchemaError("foreign key column count mismatch")
        if not self.columns:
            raise SchemaError("foreign key needs at least one column")
        if self.on_delete not in ("restrict", "cascade", "set_null"):
            raise SchemaError(f"unknown on_delete action {self.on_delete!r}")


@dataclass
class Index:
    """A named secondary index over one or more columns."""

    name: str
    columns: tuple[str, ...]
    unique: bool = False

    def __post_init__(self) -> None:
        self.columns = tuple(self.columns)
        if not self.columns:
            raise SchemaError("index needs at least one column")


@dataclass
class TableSchema:
    """Full definition of one table."""

    name: str
    columns: list[Column] = field(default_factory=list)
    primary_key: tuple[str, ...] = ()
    foreign_keys: list[ForeignKey] = field(default_factory=list)
    unique_constraints: list[tuple[str, ...]] = field(default_factory=list)
    indexes: list[Index] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("table name must be non-empty")
        self.primary_key = tuple(self.primary_key)
        self.unique_constraints = [tuple(u) for u in self.unique_constraints]
        self.validate()

    # -- lookups ------------------------------------------------------------

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def column(self, name: str) -> Column:
        for col in self.columns:
            if col.name == name:
                return col
        raise SchemaError(f"table {self.name!r} has no column {name!r}")

    def has_column(self, name: str) -> bool:
        return any(c.name == name for c in self.columns)

    # -- validation ----------------------------------------------------------

    def validate(self) -> None:
        seen: set[str] = set()
        for col in self.columns:
            if col.name in seen:
                raise SchemaError(
                    f"duplicate column {col.name!r} in table {self.name!r}"
                )
            seen.add(col.name)
        for pk_col in self.primary_key:
            if pk_col not in seen:
                raise SchemaError(
                    f"primary key column {pk_col!r} not in table {self.name!r}"
                )
        for fkey in self.foreign_keys:
            for col in fkey.columns:
                if col not in seen:
                    raise SchemaError(
                        f"foreign key column {col!r} not in table {self.name!r}"
                    )
        for unique in self.unique_constraints:
            for col in unique:
                if col not in seen:
                    raise SchemaError(
                        f"unique constraint column {col!r} not in table {self.name!r}"
                    )
        for index in self.indexes:
            for col in index.columns:
                if col not in seen:
                    raise SchemaError(
                        f"index {index.name!r} column {col!r} not in table {self.name!r}"
                    )
        autos = [c for c in self.columns if c.auto_increment]
        if autos:
            if len(autos) > 1:
                raise SchemaError("at most one auto-increment column per table")
            if self.primary_key != (autos[0].name,):
                raise SchemaError(
                    "auto-increment requires the column to be the single-column "
                    "primary key"
                )

    # -- DDL -----------------------------------------------------------------

    def to_ddl(self) -> str:
        """Render a CREATE TABLE statement the engine's parser accepts."""
        lines: list[str] = []
        for col in self.columns:
            parts = [col.name, col.sql_type.ddl()]
            if not col.nullable:
                parts.append("NOT NULL")
            if col.auto_increment:
                parts.append("AUTOINCREMENT")
            lines.append("  " + " ".join(parts))
        if self.primary_key:
            lines.append(f"  PRIMARY KEY ({', '.join(self.primary_key)})")
        for unique in self.unique_constraints:
            lines.append(f"  UNIQUE ({', '.join(unique)})")
        for fkey in self.foreign_keys:
            clause = (
                f"  FOREIGN KEY ({', '.join(fkey.columns)}) REFERENCES "
                f"{fkey.target_table} ({', '.join(fkey.target_columns)})"
            )
            if fkey.on_delete != "restrict":
                clause += " ON DELETE " + fkey.on_delete.replace("_", " ").upper()
            lines.append(clause)
        body = ",\n".join(lines)
        return f"CREATE TABLE {self.name} (\n{body}\n)"

    def index_ddl(self) -> list[str]:
        """One CREATE INDEX statement per secondary index, to run after
        :meth:`to_ddl`'s CREATE TABLE."""
        return [
            f"CREATE {'UNIQUE ' if index.unique else ''}INDEX {index.name} "
            f"ON {self.name} ({', '.join(index.columns)})"
            for index in self.indexes
        ]
