"""Exception hierarchy for the repro library.

Every layer raises a subclass of :class:`ReproError`, so callers can catch
the library's failures with a single ``except`` clause while still being
able to distinguish the layer that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by this library."""


# ---------------------------------------------------------------------------
# XML kit
# ---------------------------------------------------------------------------

class XmlError(ReproError):
    """Malformed XML document or illegal tree operation."""


class XmlParseError(XmlError):
    """The XML parser rejected its input.

    Carries the 1-based ``line`` and ``column`` of the offending character.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


# ---------------------------------------------------------------------------
# Relational engine
# ---------------------------------------------------------------------------

class DatabaseError(ReproError):
    """Base class for relational-engine failures."""


class SqlSyntaxError(DatabaseError):
    """The SQL text could not be parsed."""


class SchemaError(DatabaseError):
    """DDL problem: unknown table/column, duplicate definition, bad type."""


class IntegrityError(DatabaseError):
    """Constraint violation: primary key, foreign key, NOT NULL, unique."""


class TypeMismatchError(DatabaseError):
    """A value does not fit the declared SQL type of its column."""


class QueryError(DatabaseError):
    """A semantically invalid query (unknown column, bad aggregate use...)."""


class ReplicationError(DatabaseError):
    """WAL-shipping replication failure: a write on a read-only replica,
    an out-of-order record (the stream lost its prefix), or a protocol
    violation on the shipping socket."""


# ---------------------------------------------------------------------------
# Conceptual models
# ---------------------------------------------------------------------------

class ModelError(ReproError):
    """Base class for ER/WebML model construction or validation errors."""


class ERModelError(ModelError):
    """Invalid Entity-Relationship model element."""


class WebMLError(ModelError):
    """Invalid WebML hypertext model element."""


class ValidationError(ModelError):
    """A model failed validation; ``problems`` lists every finding."""

    def __init__(self, problems: list[str]):
        super().__init__(
            "model validation failed with %d problem(s):\n%s"
            % (len(problems), "\n".join("  - " + p for p in problems))
        )
        self.problems = list(problems)


# ---------------------------------------------------------------------------
# Runtime
# ---------------------------------------------------------------------------

class RuntimeLayerError(ReproError):
    """Base class for MVC/service runtime failures."""


class DescriptorError(RuntimeLayerError):
    """Missing or malformed unit/page descriptor."""


class ControllerError(RuntimeLayerError):
    """No action mapping for a request, or a broken mapping."""


class ServiceError(RuntimeLayerError):
    """A page/unit/operation service failed to compute."""


class ContainerError(RuntimeLayerError):
    """Application-server container misuse (unknown component, exhausted pool)."""


# ---------------------------------------------------------------------------
# Presentation
# ---------------------------------------------------------------------------

class PresentationError(ReproError):
    """Base class for template/rule failures."""


class TemplateRenderError(PresentationError):
    """A template referenced a bean or attribute that is not available."""


class RuleError(PresentationError):
    """An XSLT-style presentation rule is malformed or failed to apply."""


# ---------------------------------------------------------------------------
# Code generation
# ---------------------------------------------------------------------------

class CodegenError(ReproError):
    """The generator could not produce an artifact from the model."""


# ---------------------------------------------------------------------------
# Caching
# ---------------------------------------------------------------------------

class CacheError(ReproError):
    """Cache misconfiguration (unknown policy, bad dependency declaration)."""
