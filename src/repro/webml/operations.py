"""Operation units.

Operations "execute some processing and then display a result page"
(§1).  They are not contained in pages; links trigger them, and their
OK/KO links decide where the user lands afterwards — possibly chaining
through further operations.  WebML's built-in content-management
operations (§8 lists create, delete, modify, connect, disconnect) plus
the session operations (login/logout) are implemented; user-defined
operations plug in through :mod:`repro.services.plugins`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import WebMLError


@dataclass
class OperationUnit:
    """Base operation.

    ``input_slots``/``output_slots`` define the dataflow contract the
    descriptors and the runtime honour, mirroring content units.
    """

    id: str
    name: str
    kind: str = "operation"

    def __post_init__(self) -> None:
        if not self.name:
            raise WebMLError("operation name must be non-empty")

    @property
    def input_slots(self) -> list[str]:
        return []

    @property
    def output_slots(self) -> list[str]:
        return []


@dataclass
class CreateUnit(OperationUnit):
    """Creates an instance of ``entity`` from the incoming slot values
    (one slot per attribute); outputs the new object's oid."""

    entity: str | None = None
    attributes: list[str] = field(default_factory=list)
    kind: str = "create"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.entity:
            raise WebMLError(f"create unit {self.name!r} needs an entity")

    @property
    def input_slots(self) -> list[str]:
        return list(self.attributes)

    @property
    def output_slots(self) -> list[str]:
        return ["oid"]


@dataclass
class DeleteUnit(OperationUnit):
    """Deletes the instance(s) whose oid(s) arrive on the input."""

    entity: str | None = None
    kind: str = "delete"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.entity:
            raise WebMLError(f"delete unit {self.name!r} needs an entity")

    @property
    def input_slots(self) -> list[str]:
        return ["oid"]


@dataclass
class ModifyUnit(OperationUnit):
    """Updates the listed attributes of the instance given by oid."""

    entity: str | None = None
    attributes: list[str] = field(default_factory=list)
    kind: str = "modify"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.entity:
            raise WebMLError(f"modify unit {self.name!r} needs an entity")
        if not self.attributes:
            raise WebMLError(f"modify unit {self.name!r} needs attributes to set")

    @property
    def input_slots(self) -> list[str]:
        return ["oid"] + list(self.attributes)

    @property
    def output_slots(self) -> list[str]:
        return ["oid"]


@dataclass
class ConnectUnit(OperationUnit):
    """Creates an instance of relationship ``role`` between the objects
    arriving as ``source_oid`` and ``target_oid``."""

    role: str | None = None
    kind: str = "connect"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.role:
            raise WebMLError(f"connect unit {self.name!r} needs a relationship role")

    @property
    def input_slots(self) -> list[str]:
        return ["source_oid", "target_oid"]


@dataclass
class DisconnectUnit(OperationUnit):
    """Removes the relationship instance between the two objects."""

    role: str | None = None
    kind: str = "disconnect"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.role:
            raise WebMLError(
                f"disconnect unit {self.name!r} needs a relationship role"
            )

    @property
    def input_slots(self) -> list[str]:
        return ["source_oid", "target_oid"]


@dataclass
class LoginUnit(OperationUnit):
    """Authenticates against the ``user_entity`` (username/password
    attributes) and binds the user to the session — the paper's
    "session-level information and personalization aspects"."""

    user_entity: str = "User"
    username_attribute: str = "username"
    password_attribute: str = "password"
    kind: str = "login"

    @property
    def input_slots(self) -> list[str]:
        return ["username", "password"]

    @property
    def output_slots(self) -> list[str]:
        return ["oid"]


@dataclass
class LogoutUnit(OperationUnit):
    """Clears the session's user binding."""

    kind: str = "logout"
