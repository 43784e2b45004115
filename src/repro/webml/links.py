"""Links between pages, units and operations.

The paper distinguishes links by what they do at runtime:

- ``NORMAL`` — rendered as an anchor/button; following it navigates and
  transports parameters (Figure 1's arrow from the index unit to the
  paper page),
- ``TRANSPORT`` — the dashed arrow: no user interaction, parameters flow
  automatically between units of the same page,
- ``AUTOMATIC`` — navigated by the runtime on page load when the user
  provides no explicit choice (used to give units a default input),
- ``OK`` / ``KO`` — the outcome links of an operation, deciding "to
  which page redirect the user in case of operation failure" (§2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import WebMLError


class LinkKind(enum.Enum):
    NORMAL = "normal"
    TRANSPORT = "transport"
    AUTOMATIC = "automatic"
    OK = "ok"
    KO = "ko"

    @classmethod
    def parse(cls, text: str) -> "LinkKind":
        for member in cls:
            if member.value == text.lower():
                return member
        raise WebMLError(f"unknown link kind {text!r}")


@dataclass(frozen=True)
class LinkParameter:
    """Bind one output of the link's source to one input slot of its
    target (``source_output`` → ``target_input``)."""

    source_output: str
    target_input: str


@dataclass
class Link:
    """A directed link between two model elements (by element id)."""

    id: str
    kind: LinkKind
    source: str
    target: str
    parameters: list[LinkParameter] = field(default_factory=list)
    label: str | None = None

    def __post_init__(self) -> None:
        if isinstance(self.kind, str):
            self.kind = LinkKind.parse(self.kind)

    def carry(self, source_output: str, target_input: str | None = None) -> "Link":
        """Fluent helper: add a parameter binding (defaults to same name)."""
        self.parameters.append(
            LinkParameter(source_output, target_input or source_output)
        )
        return self
