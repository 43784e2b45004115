"""Device profiles and user-agent driven stylesheet selection (§5).

"Different XSL rules can be designed addressing the presentation
requirements of alternative devices; then, the most appropriate rules
can be dynamically applied at runtime, based on the user agent declared
in the HTTP request."
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import PresentationError
from repro.presentation.xslt import Stylesheet, UnitRule


@dataclass
class DeviceProfile:
    """A device class recognized from User-Agent substrings."""

    name: str
    agent_markers: list[str] = field(default_factory=list)

    def matches(self, user_agent: str) -> bool:
        agent = user_agent.lower()
        return any(marker.lower() in agent for marker in self.agent_markers)


#: default profiles, most specific first
DEFAULT_PROFILES = [
    DeviceProfile("wap", ["wap", "nokia", "up.browser"]),
    DeviceProfile("pda", ["windows ce", "palm", "blazer", "pda"]),
    DeviceProfile("html", ["mozilla", "opera", "msie"]),
]


class DeviceRegistry:
    """Maps user agents to device profiles and profiles to stylesheets."""

    def __init__(self, profiles: list[DeviceProfile] | None = None):
        self.profiles = list(profiles or DEFAULT_PROFILES)
        self._stylesheets: dict[str, Stylesheet] = {}

    def register_stylesheet(self, stylesheet: Stylesheet) -> None:
        for device in stylesheet.devices:
            self._stylesheets[device] = stylesheet

    def profile_for(self, user_agent: str) -> DeviceProfile:
        for profile in self.profiles:
            if profile.matches(user_agent):
                return profile
        return self.profiles[-1] if self.profiles else DeviceProfile("html")

    def stylesheet_for(self, user_agent: str) -> Stylesheet:
        profile = self.profile_for(user_agent)
        stylesheet = self._stylesheets.get(profile.name)
        if stylesheet is None:
            stylesheet = self._stylesheets.get("html")
        if stylesheet is None:
            raise PresentationError(
                f"no stylesheet registered for device {profile.name!r} "
                "and no html fallback"
            )
        return stylesheet


def compact_device_stylesheet(name: str = "wap-style") -> Stylesheet:
    """A minimal-markup stylesheet for constrained devices: lists instead
    of tables, no titles, terse chrome."""
    return Stylesheet(
        name=name,
        devices=["wap", "pda"],
        unit_rules=[
            UnitRule(pattern="webml:indexUnit",
                     set_attrs={"render-as": "list"},
                     name="wap-index"),
            UnitRule(pattern="webml:dataUnit",
                     set_attrs={"show-title": "false"},
                     name="wap-data"),
        ],
        css=".unit { font-size: 90%; }",
    )
