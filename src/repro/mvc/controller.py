"""The Controller and its configuration.

§2: "a program acting as the Controller intercepts [the request] ...
decides the course of action necessary to service each request."  §3:
"the action mapping is a declaration placed in the Controller's
configuration file that ties together the user's request, the page
action, and the page view."

The Controller here is configured *only* from the generated XML
configuration (see :mod:`repro.codegen.configgen`) — exactly the
property §7 celebrates: re-linking the hypertext regenerates this file
and nothing else in the control layer changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ControllerError
from repro.xmlkit import parse_xml


@dataclass
class ActionMapping:
    """One path→action declaration."""

    path: str
    action_type: str  # "PageAction" | "OperationAction"
    site_view_id: str
    page_id: str | None = None
    operation_id: str | None = None
    view: str | None = None
    public: bool = False  # reachable without login even in protected views
    forwards: dict = field(default_factory=dict)  # "ok"/"ko" → target element id


@dataclass
class HomeMapping:
    site_view_id: str
    page_id: str
    requires_login: bool = False


class Controller:
    """Request-path router built from the generated configuration."""

    def __init__(self) -> None:
        self.mappings: dict[str, ActionMapping] = {}
        #: page id → the first path serving it (built by load_config)
        self._page_paths: dict[str, str] = {}
        self.homes: dict[str, HomeMapping] = {}
        self.application = ""

    @classmethod
    def from_config(cls, config_xml: str) -> "Controller":
        controller = cls()
        controller.load_config(config_xml)
        return controller

    def load_config(self, config_xml: str) -> None:
        """(Re)load the configuration — §7's re-link/regenerate cycle."""
        root = parse_xml(config_xml)
        if root.tag != "controllerConfig":
            raise ControllerError(
                f"expected <controllerConfig>, got <{root.tag}>"
            )
        self.application = root.get("application", "")
        mappings: dict[str, ActionMapping] = {}
        mappings_el = root.find("actionMappings")
        if mappings_el is not None:
            for action_el in mappings_el.find_all("action"):
                mapping = ActionMapping(
                    path=action_el.require_attr("path"),
                    action_type=action_el.require_attr("type"),
                    site_view_id=action_el.require_attr("siteview"),
                    page_id=action_el.get("page"),
                    operation_id=action_el.get("operation"),
                    view=action_el.get("view"),
                    public=action_el.get("public") == "true",
                )
                for forward_el in action_el.find_all("forward"):
                    mapping.forwards[forward_el.require_attr("name")] = {
                        "target": forward_el.require_attr("target"),
                        "page": forward_el.get("page"),
                    }
                if mapping.path in mappings:
                    raise ControllerError(f"duplicate action path {mapping.path!r}")
                mappings[mapping.path] = mapping
        homes: dict[str, HomeMapping] = {}
        homes_el = root.find("homePages")
        if homes_el is not None:
            for home_el in homes_el.find_all("home"):
                home = HomeMapping(
                    site_view_id=home_el.require_attr("siteview"),
                    page_id=home_el.require_attr("page"),
                    requires_login=home_el.get("requiresLogin") == "true",
                )
                homes[home.site_view_id] = home
        page_paths: dict[str, str] = {}
        for path, mapping in mappings.items():
            if mapping.action_type == "PageAction":
                page_paths.setdefault(mapping.page_id, path)
        # Swap atomically so in-flight requests never see a half-loaded map.
        self.mappings = mappings
        self._page_paths = page_paths
        self.homes = homes

    def resolve(self, path: str) -> ActionMapping:
        mapping = self.mappings.get(path)
        if mapping is None:
            raise ControllerError(f"no action mapping for path {path!r}")
        return mapping

    def home_for(self, site_view_id: str) -> HomeMapping:
        home = self.homes.get(site_view_id)
        if home is None:
            raise ControllerError(f"no home page for site view {site_view_id!r}")
        return home

    def page_path(self, site_view_id: str, page_id: str) -> str:
        return f"/{site_view_id}/{page_id}"

    def operation_path(self, operation_id: str) -> str:
        return f"/do/{operation_id}"

    def path_of_page(self, page_id: str) -> str:
        path = self._page_paths.get(page_id)
        mapping = self.mappings.get(path)
        # the index is checked against the live dict, so a mapping added
        # or dropped by hand (or a reload in flight) falls to the scan
        if mapping is not None and mapping.page_id == page_id \
                and mapping.action_type == "PageAction":
            return path
        for path, mapping in self.mappings.items():
            if mapping.action_type == "PageAction" and mapping.page_id == page_id:
                return path
        raise ControllerError(f"no mapping serves page {page_id!r}")
