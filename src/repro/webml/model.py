"""WebML model containers and the fluent builder API.

A :class:`WebMLModel` holds site views; a :class:`SiteView` holds areas
and pages ("the structuring of the application into different
hypertexts ... the hierarchical organization of a site view into
areas", §1); a :class:`Page` holds content units.  Operation units hang
off their site view and are reached through links.

Every element receives a model-unique id (``sv1``, ``page3``,
``unit12``, ``op2``, ``link7``); links reference elements by id so the
model serializes cleanly and the controller configuration can be
generated from the topology alone (§7: "the configuration file ... is
automatically generated from the topology of the hypertext").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.er.model import ERModel
from repro.errors import WebMLError
from repro.webml.links import Link, LinkKind, LinkParameter
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
from repro.webml.selectors import Selector
from repro.webml.units import (
    ContentUnit,
    DataUnit,
    EntryField,
    EntryUnit,
    HierarchicalIndexUnit,
    HierarchyLevel,
    IndexUnit,
    MultichoiceIndexUnit,
    MultidataUnit,
    ScrollerUnit,
)


@dataclass
class Page:
    """A page and its content units.

    ``landmark`` pages appear in the site view's navigation menu on
    every page (WebML's landmark notion — the global entry points of a
    site view).
    """

    id: str
    name: str
    units: list[ContentUnit] = field(default_factory=list)
    layout_category: str = "one-column"  # §5: page layouts are classified
    landmark: bool = False
    _model: "WebMLModel | None" = field(default=None, repr=False)

    def _add_unit(self, unit: ContentUnit) -> ContentUnit:
        if any(u.name == unit.name for u in self.units):
            raise WebMLError(
                f"page {self.name!r} already has a unit named {unit.name!r}"
            )
        self.units.append(unit)
        assert self._model is not None
        self._model._register(unit.id, unit)
        self._model._unit_page[unit.id] = self.id
        return unit

    # -- unit builders (one per WebML unit kind) ---------------------------

    def data_unit(self, name: str, entity: str, **kwargs) -> DataUnit:
        return self._add_unit(
            DataUnit(self._model._new_id("unit"), name, entity=entity, **kwargs)
        )

    def index_unit(self, name: str, entity: str, **kwargs) -> IndexUnit:
        return self._add_unit(
            IndexUnit(self._model._new_id("unit"), name, entity=entity, **kwargs)
        )

    def multidata_unit(self, name: str, entity: str, **kwargs) -> MultidataUnit:
        return self._add_unit(
            MultidataUnit(self._model._new_id("unit"), name, entity=entity, **kwargs)
        )

    def multichoice_unit(self, name: str, entity: str, **kwargs) -> MultichoiceIndexUnit:
        return self._add_unit(
            MultichoiceIndexUnit(
                self._model._new_id("unit"), name, entity=entity, **kwargs
            )
        )

    def scroller_unit(self, name: str, entity: str, **kwargs) -> ScrollerUnit:
        return self._add_unit(
            ScrollerUnit(self._model._new_id("unit"), name, entity=entity, **kwargs)
        )

    def entry_unit(self, name: str, fields: list, **kwargs) -> EntryUnit:
        parsed = [
            f if isinstance(f, EntryField)
            else EntryField(*f) if isinstance(f, tuple) else EntryField(f)
            for f in fields
        ]
        return self._add_unit(
            EntryUnit(self._model._new_id("unit"), name, fields=parsed, **kwargs)
        )

    def hierarchical_index(
        self, name: str, levels: list[HierarchyLevel], **kwargs
    ) -> HierarchicalIndexUnit:
        return self._add_unit(
            HierarchicalIndexUnit(
                self._model._new_id("unit"), name, levels=levels, **kwargs
            )
        )

    def plugin_unit(self, name: str, kind: str, entity: str | None = None,
                    **kwargs) -> ContentUnit:
        """Place a §7 plug-in unit; its kind must be registered with the
        plug-in registry (which supplies service, tag, and rules)."""
        from repro.services.plugins import plugin_registry

        if plugin_registry.get(kind) is None:
            raise WebMLError(
                f"no plug-in registered for unit kind {kind!r}"
            )
        return self._add_unit(
            ContentUnit(self._model._new_id("unit"), name, entity=entity,
                        kind=kind, **kwargs)
        )

    def unit(self, name: str) -> ContentUnit:
        for unit in self.units:
            if unit.name == name:
                return unit
        raise WebMLError(f"page {self.name!r} has no unit {name!r}")


@dataclass
class Area:
    """A named group of pages (and sub-areas) inside a site view."""

    id: str
    name: str
    pages: list[Page] = field(default_factory=list)
    areas: list["Area"] = field(default_factory=list)
    _site_view: "SiteView | None" = field(default=None, repr=False)

    def page(self, name: str, **kwargs) -> Page:
        assert self._site_view is not None
        page = self._site_view._build_page(name, **kwargs)
        self.pages.append(page)
        return page

    def area(self, name: str) -> "Area":
        assert self._site_view is not None
        sub = Area(self._site_view._model._new_id("area"), name)
        sub._site_view = self._site_view
        self.areas.append(sub)
        self._site_view._model._register(sub.id, sub)
        return sub

    def all_pages(self) -> list[Page]:
        pages = list(self.pages)
        for sub in self.areas:
            pages.extend(sub.all_pages())
        return pages


@dataclass
class SiteView:
    """A hypertext targeted at one user group or device (§1)."""

    id: str
    name: str
    device: str = "html"
    requires_login: bool = False
    user_group: str | None = None
    pages: list[Page] = field(default_factory=list)
    areas: list[Area] = field(default_factory=list)
    operations: list[OperationUnit] = field(default_factory=list)
    home_page_id: str | None = None
    _model: "WebMLModel | None" = field(default=None, repr=False)

    # -- construction ------------------------------------------------------

    def _build_page(self, name: str, home: bool = False, **kwargs) -> Page:
        assert self._model is not None
        if any(p.name == name for p in self.all_pages()):
            raise WebMLError(
                f"site view {self.name!r} already has a page named {name!r}"
            )
        page = Page(self._model._new_id("page"), name, **kwargs)
        page._model = self._model
        self._model._register(page.id, page)
        self._model._page_site_view[page.id] = self.id
        if home or self.home_page_id is None:
            self.home_page_id = page.id
        return page

    def page(self, name: str, home: bool = False, **kwargs) -> Page:
        page = self._build_page(name, home=home, **kwargs)
        self.pages.append(page)
        return page

    def area(self, name: str) -> Area:
        assert self._model is not None
        area = Area(self._model._new_id("area"), name)
        area._site_view = self
        self.areas.append(area)
        self._model._register(area.id, area)
        return area

    def _add_operation(self, operation: OperationUnit) -> OperationUnit:
        assert self._model is not None
        if any(o.name == operation.name for o in self.operations):
            raise WebMLError(
                f"site view {self.name!r} already has operation {operation.name!r}"
            )
        self.operations.append(operation)
        self._model._register(operation.id, operation)
        self._model._operation_site_view[operation.id] = self.id
        return operation

    def create_op(self, name: str, entity: str, attributes: list[str]) -> CreateUnit:
        return self._add_operation(
            CreateUnit(self._model._new_id("op"), name, entity=entity,
                       attributes=attributes)
        )

    def delete_op(self, name: str, entity: str) -> DeleteUnit:
        return self._add_operation(
            DeleteUnit(self._model._new_id("op"), name, entity=entity)
        )

    def modify_op(self, name: str, entity: str, attributes: list[str]) -> ModifyUnit:
        return self._add_operation(
            ModifyUnit(self._model._new_id("op"), name, entity=entity,
                       attributes=attributes)
        )

    def connect_op(self, name: str, role: str) -> ConnectUnit:
        return self._add_operation(
            ConnectUnit(self._model._new_id("op"), name, role=role)
        )

    def disconnect_op(self, name: str, role: str) -> DisconnectUnit:
        return self._add_operation(
            DisconnectUnit(self._model._new_id("op"), name, role=role)
        )

    def login_op(self, name: str = "Login", **kwargs) -> LoginUnit:
        return self._add_operation(
            LoginUnit(self._model._new_id("op"), name, **kwargs)
        )

    def logout_op(self, name: str = "Logout") -> LogoutUnit:
        return self._add_operation(LogoutUnit(self._model._new_id("op"), name))

    # -- navigation ----------------------------------------------------------

    def all_pages(self) -> list[Page]:
        pages = list(self.pages)
        for area in self.areas:
            pages.extend(area.all_pages())
        return pages

    def find_page(self, name: str) -> Page:
        for page in self.all_pages():
            if page.name == name:
                return page
        raise WebMLError(f"site view {self.name!r} has no page {name!r}")

    def landmark_pages(self) -> list[Page]:
        """The pages shown in this view's global navigation menu."""
        return [p for p in self.all_pages() if p.landmark]

    @property
    def home_page(self) -> Page:
        if self.home_page_id is None:
            raise WebMLError(f"site view {self.name!r} has no pages")
        assert self._model is not None
        return self._model.element(self.home_page_id)


class WebMLModel:
    """The root of a WebML specification, bound to its ER data model."""

    def __init__(self, data_model: ERModel, name: str = "application"):
        self.name = name
        self.data_model = data_model
        self.site_views: list[SiteView] = []
        self.links: list[Link] = []
        self._elements: dict[str, object] = {}
        self._counters: dict[str, int] = {}
        self._unit_page: dict[str, str] = {}
        self._page_site_view: dict[str, str] = {}
        self._operation_site_view: dict[str, str] = {}
        # topology indexes: generation at Acer scale (3068 units, ~2800
        # links) must stay linear, not units x links
        self._links_by_source: dict[str, list[Link]] = {}
        self._links_by_target: dict[str, list[Link]] = {}

    # -- identity -----------------------------------------------------------

    def _new_id(self, prefix: str) -> str:
        self._counters[prefix] = self._counters.get(prefix, 0) + 1
        return f"{prefix}{self._counters[prefix]}"

    def _register(self, element_id: str, element) -> None:
        if element_id in self._elements:
            raise WebMLError(f"duplicate element id {element_id!r}")
        self._elements[element_id] = element

    def element(self, element_id: str):
        try:
            return self._elements[element_id]
        except KeyError:
            raise WebMLError(f"unknown element id {element_id!r}") from None

    def has_element(self, element_id: str) -> bool:
        return element_id in self._elements

    # -- construction ----------------------------------------------------------

    def site_view(self, name: str, **kwargs) -> SiteView:
        if any(sv.name == name for sv in self.site_views):
            raise WebMLError(f"duplicate site view {name!r}")
        view = SiteView(self._new_id("sv"), name, **kwargs)
        view._model = self
        self.site_views.append(view)
        self._register(view.id, view)
        return view

    def find_site_view(self, name: str) -> SiteView:
        for view in self.site_views:
            if view.name == name:
                return view
        raise WebMLError(f"unknown site view {name!r}")

    def link(
        self,
        source,
        target,
        kind: LinkKind | str = LinkKind.NORMAL,
        params: list[tuple[str, str]] | None = None,
        label: str | None = None,
    ) -> Link:
        """Create a link between two elements (objects or ids)."""
        source_id = source if isinstance(source, str) else source.id
        target_id = target if isinstance(target, str) else target.id
        for element_id in (source_id, target_id):
            if not self.has_element(element_id):
                raise WebMLError(f"link endpoint {element_id!r} is not in the model")
        link = Link(
            id=self._new_id("link"),
            kind=kind if isinstance(kind, LinkKind) else LinkKind.parse(kind),
            source=source_id,
            target=target_id,
            parameters=[LinkParameter(o, i) for o, i in (params or [])],
            label=label,
        )
        self.links.append(link)
        self._links_by_source.setdefault(source_id, []).append(link)
        self._links_by_target.setdefault(target_id, []).append(link)
        return link

    def retarget_link(self, link: Link, new_target) -> Link:
        """Point an existing link at a different element (the §7 re-link
        gesture).  Mutating ``link.target`` directly would desynchronize
        the topology indexes; always go through this method."""
        target_id = new_target if isinstance(new_target, str) else new_target.id
        if not self.has_element(target_id):
            raise WebMLError(f"link target {target_id!r} is not in the model")
        self._links_by_target.get(link.target, []).remove(link)
        link.target = target_id
        self._links_by_target.setdefault(target_id, []).append(link)
        return link

    # -- topology queries ----------------------------------------------------------

    def links_from(self, element) -> list[Link]:
        element_id = element if isinstance(element, str) else element.id
        return list(self._links_by_source.get(element_id, []))

    def links_to(self, element) -> list[Link]:
        element_id = element if isinstance(element, str) else element.id
        return list(self._links_by_target.get(element_id, []))

    def page_of_unit(self, unit) -> Page:
        unit_id = unit if isinstance(unit, str) else unit.id
        try:
            return self.element(self._unit_page[unit_id])
        except KeyError:
            raise WebMLError(f"unit {unit_id!r} belongs to no page") from None

    def site_view_of_page(self, page) -> SiteView:
        page_id = page if isinstance(page, str) else page.id
        try:
            return self.element(self._page_site_view[page_id])
        except KeyError:
            raise WebMLError(f"page {page_id!r} belongs to no site view") from None

    def site_view_of_operation(self, operation) -> SiteView:
        operation_id = operation if isinstance(operation, str) else operation.id
        try:
            return self.element(self._operation_site_view[operation_id])
        except KeyError:
            raise WebMLError(
                f"operation {operation_id!r} belongs to no site view"
            ) from None

    def all_pages(self) -> list[Page]:
        pages: list[Page] = []
        for view in self.site_views:
            pages.extend(view.all_pages())
        return pages

    def all_units(self) -> list[ContentUnit]:
        units: list[ContentUnit] = []
        for page in self.all_pages():
            units.extend(page.units)
        return units

    def all_operations(self) -> list[OperationUnit]:
        operations: list[OperationUnit] = []
        for view in self.site_views:
            operations.extend(view.operations)
        return operations

    # -- statistics (the numbers §8 reports) ------------------------------------------

    def statistics(self) -> dict[str, int]:
        return {
            "site_views": len(self.site_views),
            "pages": len(self.all_pages()),
            "units": len(self.all_units()),
            "operations": len(self.all_operations()),
            "links": len(self.links),
        }

    def validate(self) -> None:
        from repro.webml.validation import validate_model

        validate_model(self)
