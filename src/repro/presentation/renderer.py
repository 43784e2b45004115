"""The View wiring: templates + rules + tags, in both §5 modes.

- **compile-time mode**: every skeleton is transformed once at
  deployment; requests render pre-styled templates ("more efficient,
  because no template transformation is required at runtime");
- **runtime mode**: skeletons are transformed per request — "more
  expensive in terms of execution time ... but more flexible and may be
  very effective for multi-device applications", selecting the
  stylesheet from the request's User-Agent through the device registry.

A :class:`PresentationRenderer` instance is the ``view_renderer``
callable plugged into :class:`~repro.mvc.FrontController`.
"""

from __future__ import annotations

from repro.errors import PresentationError
from repro.presentation.devices import DeviceRegistry
from repro.presentation.jsp import PageTemplate, RenderContext
from repro.presentation.layouts import rule_for_category
from repro.presentation.xslt import Stylesheet, UnitRule
from repro.presentation.css import default_css


def default_stylesheet(site_name: str = "Site",
                       layout_categories: list[str] | None = None,
                       devices: list[str] | None = None) -> Stylesheet:
    """A complete stylesheet in the paper's structure: one page rule per
    layout category, one unit rule per unit kind, modularized CSS."""
    categories = layout_categories or ["one-column", "two-columns",
                                       "three-columns"]
    page_rules = [rule_for_category(c, site_name) for c in categories[:1]]
    unit_rules = [
        UnitRule(pattern="webml:dataUnit",
                 set_attrs={"show-title": "true"}, name="style-data"),
        UnitRule(pattern="webml:indexUnit",
                 set_attrs={"show-title": "true", "render-as": "table"},
                 name="style-index"),
        UnitRule(pattern="webml:multidataUnit",
                 set_attrs={"show-title": "true"}, name="style-multidata"),
        UnitRule(pattern="webml:multichoiceUnit",
                 set_attrs={"show-title": "true"}, name="style-multichoice"),
        UnitRule(pattern="webml:scrollerUnit",
                 set_attrs={"show-title": "true"}, name="style-scroller"),
        UnitRule(pattern="webml:entryUnit",
                 set_attrs={"show-title": "true"}, name="style-entry"),
        UnitRule(pattern="webml:hierarchicalUnit",
                 set_attrs={"show-title": "true"}, name="style-hierarchical"),
    ]
    return Stylesheet(
        name=f"{site_name}-style",
        page_rules=page_rules,
        unit_rules=unit_rules,
        css=default_css(),
        devices=devices or ["html"],
    )


class PresentationRenderer:
    """Renders page results through styled templates."""

    def __init__(
        self,
        skeletons: dict[str, str],
        stylesheet: Stylesheet | None = None,
        mode: str = "compile-time",
        device_registry: DeviceRegistry | None = None,
        fragment_cache=None,
    ):
        if mode not in ("compile-time", "runtime"):
            raise PresentationError(f"unknown presentation mode {mode!r}")
        if mode == "compile-time" and stylesheet is None:
            raise PresentationError("compile-time mode needs a stylesheet")
        if mode == "runtime" and device_registry is None and stylesheet is None:
            raise PresentationError(
                "runtime mode needs a stylesheet or a device registry"
            )
        self.mode = mode
        self.skeletons = dict(skeletons)
        self.stylesheet = stylesheet
        self.device_registry = device_registry
        self.fragment_cache = fragment_cache
        self.templates_compiled = 0
        self.runtime_transformations = 0
        self._compiled: dict[str, PageTemplate] = {}
        if mode == "compile-time":
            self._compile_all()

    def _compile_all(self) -> None:
        for page_id, skeleton in self.skeletons.items():
            styled = self.stylesheet.apply(skeleton)
            template = PageTemplate.from_xml(page_id, styled)
            # Flatten to the segment/slot program now, at deployment:
            # requests pay string joins, not tree walks.
            template.compile()
            self._compiled[page_id] = template
            self.templates_compiled += 1

    def template_for(self, page_id: str, user_agent: str = "") -> PageTemplate:
        if self.mode == "compile-time":
            template = self._compiled.get(page_id)
            if template is None:
                raise PresentationError(f"no template for page {page_id!r}")
            return template
        skeleton = self.skeletons.get(page_id)
        if skeleton is None:
            raise PresentationError(f"no skeleton for page {page_id!r}")
        stylesheet = self.stylesheet
        if self.device_registry is not None:
            stylesheet = self.device_registry.stylesheet_for(user_agent)
        self.runtime_transformations += 1
        return PageTemplate.from_xml(page_id, stylesheet.apply(skeleton))

    # -- the FrontController view-renderer contract -----------------------

    def __call__(self, page_result, request, controller) -> str:
        template = self.template_for(
            page_result.page_id,
            user_agent=request.user_agent if request else "",
        )
        context = RenderContext(
            page_result, controller, request, self.fragment_cache
        )
        return template.render(context)

    def stream_chunks(self, page_id: str, request, controller,
                      page_result_factory):
        """The streaming face of the view-renderer contract.

        Checks *eagerly* that the page has a template — compiled, or a
        skeleton to transform — so a missing page raises here, before
        any byte is promised to a client, and returns a chunk iterator
        whose join equals :meth:`__call__`'s output for the same page
        result.  Nothing else runs before the first ``next()``: the
        caller may be an event loop, and a runtime-mode transformation
        is a per-request stylesheet application.  ``page_result_factory``
        runs lazily at the first dynamic slot — the template's static
        prefix streams while the unit services have not yet been asked
        for anything.
        """
        user_agent = request.user_agent if request else ""

        def context_factory():
            return RenderContext(
                page_result_factory(), controller, request,
                self.fragment_cache,
            )

        if self.mode == "compile-time":
            template = self.template_for(page_id, user_agent)
            return template.render_chunks(context_factory)
        if page_id not in self.skeletons:
            raise PresentationError(f"no skeleton for page {page_id!r}")

        def transformed():
            template = self.template_for(page_id, user_agent)
            yield from template.render_chunks(context_factory)

        return transformed()
