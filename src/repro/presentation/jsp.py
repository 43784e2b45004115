"""The page template engine.

A :class:`PageTemplate` is a parsed template document — a skeleton or a
rule-styled template — whose ``webml:*`` custom tags are resolved
against the unit beans of a :class:`~repro.services.PageResult` at
render time.  Static markup is emitted verbatim, so everything the
presentation rules added survives untouched (§5's separation).

Rendering runs through a **compiled program**: at compile time the
template tree is flattened into alternating pre-serialized static HTML
segments and dynamic slots (one per custom tag, a built-in tag's
writer bound to it), so a request performs string joins instead of
cloning and re-serializing the whole tree.  What the bodies must be is
pinned by ``tools/page_digests.py`` and its committed golden digests.

Fragment caching (§6): when a custom tag carries ``fragment="cache"``
(set by a presentation rule or by hand) and the render context has a
fragment cache, the rendered HTML of that unit is cached and reused for
identical bean content — the ESI-style *template-level* cache whose
limits §6 analyses.  A fragment hit splices the cached HTML string
straight into the output; no XML parse or re-serialization happens on
the hit path.  Fragments are stored under the bean's dependency keys,
so operation writes invalidate exactly the dependent fragments.
"""

from __future__ import annotations

import hashlib
import json

from repro.descriptors import PageDescriptor
from repro.errors import TemplateRenderError
from repro.mvc.http import encode_query
from repro.obs import span
from repro.presentation.tags import MappingsMemo, bind_tag, renderer_for_tag
from repro.services.page_service import PageResult
from repro.xmlkit import (
    Element,
    Node,
    Text,
    escape_text,
    open_tag,
    parse_xml,
    serialize,
)


class RenderContext:
    """Everything a tag renderer may consult."""

    def __init__(
        self,
        page_result: PageResult,
        controller,
        request=None,
        fragment_cache=None,
    ):
        self.page_result = page_result
        self.controller = controller
        self.request = request
        self.fragment_cache = fragment_cache

    def navigation_from(self, unit_id: str):
        return [
            t for t in self.page_result.navigation
            if t.source_unit_id == unit_id
        ]

    def same_page_urls(self, name: str, values) -> list[str]:
        """The current page's URL with parameter ``name`` set to each of
        ``values`` (the scroller's block links): ``build_url`` of the
        request's parameters updated with ``{name: value}``, the other
        parameters encoded once."""
        path = self.controller.path_of_page(self.page_result.page_id)
        params = self.request.params if self.request is not None else {}
        names = list(params)
        # an update keeps an existing parameter's position
        at = names.index(name) if name in params else len(names)
        head = encode_query({key: params[key] for key in names[:at]})
        tail = encode_query({key: params[key] for key in names[at + 1:]})
        return [
            f"{path}?" + "&".join(filter(None, (
                head, encode_query({name: value}), tail)))
            for value in values
        ]


def _bean_digest(unit_id: str, bean, request=None) -> tuple:
    """Fragment identity: the unit and a digest of everything its tag
    reads — the bean content and, for the one tag whose links carry
    the request's own parameters (the scroller), that ``request``'s.

    The digest makes the cache correct by construction — but note
    (§6's point) the *bean* still had to be computed to produce it:
    fragment caching spares markup generation, not the queries.
    """
    payload = json.dumps(
        {
            "current": bean.current,
            "rows": bean.rows,
            "fields": bean.fields,
            "block": bean.block,
            "block_count": bean.block_count,
            "outputs": bean.outputs,
            "request": request.params if request is not None else None,
        },
        sort_keys=True,
        default=str,
    )
    return (unit_id, hashlib.sha1(payload.encode()).hexdigest())


class _UnitSlot:
    """One dynamic position of the compiled program: a custom tag whose
    HTML depends on the request's unit bean."""

    __slots__ = ("tag", "unit_id", "cache_enabled", "page_id", "bound")

    def __init__(self, tag: Element, page_id: str):
        self.tag = tag
        self.page_id = page_id
        self.unit_id = tag.get("unit")
        self.cache_enabled = tag.get("fragment") == "cache"
        if self.unit_id is None:
            raise TemplateRenderError(
                f"custom tag <{tag.tag}> lacks the unit attribute"
            )
        #: the built-in tag's writer, bound here, at compile; None for
        #: a plug-in tag, whose renderer is looked up per request
        self.bound = bind_tag(tag)

    def render(self, context: RenderContext) -> str:
        bean = context.page_result.beans.get(self.unit_id)
        if bean is None:
            raise TemplateRenderError(
                f"no unit bean computed for {self.unit_id!r} "
                f"(page {self.page_id!r})"
            )
        bound = self.bound
        # a plug-in can be unregistered between two requests: look it up now
        plugin = None if bound is not None else renderer_for_tag(self.tag.tag)
        rendered_fresh = False

        def markup() -> str:
            nonlocal rendered_fresh
            rendered_fresh = True
            if bound is not None:
                return bound.render(bean, context)
            return serialize(plugin.render(bean, self.tag, context))

        cache = context.fragment_cache if self.cache_enabled else None
        if cache is None:
            return markup()
        reads_request = bound is not None and bound.reads_request
        key = _bean_digest(self.unit_id, bean,
                           context.request if reads_request else None)
        with span("cache.fragment", tier="cache", level="fragment",
                  unit=self.unit_id) as probe:
            # Single-flight: concurrent misses render the fragment once;
            # a hit splices the cached string — no parse, no serialize.
            html = cache.get_or_render(key, markup,
                                       keys=bean.dependency_keys() or ())
            if probe is not None:
                probe.tags["hit"] = not rendered_fresh
        return html


class _MenuSlot:
    """The site-menu tag: dynamic against the controller's live path
    mapping (re-linking swaps the mapping dict, which drops the memo),
    constant otherwise — so its HTML is rendered once per mapping."""

    __slots__ = ("tag", "_memo")

    def __init__(self, tag: Element):
        self.tag = tag
        self._memo = MappingsMemo()

    def render(self, context: RenderContext) -> str:
        return self._memo.get(
            context.controller.mappings, None,
            lambda: serialize(_render_site_menu(self.tag, context)),
        )


def _render_site_menu(tag: Element, context: RenderContext) -> Element:
    """The landmark-page navigation menu (resolved against the
    controller's live path mapping, so re-linking never breaks it)."""
    menu = Element("ul", {"class": "site-menu"})
    current = tag.get("current")
    for item in tag.find_all("menuItem"):
        page_id = item.require_attr("page")
        entry = menu.add("li")
        attrs = {"href": context.controller.path_of_page(page_id)}
        if page_id == current:
            attrs["class"] = "current"
        entry.add("a", attrs, text=item.get("label", page_id))
    return menu


class PageTemplate:
    """A compiled page template, render-ready."""

    def __init__(self, page_id: str, document: Element):
        self.page_id = page_id
        self.document = document
        self._program: list | None = None

    @classmethod
    def from_xml(cls, page_id: str, xml: str) -> "PageTemplate":
        return cls(page_id, parse_xml(xml))

    def source(self) -> str:
        return serialize(self.document)

    # -- the compiled fast path ----------------------------------------------

    def render(self, context: RenderContext) -> str:
        """Produce the final HTML for one request: the join of
        :meth:`render_chunks` — one loop walks the program for the
        buffered and the streamed delivery alike."""
        return "".join(self.render_chunks(lambda: context))

    def render_chunks(self, context_factory):
        """Generate the page as ordered HTML chunks: the program's
        static segments interleaved with the dynamic slots' output.

        ``context_factory`` is called lazily, at the first dynamic
        slot — so every static segment *before* it (doctype, head,
        navigation shell) is yielded before the page's unit services
        run.  That prefix is what a streaming edge puts on the wire
        while the model tier computes; fragment-cache hits then splice
        mid-stream at string-copy cost.

        The page cache stores the joined stream under the same key as
        a buffered build — which, :meth:`render` being that join, is
        the same bytes by construction.
        """
        program = self._program
        if program is None:
            program = self.compile()
        context = None
        for part in program:
            if isinstance(part, str):
                yield part
            else:
                if context is None:
                    context = context_factory()
                yield part.render(context)

    def compile(self) -> list:
        """Flatten the template tree into the segment/slot program.

        Everything outside custom tags serializes once, here; per
        request only the slots run.  Compilation is idempotent and the
        program is memoized on the template.
        """
        parts: list = []
        static: list[str] = []

        def flush() -> None:
            if static:
                parts.append("".join(static))
                static.clear()

        def walk(node: Node) -> None:
            if isinstance(node, Text):
                static.append(escape_text(node.value))
                return
            assert isinstance(node, Element)
            if node.tag.startswith("webml:"):
                flush()
                if node.tag == "webml:siteMenu":
                    parts.append(_MenuSlot(node))
                else:
                    parts.append(_UnitSlot(node, self.page_id))
                return
            if not _contains_custom_tag(node):
                static.append(serialize(node))
                return
            static.append(open_tag(node))
            for child in node.children:
                walk(child)
            static.append(f"</{node.tag}>")

        walk(self.document)
        flush()
        self._program = parts
        return parts

    def slots(self) -> list:
        """The dynamic slots of the compiled program (introspection)."""
        program = self._program if self._program is not None else self.compile()
        return [part for part in program if not isinstance(part, str)]


def _contains_custom_tag(element: Element) -> bool:
    return any(e.tag.startswith("webml:") for e in element.iter())

