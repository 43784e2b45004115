"""The WebML custom tag library.

§3: "In the View, content units map to custom tags transforming the
content stored in the unit beans into HTML."  Each built-in tag is a
*writer*: it appends the unit's already-escaped markup to a list, one
escape call per dynamic value — no node tree is built per request.
Presentation rules (§5) influence the output only through attributes
they set on the custom tag — ``render-as``, ``show-title``, ``class`` —
which :class:`BoundTag` reads once, when the template is compiled;
what depends on the controller's live path mapping (anchor paths, form
actions, quoted parameter names) is bound once per mappings object.

The ``render(bean, tag, context) -> Element`` contract remains what
§7's plug-in units implement (:func:`renderer_for_tag`); the writers
must produce exactly what serializing such a tree would.
"""

from __future__ import annotations

from urllib.parse import quote

from repro.errors import TemplateRenderError
from repro.mvc.http import build_url
from repro.services.beans import UnitBean
from repro.xmlkit import escape_attr, escape_text

_EMPTY = '<p class="empty">No content</p>'


class MappingsMemo:
    """One value per ``controller.mappings`` object (and ``key``).

    Re-linking swaps the mapping dict, which drops the memo.  The dict
    itself is held and compared with ``is``: holding it is what keeps a
    later dict from being allocated at its address and mistaken for it.
    """

    __slots__ = ("_held",)

    def __init__(self) -> None:
        self._held: tuple | None = None

    def get(self, mappings: dict, key, build):
        held = self._held
        if held is None or held[0] is not mappings or held[1] != key:
            held = self._held = (mappings, key, build())
        return held[2]


class _Anchor:
    """One navigation target resolved against the controller: per row
    an href costs one ``quote`` per parameter."""

    __slots__ = ("url_path", "path", "names", "params", "label")

    def __init__(self, controller, target):
        if target.target_kind == "operation":
            self.url_path = controller.operation_path(target.target_id)
            names = [(output, f"{target.target_id}.{slot}")
                     for output, slot in target.parameters]
        else:
            self.url_path = controller.path_of_page(
                target.target_page_id or target.target_id
            )
            names = target.parameters
        #: the path as an attribute value (form actions, href prefix)
        self.path = escape_attr(self.url_path)
        #: source output → request parameter it travels as
        self.names = {output: name for output, name in names}
        # one pair per parameter *name*: the last output bound to a
        # name supplies its value, as in a dict keyed by name
        self.params = [
            (output, name, f"{quote(name, '')}=")
            for name, output in {n: o for o, n in names}.items()
        ]
        self.label = escape_text(target.label) if target.label else None

    def href(self, values: dict) -> str:
        """``escape_attr(build_url(path, params))`` for ``values``."""
        query = ""
        for output, _name, prefix in self.params:
            value = values.get(output)
            if value is None:
                continue
            kind = type(value)
            if kind is int:
                text = str(value)
            elif kind is str:
                text = quote(value, "")
            else:  # lists expand doseq, floats, dates …: the reference
                return escape_attr(build_url(self.url_path, {
                    name: values.get(output)
                    for output, name, _prefix in self.params
                }))
            query += f"{'&amp;' if query else '?'}{prefix}{text}"
        return self.path + query


class BoundTag:
    """A built-in tag at one template position: its writer, and what
    its attributes say, resolved when the template is compiled."""

    __slots__ = ("write", "reads_request", "css_class", "show_title",
                 "as_list", "_anchors")

    def __init__(self, write, tag):
        self.write = write
        #: the scroller's links carry the request's own parameters, so
        #: its markup is a function of the request as well as the bean
        self.reads_request = write is write_scroller
        extra = tag.get("class")
        self.css_class = f" {escape_attr(extra)}" if extra else ""
        self.show_title = tag.get("show-title") == "true"
        self.as_list = tag.get("render-as") == "list"
        self._anchors = MappingsMemo()

    def anchors(self, context, bean: UnitBean) -> list[_Anchor]:
        """The unit's outgoing links, bound once per mappings object."""
        targets = context.navigation_from(bean.unit_id)
        controller = context.controller
        return self._anchors.get(
            controller.mappings, targets,
            lambda: [_Anchor(controller, target) for target in targets],
        )

    def form_target(self, context, bean: UnitBean) -> tuple[str, dict]:
        """The ``action`` attribute and the output → parameter names of
        the unit's first outgoing link (a form submits to it)."""
        anchors = self.anchors(context, bean)
        if not anchors:
            return "", {}
        return f' action="{anchors[0].path}"', anchors[0].names

    def render(self, bean: UnitBean, context) -> str:
        """The unit's HTML: the common box around the writer's output."""
        out = [f'<div class="unit unit-{escape_attr(bean.kind)}'
               f'{self.css_class}" id="{escape_attr(bean.unit_id)}">']
        if self.show_title:
            out.append(_element("h3", ' class="unit-title"',
                                escape_text(bean.name or "")))
        self.write(out, bean, self, context)
        out.append("</div>")
        return "".join(out)


def _element(tag: str, attrs: str, inner: str) -> str:
    """``inner`` (already escaped) wrapped in ``tag``; empty content
    self-closes, as the serializer writes a childless element."""
    return f"<{tag}{attrs}>{inner}</{tag}>" if inner else f"<{tag}{attrs}/>"


def _fields(row: dict) -> list[tuple[str, object]]:
    return [(k, v) for k, v in row.items() if not k.startswith("_")]


def _cell(value) -> str:
    return "" if value is None else escape_text(str(value))


def _row_label(row: dict) -> str:
    """What an index or hierarchy row shows: its non-null attributes."""
    return escape_text(" — ".join(
        str(v) for k, v in row.items()
        if v is not None and k != "oid" and not k.startswith("_")
    ) or f"#{row.get('oid')}")


def _row_line(row: dict) -> str:
    """What a choice or scroller row shows: every attribute."""
    return escape_text(" — ".join(
        str(v) for k, v in row.items()
        if k != "oid" and not k.startswith("_")
    ))


def write_data(out: list, bean: UnitBean, bound: BoundTag, context) -> None:
    """Attribute/value rendition of a single object."""
    if bean.current is None:
        out.append(_EMPTY)
        return
    out.append(_element("dl", ' class="data-attributes"', "".join(
        _element("dt", "", escape_text(str(name)))
        + _element("dd", "", _cell(value))
        for name, value in _fields(bean.current)
    )))
    anchors = bound.anchors(context, bean)
    if anchors:
        out.append('<p class="unit-links">')
        for anchor in anchors:
            out.append(f'<a href="{anchor.href(bean.current)}">'
                       f'{anchor.label or "open"}</a>')
        out.append("</p>")


def write_index(out: list, bean: UnitBean, bound: BoundTag, context) -> None:
    """List rendition with one anchor per row (the defining behaviour of
    the index unit: 'the user picks one')."""
    if not bean.rows:
        out.append(_EMPTY)
        return
    anchors = bound.anchors(context, bean)
    if bound.as_list:
        holder, row_open, row_close = "ul", '<li class="index-row">', "</li>"
    else:
        holder = "table"
        row_open, row_close = '<tr class="index-row"><td>', "</td></tr>"
    out.append(f'<{holder} class="index-rows">')
    for row in bean.rows:
        out.append(row_open)
        label = _row_label(row)
        if anchors:
            out.append(f'<a href="{anchors[0].href(row)}">{label}</a>')
            for extra in anchors[1:]:
                out.append(f'<a href="{extra.href(row)}" class="extra-link">'
                           f'{extra.label or "more"}</a>')
        else:
            out.append(label)
        out.append(row_close)
    out.append(f"</{holder}>")


def write_multidata(out: list, bean: UnitBean, bound: BoundTag,
                    context) -> None:
    """Tabular rendition of every attribute of every object."""
    if not bean.rows:
        out.append(_EMPTY)
        return
    out.append('<table class="multidata-rows">')
    out.append(_element("tr", "", "".join(
        _element("th", "", escape_text(str(name)))
        for name, _value in _fields(bean.rows[0])
    )))
    for row in bean.rows:
        out.append(_element("tr", "", "".join(
            _element("td", "", _cell(value)) for _name, value in _fields(row)
        )))
    out.append("</table>")


def write_multichoice(out: list, bean: UnitBean, bound: BoundTag,
                      context) -> None:
    """Checkbox form; submits the chosen oids to the first target."""
    action, names = bound.form_target(context, bean)
    # checkboxes submit straight into the target's slot
    name = escape_attr(names.get("oids", f"{bean.unit_id}.oids"))
    out.append(f'<form method="get" class="multichoice-form"{action}>')
    chosen = set(bean.outputs.get("oids") or [])
    for row in bean.rows:
        oid = row.get("oid")
        checked = ' checked="checked"' if oid in chosen else ""
        out.append(f'<label class="choice-row"><input type="checkbox" '
                   f'name="{name}" value="{escape_attr(str(oid))}"{checked}/>'
                   f'{_row_line(row)}</label>')
    out.append('<button type="submit">Choose</button></form>')


def write_scroller(out: list, bean: UnitBean, bound: BoundTag,
                   context) -> None:
    """Row block plus first/previous/next/last block navigation."""
    out.append(_element("ul", ' class="scroller-rows"', "".join(
        _element("li", "", _row_line(row)) for row in bean.rows
    )))
    if bean.block_count and bean.block_count > 1:
        current = bean.block or 1
        out.append('<p class="scroller-nav">')
        hrefs = context.same_page_urls(f"{bean.unit_id}.block", (
            "1", str(max(1, current - 1)),
            str(min(bean.block_count, current + 1)), str(bean.block_count),
        ))
        for label, href in zip(("first", "prev", "next", "last"), hrefs):
            out.append(f'<a href="{escape_attr(href)}" '
                       f'class="scroll-{label}">{label}</a>')
        out.append(f'<span class="scroll-pos">block {current}/'
                   f'{bean.block_count}</span></p>')


def write_entry(out: list, bean: UnitBean, bound: BoundTag, context) -> None:
    """Form rendition; the action comes from the unit's outgoing link."""
    action, names = bound.form_target(context, bean)
    out.append(f'<form method="get" class="entry-form"{action}>')
    for spec in bean.fields:
        name = spec["name"]
        param = escape_attr(names.get(name, name))
        value = str(spec.get("value") or "")
        out.append('<p class="entry-field">')
        out.append(_element("label", "",
                            escape_text(spec.get("label") or name)))
        if spec.get("type") == "textarea":
            out.append(_element("textarea", f' name="{param}"',
                                escape_text(value)))
        else:
            out.append(f'<input type="{escape_attr(spec.get("type", "text"))}"'
                       f' name="{param}" value="{escape_attr(value)}"/>')
        out.append("</p>")
    out.append('<button type="submit">Submit</button></form>')


def write_hierarchical(out: list, bean: UnitBean, bound: BoundTag,
                       context) -> None:
    """Nested list rendition of Figure 1's hierarchical index."""
    if not bean.rows:
        out.append(_EMPTY)
        return
    anchors = bound.anchors(context, bean)
    leaf = anchors[0] if anchors else None

    def level(rows: list[dict], depth: int) -> None:
        out.append(f'<ul class="hierarchy-level level-{depth}">')
        for row in rows:
            children = row.get("_children")
            if children is None and leaf is not None:
                # leaf rows carry the unit's outgoing anchor
                out.append(f'<li><a href="{leaf.href(row)}">'
                           f'{_row_label(row)}</a>')
            else:
                out.append(f'<li><span class="hierarchy-node">'
                           f'{_row_label(row)}</span>')
            if children:
                level(children, depth + 1)
            out.append("</li>")
        out.append("</ul>")

    level(bean.rows, 0)


#: tag name → writer (what the template compiler binds a slot to)
TAG_WRITERS = {
    "webml:dataUnit": write_data,
    "webml:indexUnit": write_index,
    "webml:multidataUnit": write_multidata,
    "webml:multichoiceUnit": write_multichoice,
    "webml:scrollerUnit": write_scroller,
    "webml:entryUnit": write_entry,
    "webml:hierarchicalUnit": write_hierarchical,
}


def bind_tag(tag) -> BoundTag | None:
    """The bound writer of a built-in tag; ``None`` for any other tag,
    which :func:`renderer_for_tag` resolves per request (plug-ins can
    be unregistered, so they are not bound)."""
    write = TAG_WRITERS.get(tag.tag)
    return BoundTag(write, tag) if write is not None else None


def renderer_for_tag(tag_name: str):
    """The registered plug-in renderer for ``tag_name`` (§7)."""
    from repro.services.plugins import plugin_registry

    for kind in plugin_registry.kinds():
        plugin = plugin_registry.get(kind)
        if plugin.tag_name == tag_name and plugin.renderer is not None:
            return plugin.renderer
    raise TemplateRenderError(f"no renderer for custom tag <{tag_name}>")
