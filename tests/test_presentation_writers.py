"""Independent truth for the unit-tag writers.

The writers in :mod:`repro.presentation.tags` append escaped markup
instead of building a tree, so nothing but these properties says the
markup is well formed: over arbitrary bean content, the output of
every built-in tag parses, re-serializes to itself, carries every raw
value exactly once-escaped (read back through the parser it equals the
value that went in), and every ``href`` equals what
:func:`~repro.mvc.http.build_url` makes of the same path and
parameters.
"""

from hypothesis import given, settings, strategies as st

from repro.descriptors.page_descriptor import NavigationTarget
from repro.mvc import Controller, HttpRequest
from repro.mvc.controller import ActionMapping
from repro.mvc.http import build_url
from repro.presentation.jsp import PageTemplate, RenderContext
from repro.services import UnitBean
from repro.services.page_service import PageResult
from repro.xmlkit import Element, parse_xml, serialize

SPECIALS = "<>&\"' \n\té—日%/?=#+"
texts = st.text(
    alphabet=st.one_of(st.sampled_from(SPECIALS), st.characters(
        blacklist_categories=("Cs",))),
    max_size=10,
)
scalars = st.one_of(st.none(), st.just(""), texts, st.booleans(),
                    st.integers(-10**9, 10**9),
                    st.floats(allow_nan=False, allow_infinity=False))
#: what a unit bean may carry in an attribute: list values reach an
#: anchor as a multi-valued parameter
values = st.one_of(scalars, st.lists(st.one_of(texts, st.integers()),
                                     max_size=3))
KEYS = ["oid", "title", "a&b", 'q"uote', "<tag>", "é t", "x.y", "=", "_hidden"]
rows = st.dictionaries(st.sampled_from(KEYS), values, max_size=5)
hashable_rows = st.dictionaries(st.sampled_from(KEYS), scalars, max_size=5)

PAGE_PATH = "/sv/here"


@st.composite
def navigations(draw, max_targets=3):
    """Targets leaving unit ``u``, and a controller that serves them."""
    controller = Controller()
    controller.mappings[PAGE_PATH] = ActionMapping(
        path=PAGE_PATH, action_type="PageAction", site_view_id="sv",
        page_id="p",
    )
    targets = []
    for position in range(draw(st.integers(0, max_targets))):
        parameters = draw(st.lists(
            st.tuples(st.sampled_from(KEYS), texts), max_size=3))
        label = draw(st.one_of(st.none(), texts))
        if draw(st.booleans()):
            path = "/" + draw(texts)
            if path in controller.mappings:
                continue
            controller.mappings[path] = ActionMapping(
                path=path, action_type="PageAction", site_view_id="sv",
                page_id=f"page{position}",
            )
            targets.append(NavigationTarget(
                f"l{position}", "u", "page", f"unit{position}",
                target_page_id=f"page{position}", parameters=parameters,
                label=label,
            ))
        else:
            targets.append(NavigationTarget(
                f"l{position}", "u", "operation", f"op{position}",
                parameters=parameters, label=label,
            ))
    return controller, targets


def expected_href(controller, target, source: dict) -> str:
    """The reference: a dict of request parameters through build_url."""
    if target.target_kind == "operation":
        path = controller.operation_path(target.target_id)
        params = {f"{target.target_id}.{slot}": source.get(output)
                  for output, slot in target.parameters}
    else:
        path = controller.path_of_page(target.target_page_id)
        params = {name: source.get(output)
                  for output, name in target.parameters}
    return build_url(path, params)


def parameter_name(target, output: str, default: str) -> str:
    """The request parameter a form field submits ``output`` as."""
    for source, name in target.parameters:
        if source == output:
            default = (f"{target.target_id}.{name}"
                       if target.target_kind == "operation" else name)
    return default


def render_unit(tag_name: str, bean: UnitBean, navigation, tag_attrs=None,
                request=None) -> Element:
    """Render one tag, check the round trip, return the parsed box."""
    controller, targets = navigation
    document = Element("html")
    document.add(tag_name, {"unit": "u", **(tag_attrs or {})})
    result = PageResult("p", "P", navigation=list(targets))
    result.beans["u"] = bean
    html = PageTemplate("p", document).render(
        RenderContext(result, controller, request))
    assert html.startswith("<html>") and html.endswith("</html>")
    inner = html[len("<html>"):-len("</html>")]
    box = parse_xml(inner)
    assert serialize(box) == inner
    assert box.tag == "div" and box.get("id") == bean.unit_id
    return box


def visible(row: dict) -> list:
    return [(k, v) for k, v in row.items() if not k.startswith("_")]


def row_label(row: dict) -> str:
    return " — ".join(
        str(v) for k, v in visible(row) if k != "oid" and v is not None
    ) or f"#{row.get('oid')}"


def row_line(row: dict) -> str:
    return " — ".join(str(v) for k, v in visible(row) if k != "oid")


def shown(value) -> str:
    return "" if value is None else str(value)


@given(kind=texts, unit_name=st.one_of(st.none(), texts), css=texts,
       show_title=st.booleans(), navigation=navigations())
def test_box_carries_kind_class_and_title(kind, unit_name, css, show_title,
                                          navigation):
    bean = UnitBean("u", unit_name, kind)
    attrs = {"class": css, "show-title": "true" if show_title else "false"}
    box = render_unit("webml:dataUnit", bean, navigation, attrs)
    assert box.get("class") == f"unit unit-{kind}" + (f" {css}" if css else "")
    first = box.element_children()[0]
    if show_title:
        assert first.tag == "h3" and first.get("class") == "unit-title"
        assert first.text() == (unit_name or "")
        first = box.element_children()[1]
    assert first.get("class") == "empty" and first.text() == "No content"


@given(current=rows, navigation=navigations())
def test_data_unit(current, navigation):
    controller, targets = navigation
    box = render_unit("webml:dataUnit", UnitBean("u", "U", "data",
                                                 current=current), navigation)
    listing = box.find("dl")
    assert listing.get("class") == "data-attributes"
    assert [e.text() for e in listing.find_all("dt")] == \
        [k for k, _v in visible(current)]
    assert [e.text() for e in listing.find_all("dd")] == \
        [shown(v) for _k, v in visible(current)]
    links = box.find("p")
    if not targets:
        assert links is None
        return
    assert links.get("class") == "unit-links"
    anchors = links.find_all("a")
    assert [a.get("href") for a in anchors] == \
        [expected_href(controller, t, current) for t in targets]
    assert [a.text() for a in anchors] == [t.label or "open" for t in targets]


@given(bean_rows=st.lists(rows, max_size=4), as_list=st.booleans(),
       navigation=navigations())
def test_index_unit(bean_rows, as_list, navigation):
    controller, targets = navigation
    box = render_unit(
        "webml:indexUnit", UnitBean("u", "U", "index", rows=bean_rows),
        navigation, {"render-as": "list" if as_list else "table"},
    )
    if not bean_rows:
        assert box.find("p").text() == "No content"
        return
    if as_list:
        cells = box.find("ul").find_all("li")
    else:
        cells = [line.find("td") for line in box.find("table").find_all("tr")]
    assert box.element_children()[0].get("class") == "index-rows"
    assert len(cells) == len(bean_rows)
    for cell, row in zip(cells, bean_rows):
        assert cell.text().startswith(row_label(row))
        anchors = cell.find_all("a")
        assert [a.get("href") for a in anchors] == \
            [expected_href(controller, t, row) for t in targets]
        assert [a.text() for a in anchors] == \
            [row_label(row)] * bool(targets) \
            + [t.label or "more" for t in targets[1:]]
        assert [a.get("class") for a in anchors] == \
            [None] * bool(targets) + ["extra-link"] * len(targets[1:])


@given(bean_rows=st.lists(rows, max_size=4), navigation=navigations())
def test_multidata_unit(bean_rows, navigation):
    box = render_unit("webml:multidataUnit",
                      UnitBean("u", "U", "multidata", rows=bean_rows),
                      navigation)
    if not bean_rows:
        assert box.find("p").text() == "No content"
        return
    header, *lines = box.find("table").find_all("tr")
    assert [e.text() for e in header.find_all("th")] == \
        [k for k, _v in visible(bean_rows[0])]
    assert len(lines) == len(bean_rows)
    for line, row in zip(lines, bean_rows):
        assert [e.text() for e in line.find_all("td")] == \
            [shown(v) for _k, v in visible(row)]


@given(bean_rows=st.lists(hashable_rows, max_size=4), data=st.data(),
       navigation=navigations(max_targets=2))
def test_multichoice_unit(bean_rows, data, navigation):
    controller, targets = navigation
    oids = [row.get("oid") for row in bean_rows]
    chosen = data.draw(st.one_of(st.none(), st.lists(
        st.sampled_from(oids)) if oids else st.just([])))
    box = render_unit("webml:multichoiceUnit", UnitBean(
        "u", "U", "multichoice", rows=bean_rows, outputs={"oids": chosen},
    ), navigation)
    form = box.find("form")
    name = "u.oids"
    if targets:
        assert form.get("action") == \
            expected_href(controller, targets[0], {})
        name = parameter_name(targets[0], "oids", name)
    else:
        assert form.get("action") is None
    labels = form.find_all("label")
    assert len(labels) == len(bean_rows)
    for label, row in zip(labels, bean_rows):
        box_input = label.find("input")
        assert box_input.get("name") == name
        assert box_input.get("value") == str(row.get("oid"))
        assert (box_input.get("checked") == "checked") == \
            (row.get("oid") in (chosen or []))
        assert label.text() == row_line(row)
    assert form.find("button").text() == "Choose"


@given(bean_rows=st.lists(rows, max_size=3),
       block=st.one_of(st.none(), st.integers(1, 9)),
       block_count=st.one_of(st.none(), st.integers(0, 9)),
       params=st.dictionaries(texts, st.one_of(texts, st.lists(texts)),
                              max_size=3),
       navigation=navigations(max_targets=1))
def test_scroller_unit(bean_rows, block, block_count, params, navigation):
    box = render_unit(
        "webml:scrollerUnit",
        UnitBean("u", "U", "scroller", rows=bean_rows, block=block,
                 block_count=block_count),
        navigation, request=HttpRequest(PAGE_PATH, params=dict(params)),
    )
    assert [e.text() for e in box.find("ul").find_all("li")] == \
        [row_line(row) for row in bean_rows]
    nav = box.find("p")
    if not block_count or block_count < 2:
        assert nav is None
        return
    current = block or 1
    blocks = [1, max(1, current - 1), min(block_count, current + 1),
              block_count]
    anchors = nav.find_all("a")
    assert [a.get("href") for a in anchors] == [
        build_url(PAGE_PATH, {**params, "u.block": str(b)}) for b in blocks
    ]
    assert [a.text() for a in anchors] == ["first", "prev", "next", "last"]
    assert nav.find("span").text() == f"block {current}/{block_count}"


field_specs = st.fixed_dictionaries(
    {"name": st.sampled_from(KEYS)},
    optional={"label": st.one_of(st.none(), texts),
              "type": st.sampled_from(["text", "password", "textarea",
                                       'od"d']),
              "value": scalars},
)


@given(fields=st.lists(field_specs, max_size=4),
       navigation=navigations(max_targets=2))
def test_entry_unit(fields, navigation):
    controller, targets = navigation
    box = render_unit("webml:entryUnit",
                      UnitBean("u", "U", "entry", fields=fields), navigation)
    form = box.find("form")
    if targets:
        assert form.get("action") == \
            expected_href(controller, targets[0], {})
    else:
        assert form.get("action") is None
    paragraphs = form.find_all("p")
    assert len(paragraphs) == len(fields)
    for paragraph, spec in zip(paragraphs, fields):
        name = spec["name"]
        param = parameter_name(targets[0], name, name) if targets else name
        value = str(spec.get("value") or "")
        assert paragraph.find("label").text() == (spec.get("label") or name)
        if spec.get("type") == "textarea":
            control = paragraph.find("textarea")
            assert control.text() == value
        else:
            control = paragraph.find("input")
            assert control.get("type") == spec.get("type", "text")
            assert control.get("value") == value
        assert control.get("name") == param
    assert form.find("button").text() == "Submit"


trees = st.recursive(
    rows,
    lambda nested: st.builds(
        lambda row, children: {**row, "_children": children},
        rows, st.one_of(st.none(), st.lists(nested, max_size=3)),
    ),
    max_leaves=8,
)


@given(bean_rows=st.lists(trees, max_size=3),
       navigation=navigations(max_targets=2))
def test_hierarchical_unit(bean_rows, navigation):
    controller, targets = navigation
    box = render_unit("webml:hierarchicalUnit",
                      UnitBean("u", "U", "hierarchical", rows=bean_rows),
                      navigation)
    if not bean_rows:
        assert box.find("p").text() == "No content"
        return

    def check_level(holder: Element, level_rows: list, depth: int) -> None:
        assert holder.get("class") == f"hierarchy-level level-{depth}"
        items = holder.find_all("li")
        assert len(items) == len(level_rows)
        for item, row in zip(items, level_rows):
            children = row.get("_children")
            head = item.element_children()[0]
            if children is None and targets:
                assert head.tag == "a"
                assert head.get("href") == \
                    expected_href(controller, targets[0], row)
            else:
                assert head.tag == "span"
                assert head.get("class") == "hierarchy-node"
            assert head.text() == row_label(row)
            if children:
                check_level(item.find("ul"), children, depth + 1)
            else:
                assert item.find("ul") is None

    check_level(box.find("ul"), bean_rows, 0)


@settings(max_examples=25)
@given(navigation=navigations(max_targets=2), first=rows, second=rows)
def test_anchor_memo_follows_the_navigation_it_is_given(navigation, first,
                                                        second):
    """One compiled slot, two page results with different links: the
    per-mappings memo is keyed by the targets, not assumed from the
    first request."""
    controller, targets = navigation
    document = Element("html")
    document.add("webml:dataUnit", {"unit": "u"})
    template = PageTemplate("p", document)
    for navigation_list, current in ((targets, first), (targets[:1], second),
                                     (targets, second)):
        result = PageResult("p", "P", navigation=list(navigation_list))
        result.beans["u"] = UnitBean("u", "U", "data", current=current)
        html = template.render(RenderContext(result, controller))
        box = parse_xml(html).find("div")
        links = box.find("p")
        hrefs = [a.get("href") for a in links.find_all("a")] if links else []
        assert hrefs == [expected_href(controller, t, current)
                         for t in navigation_list]
