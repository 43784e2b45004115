"""CSS modularization (§5).

"A good practice in the definition of Cascading Style Sheets for WebML
applications is to leverage the conceptual model to modularise the CSS
rules.  A set of rules can be designed for each WebML unit, by
identifying the different graphic elements needed to present a certain
kind of unit."

A :class:`CssStylesheet` is built from per-unit-kind modules plus page
chrome; it renders to a single text the stylesheet attaches to the
template head.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: the graphic elements each unit kind exposes (class selectors the tag
#: renderers emit) — the paper's "labels of various kinds, cell
#: backgrounds, and so on".
UNIT_CSS_ELEMENTS: dict[str, list[str]] = {
    "data": [".unit-data", ".unit-data .unit-title", ".data-attributes dt",
             ".data-attributes dd", ".unit-data .unit-links a"],
    "index": [".unit-index", ".unit-index .unit-title", ".index-rows",
              ".index-row", ".index-row a"],
    "multidata": [".unit-multidata", ".multidata-rows th", ".multidata-rows td"],
    "multichoice": [".unit-multichoice", ".choice-row", ".multichoice-form button"],
    "scroller": [".unit-scroller", ".scroller-rows li", ".scroller-nav a",
                 ".scroll-pos"],
    "entry": [".unit-entry", ".entry-field label", ".entry-field input",
              ".entry-form button"],
    "hierarchical": [".unit-hierarchical", ".hierarchy-level",
                     ".hierarchy-node", ".hierarchy-level a"],
}


@dataclass
class CssStylesheet:
    """An ordered mapping of selectors to property dictionaries."""

    name: str = "stylesheet"
    rules: dict[str, dict[str, str]] = field(default_factory=dict)

    def set(self, selector: str, **properties: str) -> "CssStylesheet":
        bucket = self.rules.setdefault(selector, {})
        for prop_name, value in properties.items():
            bucket[prop_name.replace("_", "-")] = value
        return self

    def merge(self, other: "CssStylesheet") -> "CssStylesheet":
        for selector, properties in other.rules.items():
            self.rules.setdefault(selector, {}).update(properties)
        return self

    def render(self) -> str:
        blocks = []
        for selector, properties in self.rules.items():
            if not properties:
                continue
            body = " ".join(f"{k}: {v};" for k, v in properties.items())
            blocks.append(f"{selector} {{ {body} }}")
        return "\n".join(blocks)


def unit_module(kind: str, palette: dict[str, str]) -> CssStylesheet:
    """The per-unit-kind CSS module: one rule per graphic element."""
    sheet = CssStylesheet(name=f"css-{kind}")
    accent = palette.get("accent", "#336699")
    text = palette.get("text", "#222222")
    background = palette.get("background", "#ffffff")
    for selector in UNIT_CSS_ELEMENTS.get(kind, []):
        if selector.endswith("a"):
            sheet.set(selector, color=accent, text_decoration="none")
        elif "title" in selector:
            sheet.set(selector, color=accent, font_weight="bold")
        elif selector.endswith(("th",)):
            sheet.set(selector, background=accent, color=background)
        else:
            sheet.set(selector, color=text)
    return sheet


def page_chrome(palette: dict[str, str]) -> CssStylesheet:
    sheet = CssStylesheet(name="css-page")
    sheet.set("body", font_family=palette.get("font", "Verdana, sans-serif"),
              background=palette.get("background", "#ffffff"),
              color=palette.get("text", "#222222"))
    sheet.set(".page-grid", width="100%", border_collapse="collapse")
    sheet.set(".unit-cell", vertical_align="top", padding="8px")
    sheet.set(".site-banner", background=palette.get("accent", "#336699"),
              color=palette.get("background", "#ffffff"), padding="10px")
    sheet.set(".site-footer", font_size="80%", color="#666666")
    sheet.set(".site-menu", list_style="none", padding="0", margin="0")
    sheet.set(".site-menu li", display="inline", margin_right="12px")
    sheet.set(".site-menu a", color=palette.get("accent", "#336699"),
              text_decoration="none", font_weight="bold")
    sheet.set(".site-menu a.current", text_decoration="underline")
    return sheet


def default_css(palette: dict[str, str] | None = None,
                kinds: list[str] | None = None) -> str:
    """Assemble the full modularized stylesheet text."""
    palette = palette or {}
    sheet = page_chrome(palette)
    for kind in kinds or sorted(UNIT_CSS_ELEMENTS):
        sheet.merge(unit_module(kind, palette))
    return sheet.render()
