"""Presentation management (paper §5, Figure 7).

The pipeline: the generator emits *template skeletons* (minimal layout
grid + custom tags); XSLT-style *page rules* and *unit rules* transform
skeletons into final page templates — at compile time (fast) or at
request time (flexible, enables per-device adaptation); the template
engine renders templates against unit beans through the *custom tag
library*; graphic properties live in modularized *CSS*.

- :mod:`repro.presentation.tags` — the webml custom tag writers,
- :mod:`repro.presentation.jsp` — the page template engine,
- :mod:`repro.presentation.xslt` — page/unit presentation rules,
- :mod:`repro.presentation.css` — per-unit-kind CSS modularization,
- :mod:`repro.presentation.layouts` — page layout categories,
- :mod:`repro.presentation.devices` — device profiles and user-agent
  driven stylesheet selection,
- :mod:`repro.presentation.renderer` — the View wiring (compile-time and
  runtime modes) plugged into the front controller.
"""

from repro.presentation.css import CssStylesheet, default_css
from repro.presentation.devices import DeviceProfile, DeviceRegistry
from repro.presentation.jsp import PageTemplate, RenderContext
from repro.presentation.renderer import PresentationRenderer
from repro.presentation.xslt import PageRule, Stylesheet, UnitRule

__all__ = [
    "PageTemplate",
    "RenderContext",
    "Stylesheet",
    "PageRule",
    "UnitRule",
    "CssStylesheet",
    "default_css",
    "DeviceProfile",
    "DeviceRegistry",
    "PresentationRenderer",
]
