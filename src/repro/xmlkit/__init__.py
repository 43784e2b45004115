"""Self-contained XML toolkit.

The paper stores unit/page descriptors as XML files and drives
presentation through XSLT rules over template skeletons.  This package
provides the minimal XML machinery both need, with no dependency on any
external XML library:

- :mod:`repro.xmlkit.node` — an element/text tree with navigation helpers,
- :mod:`repro.xmlkit.parser` — a strict recursive-descent XML parser,
- :mod:`repro.xmlkit.writer` — serialization (compact and pretty-printed),
- :mod:`repro.xmlkit.patterns` — the path/predicate matching used by the
  presentation rule engine to select the nodes a rule applies to.
"""

from repro.xmlkit.node import Element, Text, Node
from repro.xmlkit.parser import parse_xml
from repro.xmlkit.patterns import Pattern, compile_pattern
from repro.xmlkit.writer import (
    escape_attr,
    escape_text,
    open_tag,
    pretty_print,
    serialize,
)

__all__ = [
    "Node",
    "Element",
    "Text",
    "parse_xml",
    "serialize",
    "pretty_print",
    "open_tag",
    "escape_text",
    "escape_attr",
    "Pattern",
    "compile_pattern",
]
