"""Unit, page and operation descriptors.

The paper's answer to service proliferation (§4, Figure 5): "for each
type of unit, a single generic service is designed ... the unit-specific
information can be stored in a descriptor file, for instance written in
XML, used at runtime to instantiate the generic service into a concrete,
unit-specific service."

- :mod:`repro.descriptors.unit_descriptor` — per-unit descriptors: the
  SQL query, its input parameters, the bean properties, and the cache
  dependency set; supports the §6 *optimized-query override*,
- :mod:`repro.descriptors.page_descriptor` — per-page descriptors: unit
  list, parameter topology, computation order, navigation targets,
- :mod:`repro.descriptors.operation_descriptor` — per-operation
  descriptors: DML statements and OK/KO targets,
- :mod:`repro.descriptors.registry` — the deployed descriptor store with
  hot redeploy ("deploying the optimized version without interrupting
  the service", §8).
"""

from repro.descriptors.operation_descriptor import (
    OperationDescriptor,
    OutcomeTarget,
    StatementSpec,
)
from repro.descriptors.page_descriptor import (
    NavigationTarget,
    PageDescriptor,
    SlotBinding,
)
from repro.descriptors.registry import DescriptorRegistry
from repro.descriptors.unit_descriptor import (
    BeanProperty,
    IndexUse,
    InputParameter,
    LevelQuery,
    UnitDescriptor,
)

__all__ = [
    "UnitDescriptor",
    "InputParameter",
    "BeanProperty",
    "LevelQuery",
    "IndexUse",
    "PageDescriptor",
    "SlotBinding",
    "NavigationTarget",
    "OperationDescriptor",
    "OutcomeTarget",
    "StatementSpec",
    "DescriptorRegistry",
]
