"""Small shared utilities: naming, ordering, clocks, concurrency."""

from repro.util.concurrency import AtomicCounters, ReadWriteLock, shut_socket
from repro.util.identifiers import (
    camel_to_snake,
    make_identifier,
    snake_to_camel,
    unique_name,
)
from repro.util.ordered import CycleError, stable_topological_sort
from repro.util.timing import SystemClock, VirtualClock

__all__ = [
    "camel_to_snake",
    "snake_to_camel",
    "make_identifier",
    "unique_name",
    "stable_topological_sort",
    "CycleError",
    "VirtualClock",
    "SystemClock",
    "ReadWriteLock",
    "AtomicCounters",
    "shut_socket",
]
