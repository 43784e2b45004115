"""The per-application observability root.

One :class:`Observability` object is owned by each
:class:`~repro.services.base.RuntimeContext` and shared by every tier
of that application: the front controller reads its switches to
decide which requests to trace (the sampling countdown itself lives on
the controller, inline on its hot path), the rdb tier and connection
pool publish metrics into its registry, and the cache levels / app
server register snapshot-time collectors on it.  The ``/_status``
endpoint is a rendering of this object's state.

Two switches plus a sampling knob, all safe to flip at runtime:

- ``tracing_enabled`` — whether the front controller may open traces
  at all (span creation everywhere below is driven by the presence of
  a trace, so one flag silences the whole tree);
- ``trace_every`` — the sampling rate: one request in every
  ``trace_every`` carries a full span tree *and* the request-latency
  histogram timestamps (default 32).  Counters are bumped for every
  request regardless — sampling only thins the work whose cost would
  otherwise dominate instrumentation: span construction and clock
  reads.  A client sending an ``X-Trace`` request header bypasses
  sampling for that request, so a trace is always one curl away.
  ``1`` traces everything (tests do this for determinism);
- ``enabled`` — whether instrumented tiers record metrics at all; the
  E16 benchmark measures instrumentation overhead by comparing runs
  with this on and off against the same build.
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry


class Observability:
    """Tracing switchboard plus the application's metrics registry."""

    #: default sampling rate: one request in this many is traced
    DEFAULT_TRACE_EVERY = 32

    def __init__(self, metrics: MetricsRegistry | None = None,
                 tracing_enabled: bool = True, enabled: bool = True,
                 trace_every: int | None = None):
        self.metrics = metrics or MetricsRegistry()
        self.tracing_enabled = tracing_enabled
        self.enabled = enabled
        self.trace_every = trace_every or self.DEFAULT_TRACE_EVERY

    def disable(self) -> None:
        """Turn every instrumented site into (near) no-ops."""
        self.enabled = False
        self.tracing_enabled = False

    def enable(self) -> None:
        self.enabled = True
        self.tracing_enabled = True
