"""The application-server tier (paper §4, Figure 6).

"A better software organization is obtained by splitting the business
logic into the servlet engine and an application server ... the business
components are implemented as Enterprise JavaBeans (EJB) ... and can be
accessed by Web applications and other enterprise applications."

- :mod:`repro.appserver.container` — the EJB-like component container:
  per-component instance pools that grow under load and passivate when
  idle, shared by Web and non-Web clients;
- :mod:`repro.appserver.servlet_tier` — the baseline §4 argues against:
  statically cloned servlet containers whose service instances stay
  resident regardless of traffic;
- :mod:`repro.appserver.threaded` — the thread-per-connection socket
  front: each keep-alive connection holds one of N worker slots and
  runs its requests through the full (thread-safe) request path, on
  the shared :mod:`repro.httpcore` protocol machine;
- :mod:`repro.appserver.async_edge` — the event-loop edge: one thread
  owns every keep-alive connection, page-cache hits are served inline
  on the loop, computation runs on a bounded worker pool, cache-miss
  pages stream chunked while their unit services compute;
- :mod:`repro.appserver.fleet` — the process-per-core front end: a
  supervisor runs the write primary and spawns worker subprocesses
  (:mod:`repro.appserver.fleet_worker`) that each serve reads from
  their own WAL-shipped replica, with read-your-writes via LSN wait
  tokens.
"""

from repro.appserver.async_edge import AsyncAppServer
from repro.appserver.container import ComponentContainer, ComponentDescriptor
from repro.appserver.fleet import (
    LSN_HEADER,
    MIN_LSN_HEADER,
    FleetClient,
    FleetSupervisor,
    PrimaryLsnStamp,
    ReplicaGate,
)
from repro.appserver.integration import deploy_business_tier
from repro.appserver.servlet_tier import ServletTierDeployment
from repro.appserver.threaded import ThreadedAppServer

__all__ = [
    "AsyncAppServer",
    "ComponentContainer",
    "ComponentDescriptor",
    "FleetClient",
    "FleetSupervisor",
    "LSN_HEADER",
    "MIN_LSN_HEADER",
    "PrimaryLsnStamp",
    "ReplicaGate",
    "ServletTierDeployment",
    "ThreadedAppServer",
    "deploy_business_tier",
]
