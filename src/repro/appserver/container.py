"""The EJB-like component container.

Fixes the two §4 limitations of servlet-tier business logic:

1. "Page and unit services live in the servlet container and cannot be
   called by other applications" — here any client (Web or not) calls
   :meth:`ComponentContainer.invoke`;
2. "The number of clones must be decided statically, and cannot be
   adapted at runtime.  If the traffic of a certain application reduces,
   the objects implementing its services remain in main memory" — here
   each component's instance pool grows on demand up to ``max_instances``
   and :meth:`sweep` passivates instances idle longer than
   ``idle_timeout`` down to ``min_instances``.

Time is injected (``clock``) so the scaling experiments are
deterministic.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.errors import ContainerError
from repro.util import SystemClock


@dataclass
class ComponentDescriptor:
    """Deployment descriptor of one business component (an EJB)."""

    name: str
    factory: object  # callable returning a fresh instance
    min_instances: int = 0
    max_instances: int = 32
    idle_timeout: float = 30.0

    def __post_init__(self) -> None:
        if self.min_instances < 0:
            raise ContainerError("min_instances cannot be negative")
        if self.max_instances < max(1, self.min_instances):
            raise ContainerError("max_instances must cover min_instances")
        if self.idle_timeout <= 0:
            raise ContainerError("idle_timeout must be positive")


@dataclass
class _Pool:
    descriptor: ComponentDescriptor
    idle: list = field(default_factory=list)  # (instance, last_used)
    busy: int = 0
    created_total: int = 0
    passivated_total: int = 0
    peak_resident: int = 0

    @property
    def resident(self) -> int:
        return len(self.idle) + self.busy


class ComponentContainer:
    """Holds every deployed component and its instance pool.

    Thread-safe: acquisition, release, deployment, and sweeping all
    synchronize on one lock, so the request threads of either edge
    (:mod:`repro.appserver.threaded`, :mod:`repro.appserver.async_edge`)
    can invoke components concurrently.  An invoke of a component whose
    ``max_instances`` are all busy fails fast with
    :class:`~repro.errors.ContainerError`; it never waits.
    """

    def __init__(self, clock=None):
        self.clock = clock or SystemClock()
        self._lock = threading.RLock()
        self._pools: dict[str, _Pool] = {}
        self.invocations = 0

    # -- deployment ----------------------------------------------------------

    def deploy(self, descriptor: ComponentDescriptor) -> None:
        with self._lock:
            if descriptor.name in self._pools:
                raise ContainerError(
                    f"component {descriptor.name!r} already deployed"
                )
            pool = _Pool(descriptor)
            for _ in range(descriptor.min_instances):
                pool.idle.append((descriptor.factory(), self.clock.now()))
                pool.created_total += 1
            pool.peak_resident = pool.resident
            self._pools[descriptor.name] = pool

    def undeploy(self, name: str) -> None:
        with self._lock:
            self._pools.pop(name, None)

    def deployed(self) -> list[str]:
        with self._lock:
            return sorted(self._pools)

    def _pool(self, name: str) -> _Pool:
        with self._lock:
            pool = self._pools.get(name)
            if pool is None:
                raise ContainerError(f"no component deployed as {name!r}")
            return pool

    # -- invocation -------------------------------------------------------------

    def invoke(self, name: str, method: str, *args, **kwargs):
        """Call ``method`` on a pooled instance of component ``name``.

        Usable by the Web tier's action classes and by any other client
        (the §4 sharing property).  The method itself runs outside the
        container lock, so slow components never serialize the tier.
        """
        pool = self._pool(name)
        instance = self._acquire(pool)
        try:
            bound = getattr(instance, method)
            with self._lock:
                self.invocations += 1
            return bound(*args, **kwargs)
        finally:
            self._release(pool, instance)

    def _acquire(self, pool: _Pool):
        with self._lock:
            if pool.idle:
                instance, _last_used = pool.idle.pop()
                pool.busy += 1
                return instance
            if pool.resident < pool.descriptor.max_instances:
                instance = pool.descriptor.factory()
                pool.created_total += 1
                pool.busy += 1
                pool.peak_resident = max(pool.peak_resident, pool.resident)
                return instance
            raise ContainerError(
                f"component {pool.descriptor.name!r} at max instances "
                f"({pool.descriptor.max_instances})"
            )

    def _release(self, pool: _Pool, instance) -> None:
        with self._lock:
            pool.busy -= 1
            pool.idle.append((instance, self.clock.now()))
            pool.peak_resident = max(pool.peak_resident, pool.resident)

    # -- adaptive scaling ----------------------------------------------------------

    def sweep(self) -> int:
        """Passivate instances idle past their timeout (down to min).

        Returns how many instances were released — the memory the static
        clone architecture would have kept occupied.
        """
        with self._lock:
            return self._sweep_locked()

    def _sweep_locked(self) -> int:
        now = self.clock.now()
        passivated = 0
        for pool in self._pools.values():
            timeout = pool.descriptor.idle_timeout
            survivors: list = []
            # Oldest first, so the survivors are the most recently used.
            for entry in sorted(pool.idle, key=lambda e: e[1]):
                _instance, last_used = entry
                resident_if_kept = pool.busy + len(survivors) + 1
                expired = now - last_used >= timeout
                if expired and resident_if_kept > pool.descriptor.min_instances:
                    pool.passivated_total += 1
                    passivated += 1
                else:
                    survivors.append(entry)
            pool.idle = survivors
        return passivated

    # -- observation ------------------------------------------------------------------

    def resident_instances(self, name: str | None = None) -> int:
        with self._lock:
            if name is not None:
                return self._pool(name).resident
            return sum(pool.resident for pool in self._pools.values())

    def pool_stats(self, name: str) -> dict:
        with self._lock:
            pool = self._pool(name)
            return {
                "resident": pool.resident,
                "busy": pool.busy,
                "idle": len(pool.idle),
                "created_total": pool.created_total,
                "passivated_total": pool.passivated_total,
                "peak_resident": pool.peak_resident,
            }
