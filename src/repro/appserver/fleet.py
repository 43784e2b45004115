"""A process-per-core worker fleet over WAL-shipping replication.

The threaded app server scales until the workload turns CPU-bound —
E13's ceiling — because every worker thread shares one interpreter
lock and one database write lock.  The fleet is the shared-nothing
answer the paper's tier separation points at: one *primary* process
owns the durable database and takes every write; N *worker* processes
each own a full application stack over a read-only replica
(:mod:`repro.rdb.replication`) and take the reads.  Workers share
nothing at runtime — not the GIL, not the write lock, not a cache —
yet stay consistent because each replays the primary's WAL into its
own invalidation bus.

Consistency contract (see docs/REPLICATION.md):

- Replication is asynchronous: an un-annotated read may be stale by
  the replication lag (milliseconds here).
- A write's response carries the primary's commit LSN in the
  ``X-Repro-Lsn`` header (the *write token*).  A read that sends that
  token back as ``X-Repro-Min-Lsn`` blocks on the worker until replay
  catches up — read-your-writes per client, no cross-process locks.
- A worker that cannot catch up within its gate timeout answers 503
  rather than serve a read older than the client's own write.

The supervisor process runs the primary application behind its own
:class:`~repro.appserver.threaded.ThreadedAppServer` socket, runs the
:class:`~repro.rdb.replication.ReplicationServer`, and spawns workers
as real subprocesses (``python -m repro.appserver.fleet_worker``) —
fresh interpreters, so nothing leaks across the process boundary by
accident.  Per-worker lag/replay stats surface in the primary's
``/_status`` via the ``replication`` collector.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
import threading
import time

from repro.errors import ContainerError
from repro.httpcore.client import WireClient
from repro.mvc.http import HttpResponse

#: response header a primary stamps with its commit LSN (write token)
LSN_HEADER = "X-Repro-Lsn"
#: request header a replica gate blocks on (read-your-writes)
MIN_LSN_HEADER = "X-Repro-Min-Lsn"

_READY_PREFIX = "FLEET-WORKER-READY "


class _AppWrapper:
    """What a server needs of a wrapped application besides ``handle``:
    its runtime context (to register collectors), its database and
    ``close``.  Deliberately *not* ``front``: an edge that finds a
    front controller drives its pipeline directly, past the wrapper's
    ``handle`` — and the wrapper exists to see every request."""

    def __init__(self, app):
        self.app = app

    @property
    def ctx(self):
        return self.app.ctx

    @property
    def database(self):
        return self.app.database

    def close(self) -> None:
        self.app.close()


class PrimaryLsnStamp(_AppWrapper):
    """Wraps the primary application to stamp every response with the
    current commit LSN — the write token a router or client threads
    through to its next read."""

    def handle(self, request) -> HttpResponse:
        response = self.app.handle(request)
        response.headers[LSN_HEADER] = str(self.database.last_lsn)
        return response


class ReplicaGate(_AppWrapper):
    """Wraps a worker's application with the LSN wait gate.

    A request carrying ``X-Repro-Min-Lsn`` waits (bounded) for the
    replica to replay up to that token before the read proceeds; a
    timeout answers 503 with ``Retry-After`` instead of serving a
    stale read; a token that is not an integer answers 400 without
    waiting.  Responses are stamped with the replica's applied LSN so
    clients can observe replay progress.
    """

    def __init__(self, app, client, wait_timeout: float = 5.0):
        super().__init__(app)
        self.client = client
        self.wait_timeout = wait_timeout
        self.lsn_waits = 0
        self.lsn_timeouts = 0

    def handle(self, request) -> HttpResponse:
        raw = request.headers.get(MIN_LSN_HEADER)
        if raw:
            try:
                lsn = int(raw)
            except ValueError:
                return HttpResponse(
                    status=400,
                    body=f"{MIN_LSN_HEADER} is not an lsn: {raw!r}",
                    content_type="text/plain",
                )
            self.lsn_waits += 1
            if not self.client.wait_for_lsn(lsn, self.wait_timeout):
                self.lsn_timeouts += 1
                return HttpResponse(
                    status=503,
                    body=(
                        f"replica behind requested lsn {raw} "
                        f"(applied {self.database.last_lsn})"
                    ),
                    content_type="text/plain",
                    headers={"Retry-After": "1"},
                )
        response = self.app.handle(request)
        response.headers[LSN_HEADER] = str(self.database.last_lsn)
        return response

    def stats(self) -> dict:
        return {"lsn_waits": self.lsn_waits,
                "lsn_timeouts": self.lsn_timeouts}


class WorkerHandle:
    """One spawned worker process and what the supervisor knows of it."""

    def __init__(self, name: str, process: subprocess.Popen):
        self.name = name
        self.process = process
        self.http_address: tuple | None = None

    @property
    def alive(self) -> bool:
        return self.process.poll() is None


class FleetSupervisor:
    """Runs the primary and a fleet of replica worker processes.

    ``app`` is the primary application (over a durable database —
    replication ships its WAL).  ``worker_factory`` is a dotted
    ``"module:callable"`` path; each worker process imports it and
    calls it with its replica database to build an identical
    application stack.  The factory must be importable in a fresh
    interpreter — the supervisor forwards its own ``sys.path``.
    """

    def __init__(self, app, worker_factory: str, workers: int = 4,
                 worker_threads: int = 4, host: str = "127.0.0.1",
                 start_timeout: float = 30.0):
        if workers <= 0:
            raise ContainerError("a fleet needs at least one worker")
        self.app = app
        self.worker_factory = worker_factory
        self.workers = workers
        self.worker_threads = worker_threads
        self.host = host
        self.start_timeout = start_timeout
        self.replication_server = None
        self.primary_server = None
        self.primary_address: tuple | None = None
        self.handles: list[WorkerHandle] = []

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "FleetSupervisor":
        from repro.appserver.threaded import ThreadedAppServer
        from repro.rdb.replication import ReplicationServer

        if self.replication_server is not None:
            raise ContainerError("fleet already started")
        self.replication_server = ReplicationServer(
            self.app.database, host=self.host
        )
        replication_address = self.replication_server.start()
        obs = getattr(getattr(self.app, "ctx", None), "obs", None)
        if obs is not None:
            obs.metrics.register_collector(
                "replication", self.replication_server.stats
            )
        self.primary_server = ThreadedAppServer(
            PrimaryLsnStamp(self.app), workers=2
        )
        self.primary_address = self.primary_server.listen(self.host, 0)
        for index in range(self.workers):
            self.handles.append(
                self._spawn_worker(f"worker-{index}", replication_address)
            )
        deadline = time.monotonic() + self.start_timeout
        for handle in self.handles:
            self._await_ready(handle, deadline)
        return self

    def _spawn_worker(self, name: str,
                      replication_address: tuple) -> WorkerHandle:
        config = {
            "name": name,
            "factory": self.worker_factory,
            "replication": list(replication_address),
            "host": self.host,
            "threads": self.worker_threads,
            "sys_path": [p for p in sys.path if p],
        }
        # ``-m`` resolves the worker module before the config's sys_path
        # applies, so the interpreter needs repro importable up front.
        env = dict(os.environ)
        existing = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = os.pathsep.join(
            config["sys_path"] + ([existing] if existing else [])
        )
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.appserver.fleet_worker",
             json.dumps(config)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        return WorkerHandle(name, process)

    def _await_ready(self, handle: WorkerHandle, deadline: float) -> None:
        """Read the worker's stdout until its READY line (it prints
        nothing before that except crash tracebacks, which we surface)."""
        lines: list[str] = []
        while True:
            if time.monotonic() > deadline:
                self.stop()
                raise ContainerError(
                    f"fleet worker {handle.name} did not start in time:\n"
                    + "".join(lines[-20:])
                )
            line = handle.process.stdout.readline()
            if not line:
                self.stop()
                raise ContainerError(
                    f"fleet worker {handle.name} exited during startup:\n"
                    + "".join(lines[-20:])
                )
            if line.startswith(_READY_PREFIX):
                info = json.loads(line[len(_READY_PREFIX):])
                handle.http_address = (info["host"], info["port"])
                return
            lines.append(line)

    def stop(self) -> None:
        """Stop workers (graceful, then hard), then the primary edge
        and the replication server.  The primary application itself is
        left to its owner."""
        for handle in self.handles:
            if handle.alive:
                try:
                    handle.process.stdin.write("stop\n")
                    handle.process.stdin.flush()
                    handle.process.stdin.close()
                except OSError:
                    pass
        deadline = time.monotonic() + 5.0
        for handle in self.handles:
            remaining = max(0.1, deadline - time.monotonic())
            try:
                handle.process.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                handle.process.terminate()
                try:
                    handle.process.wait(timeout=2.0)
                except subprocess.TimeoutExpired:
                    handle.process.kill()
                    handle.process.wait()
        self.handles = []
        if self.primary_server is not None:
            self.primary_server.stop()
            self.primary_server = None
        if self.replication_server is not None:
            self.replication_server.stop()
            self.replication_server = None

    def __enter__(self) -> "FleetSupervisor":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- addressing / tokens -------------------------------------------------

    @property
    def worker_addresses(self) -> list[tuple]:
        return [h.http_address for h in self.handles
                if h.http_address is not None]

    def write_token(self) -> int:
        """The current primary commit LSN — waiting on it guarantees a
        subsequent replica read sees every commit up to now."""
        return self.app.database.last_lsn

    # -- observation --------------------------------------------------------

    def status(self) -> dict:
        """Supervisor view: primary LSN plus per-worker lag/liveness
        (from the replication server's ACK tracking — no worker HTTP
        round-trips, so it is safe inside a metrics collector)."""
        replication = (
            self.replication_server.stats()
            if self.replication_server is not None else {}
        )
        return {
            "primary_lsn": self.app.database.last_lsn,
            "primary_address": self.primary_address,
            "workers_alive": sum(1 for h in self.handles if h.alive),
            "workers_total": len(self.handles),
            "replication": replication,
        }


class FleetClient:
    """A client-side router: reads round-robin across workers, writes
    to the primary, write tokens threaded automatically.

    Connections are keep-alive and per-thread (a :class:`WireClient`
    is one socket), so N client threads drive the fleet concurrently
    without sharing sockets.  ``read_your_writes=True`` makes every
    read after a write on the *same client* carry the last write
    token.
    """

    def __init__(self, supervisor: FleetSupervisor,
                 read_your_writes: bool = True):
        if not supervisor.worker_addresses:
            raise ContainerError("fleet has no ready workers to read from")
        self.supervisor = supervisor
        self.read_your_writes = read_your_writes
        self._round_robin = itertools.cycle(
            list(supervisor.worker_addresses)
        )
        self._rr_lock = threading.Lock()
        self._local = threading.local()

    def _connection(self, address: tuple) -> WireClient:
        pool = getattr(self._local, "pool", None)
        if pool is None:
            pool = self._local.pool = {}
        client = pool.get(address)
        if client is None:
            client = pool[address] = WireClient(address, cookies=True)
        return client

    @property
    def last_write_token(self) -> int:
        return getattr(self._local, "token", 0)

    def _next_worker(self) -> tuple:
        with self._rr_lock:
            return next(self._round_robin)

    def read(self, target: str, min_lsn: int | None = None,
             worker: tuple | None = None):
        """GET from a worker replica.  ``min_lsn`` (or the thread's last
        write token, with ``read_your_writes``) rides the gate header."""
        address = worker or self._next_worker()
        token = min_lsn
        if token is None and self.read_your_writes:
            token = self.last_write_token or None
        headers = {MIN_LSN_HEADER: str(token)} if token else None
        client = self._connection(address)
        try:
            return client.request(target, headers=headers)
        except OSError:
            # keep-alive socket died (worker restart, idle timeout):
            # one reconnect attempt on a fresh connection
            client.close()
            return client.request(target, headers=headers)

    def write(self, target: str, method: str = "GET"):
        """Send a mutating request to the primary; remembers the commit
        LSN it answered with as this thread's write token."""
        client = self._connection(self.supervisor.primary_address)
        try:
            response = client.request(target, method=method)
        except OSError:
            client.close()
            response = client.request(target, method=method)
        token = response.headers.get(LSN_HEADER)
        if token is not None:
            self._local.token = int(token)
        return response

    def close(self) -> None:
        pool = getattr(self._local, "pool", None)
        if pool:
            for client in pool.values():
                client.close()
            pool.clear()
