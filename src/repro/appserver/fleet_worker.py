"""Fleet worker subprocess entry point.

Launched by :class:`repro.appserver.fleet.FleetSupervisor` as
``python -m repro.appserver.fleet_worker '<json-config>'``.  The worker
is a fresh interpreter: it opens a read-only replica database, streams
the primary's WAL into it, builds a full application stack on top with
the supervisor-provided factory, and serves reads behind the LSN wait
gate.  Protocol with the supervisor:

- startup: a single ``FLEET-WORKER-READY {"host":..,"port":..}`` line
  on stdout once the replica is bootstrapped and the socket is bound;
  anything before that (tracebacks) is startup failure detail.
- shutdown: any line (or EOF) on stdin — the worker stops its server,
  replication client, and database, then exits 0.
"""

from __future__ import annotations

import importlib
import json
import sys


def _resolve_factory(path: str):
    """Import a ``"module:callable"`` application factory."""
    module_name, _, attr = path.partition(":")
    if not module_name or not attr:
        raise ValueError(
            f"worker factory must be 'module:callable', got {path!r}"
        )
    module = importlib.import_module(module_name)
    return getattr(module, attr)


def main(argv: list[str]) -> int:
    config = json.loads(argv[1])
    for entry in reversed(config.get("sys_path", [])):
        if entry not in sys.path:
            sys.path.insert(0, entry)

    from repro.appserver.fleet import ReplicaGate
    from repro.appserver.threaded import ThreadedAppServer
    from repro.rdb.replication import ReplicationClient, open_replica

    name = config.get("name", "worker")
    database = open_replica(name=name)
    client = ReplicationClient(
        database,
        tuple(config["replication"]),
        name=name,
    )
    client.start()
    if not client.wait_for_bootstrap(timeout=30.0):
        raise TimeoutError(
            f"worker {name} never bootstrapped: {client.stats()!r}"
        )

    # The factory builds the same application stack the primary runs —
    # schema install is a no-op because the bootstrap already shipped
    # the tables, and the replica engine would refuse the writes.
    factory = _resolve_factory(config["factory"])
    app = factory(database)
    gate = ReplicaGate(app, client,
                       wait_timeout=config.get("gate_timeout", 5.0))
    obs = getattr(getattr(app, "ctx", None), "obs", None)
    if obs is not None:
        obs.metrics.register_collector("replication", client.stats)
        obs.metrics.register_collector("replication.gate", gate.stats)

    server = ThreadedAppServer(gate, workers=config.get("threads", 4))
    host, port = server.listen(config.get("host", "127.0.0.1"), 0)
    print(_ready_line(host, port), flush=True)

    try:
        sys.stdin.readline()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        client.stop()
        app.close()
    return 0


def _ready_line(host: str, port: int) -> str:
    from repro.appserver.fleet import _READY_PREFIX

    return _READY_PREFIX + json.dumps({"host": host, "port": port})


if __name__ == "__main__":
    sys.exit(main(sys.argv))
