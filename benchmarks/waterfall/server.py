"""The server child: the ACM Digital Library behind a real socket edge.

``python server.py <workload> <edge> [data-dir]`` builds the application
for the workload, listens on an ephemeral loopback port, prints
``LISTENING <port>`` and serves until its stdin closes.  Everything the
parent measures as ``setup_s`` happens here: import, generate, deploy,
seed, listen.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(HERE, "..", "..", "src")]

#: the edge's compute pool; the generator holds as many connections
EDGE_WORKERS = 2


def main(argv: list[str]) -> int:
    from repro.appserver import AsyncAppServer, ThreadedAppServer
    from workloads import WORKLOADS, build_app

    workload = WORKLOADS[argv[1]]
    edge = argv[2]
    data_dir = argv[3] if len(argv) > 3 else None
    app, _oids = build_app(workload, data_dir)
    if edge == "async":
        server = AsyncAppServer(app, workers=EDGE_WORKERS)
    else:
        server = ThreadedAppServer(app, workers=EDGE_WORKERS)
    port = server.listen()[1]
    print(f"LISTENING {port}", flush=True)
    try:
        sys.stdin.read()  # the parent closes our stdin to stop us
    finally:
        server.stop()
        app.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
