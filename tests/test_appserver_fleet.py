"""The process-per-core fleet: supervisor, workers, and the LSN gate.

These tests spawn real worker subprocesses (the same path production
takes), so they are the slowest in the suite — one fleet is shared
across the read/write/status assertions to keep that cost paid once.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile

import pytest

from repro.app import WebApplication
from repro.appserver.fleet import (
    LSN_HEADER,
    MIN_LSN_HEADER,
    FleetClient,
    FleetSupervisor,
    PrimaryLsnStamp,
    ReplicaGate,
)
from repro.errors import ContainerError
from repro.mvc.http import HttpRequest, HttpResponse
from repro.rdb import Database
from repro.workloads.bookstore import (
    bean_content_renderer,
    build_bookstore_model,
    seed_bookstore,
)

FACTORY = "repro.workloads.bookstore:build_bookstore_replica"


@pytest.fixture(scope="module")
def fleet():
    """One seeded bookstore primary with a 2-worker fleet around it."""
    base = tempfile.mkdtemp(prefix="fleet-")
    db = Database.open(os.path.join(base, "primary"))
    app = WebApplication(build_bookstore_model(),
                         view_renderer=bean_content_renderer, database=db)
    oids = seed_bookstore(app)
    supervisor = FleetSupervisor(app, FACTORY, workers=2, worker_threads=2,
                                 start_timeout=60.0)
    supervisor.start()
    try:
        yield supervisor, app, oids
    finally:
        supervisor.stop()
        app.close()
        shutil.rmtree(base, ignore_errors=True)


def _detail_url(app, oid: int) -> str:
    page = app.model.find_site_view("shop").find_page("Book Page")
    return app.page_url("shop", "Book Page",
                        {f"{page.units[0].id}.oid": oid})


class TestFleetLifecycle:
    def test_workers_come_up_with_distinct_addresses(self, fleet):
        supervisor, _app, _oids = fleet
        addresses = supervisor.worker_addresses
        assert len(addresses) == 2
        assert len(set(addresses)) == 2
        assert all(handle.alive for handle in supervisor.handles)

    def test_rejects_zero_workers(self):
        with pytest.raises(ContainerError, match="at least one"):
            FleetSupervisor(object(), FACTORY, workers=0)


class TestFleetRouting:
    def test_reads_are_served_by_replicas(self, fleet):
        supervisor, app, _oids = fleet
        client = FleetClient(supervisor)
        response = client.read(app.page_url("shop", "Home"))
        assert response.status == 200
        assert LSN_HEADER in response.headers

    def test_write_token_rides_the_response(self, fleet):
        supervisor, app, oids = fleet
        client = FleetClient(supervisor)
        login = client.write(app.operation_url(
            "backoffice", "Login",
            {"username": "clerk", "password": "books"}))
        assert login.status in (200, 302)
        assert client.last_write_token == app.database.last_lsn

    def test_read_your_writes_on_every_worker(self, fleet):
        supervisor, app, oids = fleet
        client = FleetClient(supervisor)
        client.write(app.operation_url(
            "backoffice", "Login",
            {"username": "clerk", "password": "books"}))
        book = oids["books"][0]
        for step, address in enumerate(supervisor.worker_addresses):
            price = 321.0 + step
            write = client.write(app.operation_url(
                "backoffice", "Reprice", {"oid": book, "price": price}))
            assert write.status in (200, 302)
            read = client.read(_detail_url(app, book), worker=address)
            assert read.status == 200
            served = json.loads(read.body)["Book"]["current"]
            assert float(served["price"]) == price

    def test_explicit_min_lsn_gates_the_read(self, fleet):
        supervisor, app, _oids = fleet
        client = FleetClient(supervisor, read_your_writes=False)
        token = supervisor.write_token()
        response = client.read(app.page_url("shop", "Home"), min_lsn=token)
        assert response.status == 200
        assert int(response.headers[LSN_HEADER]) >= token


class TestFleetObservability:
    def test_worker_status_reports_replication(self, fleet):
        supervisor, _app, _oids = fleet
        client = FleetClient(supervisor)
        response = client.read("/_status?format=json",
                               worker=supervisor.worker_addresses[0])
        external = json.loads(response.body)["metrics"]["external"]
        replication = external["replication"]
        assert replication["role"] == "replica"
        assert replication["connected"] is True
        assert replication["bootstraps"] >= 1
        assert set(external["replication.gate"]) == {
            "lsn_waits", "lsn_timeouts"}

    def test_primary_status_reports_per_worker_lag(self, fleet):
        supervisor, app, _oids = fleet
        status = supervisor.status()
        assert status["workers_alive"] == 2
        replication = status["replication"]
        assert replication["role"] == "primary"
        assert len(replication["workers"]) == 2
        names = {worker["name"] for worker in replication["workers"]}
        assert names == {"worker-0", "worker-1"}
        # and the same document is served over the wire at /_status
        from repro.httpcore.client import WireClient
        with WireClient(supervisor.primary_address) as wire:
            body = wire.request("/_status?format=json").body
        served = json.loads(body)["metrics"]["external"]["replication"]
        assert served["role"] == "primary"


class TestGateUnits:
    """The wrapper classes in isolation — no sockets, no subprocesses."""

    class _StubApp:
        def __init__(self, lsn=5):
            self.database = type("Db", (), {"last_lsn": lsn})()
            self.handled = []

        def handle(self, request):
            self.handled.append(request)
            return HttpResponse(status=200, body="ok")

    class _StubClient:
        def __init__(self, outcome=True):
            self.outcome = outcome
            self.waits = []

        def wait_for_lsn(self, lsn, timeout):
            self.waits.append((lsn, timeout))
            return self.outcome

    def test_primary_stamp_adds_lsn_header(self):
        app = self._StubApp(lsn=42)
        response = PrimaryLsnStamp(app).handle(
            HttpRequest.from_url("/x"))
        assert response.headers[LSN_HEADER] == "42"

    def test_gate_waits_only_when_header_present(self):
        app, client = self._StubApp(), self._StubClient()
        gate = ReplicaGate(app, client)
        gate.handle(HttpRequest.from_url("/x"))
        assert client.waits == []
        request = HttpRequest.from_url("/x")
        request.headers[MIN_LSN_HEADER] = "9"
        response = gate.handle(request)
        assert client.waits == [(9, gate.wait_timeout)]
        assert response.status == 200
        assert gate.stats() == {"lsn_waits": 1, "lsn_timeouts": 0}

    def test_gate_times_out_to_503(self):
        app = self._StubApp()
        gate = ReplicaGate(app, self._StubClient(outcome=False),
                           wait_timeout=0.01)
        request = HttpRequest.from_url("/x")
        request.headers[MIN_LSN_HEADER] = "9"
        response = gate.handle(request)
        assert response.status == 503
        assert response.headers["Retry-After"] == "1"
        assert app.handled == []  # the stale read never ran
        assert gate.stats()["lsn_timeouts"] == 1
