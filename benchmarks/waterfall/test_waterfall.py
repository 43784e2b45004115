"""Self-tests for the benchmark's own arithmetic (not part of tier-1):

    PYTHONPATH=src python -m pytest benchmarks/waterfall -q
"""

from __future__ import annotations

import gzip
import re
import socket
import threading
import time

import pytest

import compare
import loadgen
import tracing
from httpclient import CookieJar, ResponseParser, WireError, encode_request
from stats import describe, iqr_spread, percentile, supported_tail
from workloads import WORKLOADS, Req, Site, Traffic

# -- percentiles ------------------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([7], 50) == 7
    assert percentile([3, 1, 2], 50) == 2
    with pytest.raises(ValueError):
        percentile([], 50)


def test_tail_needs_ten_samples_beyond_it():
    assert supported_tail(99) is None          # p90 would leave 9.9 beyond
    assert supported_tail(100) == 90.0
    assert supported_tail(199) == 90.0
    assert supported_tail(200) == 95.0
    assert supported_tail(1000) == 99.0
    assert supported_tail(10000) == 99.9
    summary = describe([0.001] * 250, scale=1e3)
    assert summary == {"n": 250, "p50": 1.0, "tail_q": 95.0, "tail": 1.0}
    assert describe([]) == {"n": 0}


def test_iqr_spread_is_quartile_distance_over_median():
    values = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
    assert iqr_spread(values) == pytest.approx((17.25 - 11.75) / 14.5)


# -- self time ----------------------------------------------------------------------


def test_self_time_on_a_hand_built_span_tree():
    # request 0: handle[0,100] ⊃ page[10,90] ⊃ {query[20,40], query[50,70]}
    # request 1: handle[200,230], no children
    spans = [
        ["mvc.handle", 0, 100, -1, 0],
        ["services.page", 10, 90, 0, 0],
        ["rdb.query", 20, 40, 1, 0],
        ["rdb.query", 50, 70, 1, 0],
        ["mvc.handle", 200, 230, -1, 1],
    ]
    rows = tracing.waterfall(spans, requests=2)
    ns = 1e-3  # rows are in µs per request
    assert rows["mvc.handle"]["calls_per_req"] == 1.0
    assert rows["mvc.handle"]["total_us_per_req"] == pytest.approx(130 / 2 * ns)
    assert rows["mvc.handle"]["self_us_per_req"] == pytest.approx(50 / 2 * ns)
    assert rows["services.page"]["self_us_per_req"] == pytest.approx(40 / 2 * ns)
    assert rows["rdb.query"]["calls_per_req"] == 1.0
    assert rows["rdb.query"]["self_us_per_req"] == pytest.approx(40 / 2 * ns)
    # every nanosecond of the roots is some span's self time
    assert sum(r["self_us_per_req"] for r in rows.values()) == pytest.approx(
        rows["mvc.handle"]["total_us_per_req"])


def test_recorder_nests_spans_and_survives_exceptions():
    recorder = tracing.Recorder()

    def inner():
        raise KeyError("boom")

    wrapped_inner = recorder.wrap("inner", inner)
    outer = recorder.wrap("outer", lambda: wrapped_inner())
    with pytest.raises(KeyError):
        outer()
    recorder.wrap("next", lambda: None)()
    names_and_parents = [(s[0], s[3]) for s in recorder.spans]
    assert names_and_parents == [("outer", -1), ("inner", 0), ("next", -1)]
    assert all(s[2] >= s[1] > 0 for s in recorder.spans)


# -- generator determinism ------------------------------------------------------------


def _site() -> Site:
    site = object.__new__(Site)
    site.home = "/sv1/page1"
    site.volume = "/sv1/page2?unit2.oid="
    site.paper = "/sv1/page3?unit5.oid="
    site.search = "/sv1/page4?unit7.keyword="
    site.browse = "/sv1/page5?unit8.block="
    site.login = "/do/op3?op3.username=admin&op3.password=secret"
    site.create = "/do/op1?op1.pages=12&op1.title="
    site.delete = "/do/op2?op2.oid="
    site.volume_oids = list(range(1, 201))
    site.paper_oids = list(range(1, 6401))
    site.paper_link = re.compile(re.escape(site.paper).encode() + rb"(\d+)")
    return site


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_requests_other_seed_other_requests(name):
    def stream(seed):
        traffic = Traffic(WORKLOADS[name], _site(), seed)
        return [(r.kind, r.target, r.reval)
                for r in traffic.warmup() + traffic.take(400)]

    assert stream(2003) == stream(2003)
    assert stream(2003) != stream(77)
    assert loadgen.due_times(250, 2.0, 5) == loadgen.due_times(250, 2.0, 5)
    assert loadgen.due_times(250, 2.0, 5) != loadgen.due_times(250, 2.0, 6)


def test_workload_mixes_match_their_description():
    cold = Traffic(WORKLOADS["cold-render"], _site(), 1).take(4000)
    assert 0.66 < sum(r.kind == "volume" for r in cold) / 4000 < 0.74
    mixed = Traffic(WORKLOADS["mixed-write"], _site(), 1)
    assert len(mixed.warmup()) == 242            # login + the 241-URL pool
    slots = mixed.take(4000)
    assert 0.08 < sum(r.kind == "write" for r in slots) / 4000 < 0.12
    reads = [r for r in slots if r.kind != "write"]
    assert 0.45 < sum(r.reval for r in reads) / len(reads) < 0.55
    scan = Traffic(WORKLOADS["search-scan"], _site(), 1).take(4000)
    assert 0.77 < sum(r.kind == "search" for r in scan) / 4000 < 0.83


def test_write_chain_alternates_create_and_delete_of_the_same_paper():
    traffic = Traffic(WORKLOADS["mixed-write"], _site(), 1)
    jar = CookieJar()

    class Reply:
        status, headers, decode_error = 200, {}, None

        def __init__(self, body=b""):
            self.body = body

    create, _headers, used_jar = traffic.prepare(Req("write", lane=True), jar)
    assert create.kind == "create" and used_jar is traffic.admin_jar
    probe = traffic.followup(create, Reply())
    assert probe.kind == "probe" and probe.expect
    hit = Reply(b'<a href="/sv1/page3?unit5.oid=6401">' + create.marker)
    assert traffic.verify(probe, hit) is None
    assert traffic.verify(probe, Reply(b"nothing")) == "stale_read"
    assert traffic.followup(probe, hit) is None
    delete, _headers, _jar = traffic.prepare(Req("write", lane=True), jar)
    assert delete.kind == "delete" and delete.target.endswith("=6401")
    gone = traffic.followup(delete, Reply())
    assert not gone.expect
    assert traffic.verify(gone, hit) == "phantom_read"
    assert traffic.verify(gone, Reply(b"nothing")) is None
    traffic.followup(gone, Reply(b"nothing"))
    again, _headers, _jar = traffic.prepare(Req("write", lane=True), jar)
    assert again.kind == "create" and again.marker != create.marker


# -- the raw client ---------------------------------------------------------------------


def test_parser_content_length_and_set_cookie_and_date_exclusion():
    raw = (b"HTTP/1.1 200 OK\r\nDate: Sat, 01 Feb 2003 00:00:00 GMT\r\n"
           b"Set-Cookie: repro_session=s9; Path=/\r\nContent-Length: 5\r\n"
           b"Connection: keep-alive\r\n\r\nhello")
    parser = ResponseParser()
    assert parser.feed(raw[:30]) == []               # half a header
    [response] = parser.feed(raw[30:])
    assert (response.status, response.body) == (200, b"hello")
    assert response.wire_bytes == len(raw) - len(
        b"\r\nDate: Sat, 01 Feb 2003 00:00:00 GMT")
    jar = CookieJar()
    jar.absorb(response)
    assert jar.header() == "repro_session=s9"
    assert b"Cookie: repro_session=s9\r\n" in encode_request(
        "/x", {}, jar.header())


def test_parser_chunked_split_anywhere_and_pipelined():
    body = b"<html>" + b"x" * 300 + b"</html>"
    raw = (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
           b"6\r\n<html>\r\n12c\r\n" + b"x" * 300 + b"\r\n7\r\n</html>\r\n"
           b"0\r\n\r\n")
    two = raw + raw
    for cut in range(1, len(two), 17):
        parser = ResponseParser()
        responses = parser.feed(two[:cut]) + parser.feed(two[cut:])
        assert [r.body for r in responses] == [body, body]
        assert all(r.wire_bytes == len(raw) for r in responses)


def test_parser_gzip_and_bodiless_304_and_errors():
    packed = gzip.compress(b"y" * 1000)
    raw = (b"HTTP/1.1 200 OK\r\nContent-Encoding: gzip\r\nContent-Length: "
           + str(len(packed)).encode() + b"\r\n\r\n" + packed
           + b"HTTP/1.1 304 Not Modified\r\nETag: \"abc\"\r\n\r\n")
    ok, not_modified = ResponseParser().feed(raw)
    assert ok.body == b"y" * 1000 and ok.decode_error is None
    assert ok.wire_bytes < 200                      # the compressed size
    assert (not_modified.status, not_modified.body) == (304, b"")
    assert not_modified.headers["ETag"] == '"abc"'
    [broken] = ResponseParser().feed(
        b"HTTP/1.1 200 OK\r\nContent-Encoding: gzip\r\n"
        b"Content-Length: 4\r\n\r\nnope")
    assert broken.decode_error
    with pytest.raises(WireError):
        ResponseParser().feed(b"HTTP/1.1 200 OK\r\n\r\nbody without framing")
    with pytest.raises(WireError):
        ResponseParser().feed(b"SMTP ready\r\n\r\n")


# -- open-loop accounting ---------------------------------------------------------------


class _StubServer:
    """Answers every request with a tiny 200; stalls once before the
    request numbered ``stall_at`` — all connections share the stall."""

    def __init__(self, stall_at: int, stall_seconds: float):
        self.stall_at, self.stall_seconds = stall_at, stall_seconds
        self.served = 0
        self.lock = threading.Lock()
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.address = self.listener.getsockname()
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self):
        while True:
            try:
                connection, _peer = self.listener.accept()
            except OSError:
                return
            threading.Thread(target=self._serve, args=(connection,),
                             daemon=True).start()

    def _serve(self, connection):
        with connection:
            while True:
                data = connection.recv(65536)
                if not data:
                    return
                with self.lock:  # one "core": a stall blocks everyone
                    self.served += 1
                    if self.served == self.stall_at:
                        time.sleep(self.stall_seconds)
                    connection.sendall(b"HTTP/1.1 200 OK\r\n"
                                       b"Content-Length: 2\r\n\r\nok")


class _PlainTraffic:
    def next(self):
        return Req("home", "/")

    def prepare(self, req, jar):
        return req, {}, jar

    def verify(self, req, response):
        return None if response.body == b"ok" else "content_marker"

    def followup(self, req, response):
        return None


def test_a_stall_delays_every_request_due_during_it():
    server = _StubServer(stall_at=20, stall_seconds=0.1)
    try:
        due = [i * 0.005 for i in range(60)]        # 200/s for 0.3 s
        result = loadgen.run_phase(server.address, _PlainTraffic(), 2, 0.3,
                                   due)
    finally:
        server.listener.close()
    latencies = result.latencies("read")
    assert result.attempted == 60 and result.failed == 0
    assert len(latencies) == 60
    # the stall covers ~20 due times (100 ms at 5 ms spacing).  Timing from
    # the send would show it in at most the two requests in flight; timing
    # from the due time shows it in all that were due meanwhile
    delayed = sum(latency > 0.02 for latency in latencies)
    assert delayed >= 10
    assert max(latencies) >= 0.09
    assert sorted(latencies)[10] < 0.01             # and only in those
    health = result.load_health()
    assert health["backlog_max"] >= 10
    assert health["backlog_growing"] == 0           # it drained again
    assert health["late_p99_ms"] < 5.0              # the generator kept time


def test_closed_loop_sends_only_when_a_connection_is_free():
    server = _StubServer(stall_at=0, stall_seconds=0.0)
    try:
        result = loadgen.run_phase(server.address, _PlainTraffic(), 2, 0.2)
    finally:
        server.listener.close()
    assert result.failed == 0 and result.attempted > 20
    assert 0 < len(result.latencies()) <= result.attempted
    assert not result.late                          # no schedule to be late for


# -- compare ----------------------------------------------------------------------------


def test_verdicts_respect_direction_and_bound():
    assert compare.verdict(100, 107, "lower", 0.10) == "same"
    assert compare.verdict(100, 111, "lower", 0.10) == "regressed"
    assert compare.verdict(100, 89, "lower", 0.10) == "better"
    assert compare.verdict(100, 91, "higher", 0.08) == "regressed"
    assert compare.verdict(100, 109, "higher", 0.08) == "better"
    assert compare.verdict(0, 0, "lower", 0.1) == "same"


def test_compare_marks_noisy_and_overloaded_rows_unresolved():
    spec = {"workloads": [{"name": "w"}],
            "end_to_end": [{"name": "p50_ms", "unit": "ms",
                            "better": "lower", "bound": 0.10}],
            "per_layer": []}

    def doc(value, invalid=False):
        return {"workloads": {"w": {"end_to_end": {"p50_ms": value},
                                    "invalid_load": invalid}}}

    rows, _layers = compare.compare([doc(1.0)], [doc(1.2)], spec)
    assert rows[0][4] == "regressed"
    rows, _layers = compare.compare([doc(1.0)], [doc(1.2, invalid=True)], spec)
    assert rows[0][4] == "unresolved"
    noisy = [doc(v) for v in (0.6, 0.9, 1.0, 1.1, 1.5)]
    rows, _layers = compare.compare(noisy, [doc(1.0)] * 5, spec)
    assert rows[0][4] == "unresolved"
    steady = [doc(v) for v in (0.99, 1.0, 1.0, 1.0, 1.01)]
    rows, _layers = compare.compare(steady, [doc(1.0)] * 5, spec)
    assert rows[0][4] == "same"
