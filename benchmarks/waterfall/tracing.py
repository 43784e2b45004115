"""The traced run: per-layer attribution, recorded from outside.

Nothing in ``src/`` changes.  Each layer of ``docs/ARCHITECTURE.md`` is
timed at a public seam — an instance attribute replaced by a wrapper, or
the ``view_renderer`` constructor argument — by the benchmark's own span
recorder.  The run is in-process, single-threaded and socket-free: the
seeded request stream is replayed as raw request bytes through
``HttpConnection.receive_bytes`` → ``app.handle`` →
``HttpConnection.send_response``, once on an untouched application and
once on an identically built one with the recorder installed; the
difference between the two is the tracing overhead.
"""

from __future__ import annotations

import copy
import gzip
import json
import time

from httpclient import CookieJar, ResponseParser, encode_request
from stats import percentile

#: a fixed Date keeps replayed wire bytes identical between the two runs
REPLAY_DATE = "Sat, 01 Feb 2003 00:00:00 GMT"
ROOTS = ("httpcore.parse", "mvc.handle", "httpcore.encode")


class Recorder:
    """Spans in memory: ``[name, start_ns, end_ns, parent, request]``.
    Single-threaded by design — the traced run has one thread."""

    def __init__(self):
        self.spans: list[list] = []
        self.request_id = -1
        self._stack: list[int] = []
        self.sql_seen: set[str] = set()

    def wrap(self, name: str, function, capture_sql: bool = False):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if capture_sql and args and isinstance(args[0], str):
                self.sql_seen.add(args[0])
            index = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1,
                          self.request_id])
            stack.append(index)
            try:
                return function(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return traced

    def reset(self) -> None:
        self.spans.clear()
        self.request_id = -1


class TracedRenderer:
    """The ``view_renderer`` handed to ``WebApplication``: times the real
    renderer's call, forwards everything else (``fragment_cache``,
    ``device_registry``, ``stream_chunks``) untouched."""

    def __init__(self, renderer, recorder: Recorder):
        self._renderer = renderer
        self._call = recorder.wrap("presentation.render", renderer.__call__)

    def __call__(self, page_result, request, controller) -> str:
        return self._call(page_result, request, controller)

    def __getattr__(self, name: str):
        return getattr(self._renderer, name)


#: span name → (how to reach the object from the app, methods to wrap).
#: A locator returning ``None`` means the layer is switched off in this
#: workload; an ``AttributeError`` means a refactor removed the seam.
SEAMS = (
    ("caching.page", lambda app: app.page_cache,
     ("get_or_build", "peek")),
    ("caching.fragment",
     lambda app: app.front.view_renderer.fragment_cache, ("get_or_render",)),
    ("caching.bean", lambda app: app.ctx.bean_cache, ("get_or_compute",)),
    ("caching.invalidate", lambda app: app.ctx.invalidation_bus,
     ("invalidate_writes",)),
    ("services.page", lambda app: app.front.page_action.page_service,
     ("compute_page",)),
    ("services.unit",
     lambda app: app.front.page_action.page_service.unit_service,
     ("compute",)),
    ("services.operation",
     lambda app: app.front.operation_action.operation_service, ("execute",)),
    ("rdb.query", lambda app: app.ctx, ("query", "query_statement")),
    ("rdb.execute", lambda app: app.ctx, ("execute",)),
    ("rdb.commit", lambda app: app.database, ("commit",)),
)
SPAN_NAMES = ROOTS + tuple(name for name, _l, _m in SEAMS) \
    + ("presentation.render",)


def install(recorder: Recorder, app) -> list[str]:
    """Wrap every seam that exists; returns the names of absent ones."""
    absent = []
    for name, locate, methods in SEAMS:
        try:
            target = locate(app)
            if target is None:
                continue
            originals = [getattr(target, method) for method in methods]
        except AttributeError:
            absent.append(name)
            continue
        for method, original in zip(methods, originals):
            setattr(target, method, recorder.wrap(
                name, original, capture_sql=name == "rdb.query"))
    if not isinstance(app.front.view_renderer, TracedRenderer):
        absent.append("presentation.render")
    return absent


class Replay:
    """Drives one application in-process with the same bytes, the same
    checks and the same follow-ups as the socket phases."""

    def __init__(self, app, traffic, recorder: Recorder | None = None):
        from repro.httpcore import HttpConnection

        self.app = app
        self.traffic = traffic
        self.recorder = recorder
        self.connection = HttpConnection()
        self.jar = CookieJar()
        self.parser = ResponseParser()
        self.errors: dict[str, int] = {}
        self.attempted = 0
        self.request_seconds: list[float] = []
        self.captured: dict = {}
        receive, handle, send = (self.connection.receive_bytes, app.handle,
                                 self.connection.send_response)
        if recorder is not None:
            receive = recorder.wrap("httpcore.parse", receive)
            handle = recorder.wrap("mvc.handle", handle)
            send = recorder.wrap("httpcore.encode", send)
        self._receive, self._handle, self._send = receive, handle, send

    def run(self, requests: list, timed: bool = True) -> None:
        clock = time.perf_counter
        for req in requests:
            while req is not None:
                req, headers, jar = self.traffic.prepare(req, self.jar)
                raw = encode_request(req.target, headers, jar.header())
                if timed and self.recorder is not None:
                    self.recorder.request_id += 1
                self.attempted += 1
                started = clock()
                [request] = self._receive(raw)
                response = self._handle(request)
                payload = self._send(request, response, date=REPLAY_DATE)
                elapsed = clock() - started
                if timed:
                    self.request_seconds.append(elapsed)
                [parsed] = self.parser.feed(payload)
                jar.absorb(parsed)
                error = self.traffic.verify(req, parsed)
                if error:
                    self.errors[error] = self.errors.get(error, 0) + 1
                if (not self.captured and parsed.status == 200
                        and "Content-Encoding" not in parsed.headers
                        and req.group == "read"):
                    self.captured = {"target": req.target, "raw": raw,
                                     "payload": payload,
                                     "response": response}
                req = None if error else self.traffic.followup(req, parsed)


def waterfall(spans: list, requests: int) -> dict:
    """Per span name: calls, self time and total time per request (µs).

    Self time is a span's duration minus the part its child spans cover;
    spans of one thread nest, so that is the sum of the children.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _request in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    rows: dict[str, dict] = {}
    for index, (name, start, end, _parent, _request) in enumerate(spans):
        row = rows.setdefault(name, {"calls": 0, "self_ns": 0, "total_ns": 0})
        row["calls"] += 1
        row["total_ns"] += end - start
        row["self_ns"] += end - start - child_ns[index]
    return {
        name: {
            "calls_per_req": row["calls"] / requests,
            "self_us_per_req": row["self_ns"] / requests / 1e3,
            "total_us_per_req": row["total_ns"] / requests / 1e3,
        }
        for name, row in rows.items()
    }


def write_spans(spans: list, path: str) -> None:
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        for index, (name, start, end, parent, request) in enumerate(spans):
            handle.write(json.dumps({
                "id": index, "name": name, "start_ns": start, "end_ns": end,
                "parent": parent, "request": request,
            }) + "\n")


def _median_us(function, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        function()
        samples.append(time.perf_counter() - started)
    return percentile(samples, 50) * 1e6


def micro_probes(captured: dict, sql_seen: set) -> dict:
    """Single-function costs on inputs captured from the workload."""
    from repro.httpcore import HttpConnection
    from repro.httpcore.delivery import finalize_delivery
    from repro.rdb.sqlparser import parse_sql

    probes = {}
    statements = sorted(sql_seen)
    if statements:
        probes["rdb.parse_us"] = _median_us(
            lambda: [parse_sql(sql) for sql in statements], 30
        ) / len(statements)
    if captured:
        [gzip_request] = HttpConnection().receive_bytes(
            captured["raw"].replace(b"\r\n\r\n",
                                    b"\r\nAccept-Encoding: gzip\r\n\r\n"))
        template = captured["response"]

        def deliver():
            response = copy.copy(template)
            response.headers = {k: v for k, v in template.headers.items()
                                if k not in ("Content-Encoding", "Vary")}
            response.encoded_body = None
            finalize_delivery(gzip_request, response)

        probes["httpcore.gzip_us"] = _median_us(deliver, 200)
        target, payload = captured["target"], captured["payload"]
        parser = ResponseParser()
        probes["loadgen.client_us_per_req"] = _median_us(
            lambda: (encode_request(target, {}, "repro_session=s1"),
                     parser.feed(payload)), 500)
    return probes
