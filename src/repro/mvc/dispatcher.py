"""The front controller (the servlet of Figure 3), as an explicit pipeline.

Receives :class:`HttpRequest` objects, resolves the session, routes
through the Controller's action mappings, runs the action, and either
renders the resulting Model state through the pluggable view renderer or
emits a redirect.  Site views flagged ``requires_login`` are enforced
here, before any action runs.

The request lifecycle is an explicit pipeline of named stages
(:data:`FrontController.PIPELINE`), each a step over a shared
:class:`PipelineState`:

1. **route** — session binding, home redirects, action-mapping
   resolution and, for a GET page behind a page cache, the cache key;
2. **protect** — site-view login enforcement, before any action runs;
3. **execute** — page-cache consult / action execution / rendering;
4. **deliver** — conditional HTTP and compression (the shared
   :mod:`repro.httpcore.delivery` policy).

A stage that produces a response short-circuits the rest of the chain
(deliver always runs).  The pipeline has one implementation and two
halves, so that an edge may run them on different threads:

- :meth:`FrontController.begin` — route + protect, cheap and bounded:
  the async edge runs it on its event loop, with ``peek=True`` adding
  the one page-cache look that lets a stored page (200 or 304) be
  answered right there, without actions, rendering or a thread;
- :meth:`FrontController.complete` — execute + deliver *from that
  state*, under the one observation wrapper (sampling draw, span tree,
  ``http.request_seconds``, per-status count).  With ``stream=True`` a
  page-cache miss whose renderer can stream comes back as a
  :class:`~repro.httpcore.delivery.StreamedPage`: head and the compiled
  template's static prefix leave before the unit services run.

:meth:`FrontController.handle` is the two run back to back — the full
request path every synchronous caller uses.

Delivery invariants this tier maintains:

- every *buffered* 200 HTML GET leaves with an ``ETag`` over the
  *identity* body, whether it came from the page cache (validator
  precomputed at store time) or a fresh render (digested in the deliver
  stage) — so a 304 is always safe to serve against a matching
  ``If-None-Match``;
- a page-cache hit and a fresh render of the same model state produce
  byte-identical bodies, hence identical validators — and the loop-side
  peek builds its response with the same
  :func:`~repro.httpcore.delivery.entry_response` a worker-served hit
  uses, so inline and worker-served bytes cannot diverge;
- a *streamed* miss is the exception, by design: its body does not
  exist when the head leaves, so it carries no ``ETag``, is never
  gzip-negotiated and answers 200 even to a matching ``If-None-Match``
  (the revisit gets validator, encoding and 304 from the stored entry);
  its chunks join to the bytes the buffered path would have sent;
- operation requests (POSTs) never touch the page cache and are never
  made conditional — their redirects always reach the action tier;
- observability is read-only: the request trace and the ``/_status``
  page observe the pipeline without changing any response byte (the
  ``X-Trace`` summary header is added only when the client asked for
  it with an ``X-Trace`` request header — such a request is always
  answered buffered and off the loop, since the summary needs the
  finished trace).

``/_status`` is a reserved path serving the observability snapshot
(plain text, or JSON with ``?format=json``); it is answered outside the
stages and never observes itself.
"""

from __future__ import annotations

import time
from collections import defaultdict
from collections.abc import Callable
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

from repro.caching.page_cache import canonical_params
from repro.errors import ControllerError, ReproError
from repro.httpcore.delivery import (
    GZIP_MIN_BYTES,
    StreamedPage,
    cache_control_for,
    entry_response,
    finalize_delivery,
)
from repro.mvc.actions import ActionOutcome, OperationAction, PageAction
from repro.mvc.controller import ActionMapping, Controller
from repro.mvc.http import (
    HttpRequest,
    HttpResponse,
    SessionStore,
    build_url,
)
from repro.obs import (
    build_status,
    render_status_json,
    render_status_text,
    span,
    trace,
)
from repro.obs.trace import current_span_var
from repro.services import PageResult, RuntimeContext

#: view renderer signature: (page_result, request, controller) -> html
ViewRenderer = Callable[[PageResult, HttpRequest, Controller], str]


def plain_view_renderer(page_result: PageResult, request: HttpRequest,
                        controller: Controller) -> str:
    """A minimal fallback View (tests/benchmarks that skip presentation)."""
    lines = [f"<html><body><h1>{page_result.name}</h1>"]
    for bean in page_result.beans.values():
        lines.append(f"<div class='unit' id='{bean.unit_id}'>{bean.name}: "
                     f"{bean.row_count()} row(s)</div>")
    lines.append("</body></html>")
    return "".join(lines)


@dataclass
class PipelineState:
    """What the pipeline stages accumulate for one request."""

    request: HttpRequest
    session: object | None = None
    mapping: ActionMapping | None = None
    #: set by route for a GET page behind a page cache, else ``None``
    page_key: tuple | None = None
    response: HttpResponse | None = None


def _internal_error(exc: ReproError) -> HttpResponse:
    """A servlet container never lets an exception escape to the socket."""
    return HttpResponse(status=500, body=f"Internal error: {exc}",
                        content_type="text/plain")


class FrontController:
    """The servlet: one instance serves every request of an application."""

    #: bodies below this size are not worth a gzip round-trip
    #: (the shared policy constant, re-exported for callers)
    GZIP_MIN_BYTES = GZIP_MIN_BYTES

    #: the stage names of the request pipeline, in execution order
    PIPELINE = ("route", "protect", "execute", "deliver")

    def __init__(
        self,
        controller: Controller,
        ctx: RuntimeContext,
        view_renderer: ViewRenderer | None = None,
        page_cache=None,
        device_classifier: Callable[[str], str] | None = None,
    ):
        self.controller = controller
        self.ctx = ctx
        self.sessions = SessionStore()
        self.view_renderer = view_renderer or plain_view_renderer
        self.page_cache = page_cache
        self.device_classifier = device_classifier or (lambda user_agent: "html")
        self.page_action = PageAction(ctx)
        self.operation_action = OperationAction(ctx)
        self.requests_served = 0
        # metric objects resolved once — the per-request path must not
        # pay registry dictionary lookups (E16 holds it under 5%).
        # Per-status counts live in a plain dict bumped inline (one
        # C-level increment); /_status folds them into the counters
        # section at snapshot time.
        self._obs = ctx.obs
        self._latency_histogram = ctx.obs.metrics.histogram(
            "http.request_seconds"
        )
        self.status_counts: dict[int, int] = defaultdict(int)
        self._trace_countdown = 0

    #: the observability snapshot lives here, outside every site view
    STATUS_PATH = "/_status"

    def handle(self, request: HttpRequest) -> HttpResponse:
        """Serve one request: the whole pipeline, back to back.
        Unexpected failures become 500 responses."""
        return self.complete(self.begin(request))

    def begin(self, request: HttpRequest,
              peek: bool = False) -> "PipelineState | HttpResponse":
        """Stages 1–2: bounded, lock-cheap work an event loop can run.

        Returns the :class:`PipelineState` for :meth:`complete` to
        continue from — a redirect, 404 or 403 decided here rides it as
        ``state.response`` and is delivered and observed there like any
        other request.

        With ``peek`` a GET page the page cache holds is answered on the
        spot: the stored 200 (precomputed gzip) or a 304, no action,
        render or digest — the async edge's inline path.  Such a
        response is final and already counted; tracing never samples it
        (the traced path is the one that does work), which is also why
        an ``X-Trace`` request skips the peek.
        """
        state = PipelineState(request)
        if request.path == self.STATUS_PATH:
            return state
        try:
            self._stage_route(state)
            if state.response is None:
                self._stage_protect(state)
        except ReproError as exc:
            state.response = _internal_error(exc)
        if (peek and state.page_key is not None and state.response is None
                and "X-Trace" not in request.headers):
            entry = self.page_cache.peek(state.page_key)
            if entry is not None:
                response = entry_response(
                    entry, request, self._cache_control(state.session)
                )
                if self._obs.enabled:
                    self.status_counts[response.status] += 1
                return response
        return state

    def complete(self, state: PipelineState,
                 stream: bool = False) -> "HttpResponse | StreamedPage":
        """Stages 3–4, from the state :meth:`begin` returned, under the
        one observation wrapper.

        The instrumentation is written for its *unsampled* common
        case: with observability on but this request losing the
        sampling draw, the added work is one plain dict increment and
        a handful of attribute reads — that is the budget E16 holds
        under 5% of a page-cache-hit p50.  The span tree *and* the
        request-latency timestamps ride the same sampling draw
        (``Observability.trace_every``, or an ``X-Trace`` request
        header): percentiles estimated from one request in thirty-two
        are as good as percentiles from all of them, and a histogram
        fed by the sample keeps ``time.perf_counter`` itself off the
        common path.  Sampling is a countdown held by this controller
        (no method call, no modulo), and the request *total* is never
        counted — ``/_status`` derives it as the sum of the per-status
        counts.

        ``stream`` is the edge asking for a chunk stream where one is
        possible (:meth:`_execute_streamed`); the draw made here then
        travels into the chunk generator, which observes the build from
        the thread that runs it.
        """
        request = state.request
        if request.path == self.STATUS_PATH:
            return self._status_response(request)
        obs = self._obs
        sampled = forced = False
        if obs.enabled and obs.tracing_enabled:
            sampled = forced = "X-Trace" in request.headers
            countdown = self._trace_countdown - 1
            if countdown < 0:
                sampled = True
                countdown = obs.trace_every - 1
            self._trace_countdown = countdown
        # the X-Trace summary header needs the finished trace, and a
        # stream's head leaves first: a forced trace is served buffered
        if stream and not forced and state.response is None:
            streamed = self._execute_streamed(state, sampled)
            if streamed is not None:
                return streamed
        if sampled:
            with self._sampled(request) as req_trace:
                response = self._finish(state)
            response.trace = req_trace
            if forced:
                response.headers["X-Trace"] = req_trace.summary()
        else:
            response = self._finish(state)
        if obs.enabled:
            self.status_counts[response.status] += 1
        return response

    @contextmanager
    def _sampled(self, request: HttpRequest):
        """What a request that won the sampling draw adds: the span
        tree, and its latency in ``http.request_seconds``."""
        started = time.perf_counter()
        try:
            with trace(f"{request.method} {request.path}") as req_trace:
                yield req_trace
        finally:
            self._latency_histogram.record(time.perf_counter() - started)

    def _finish(self, state: PipelineState) -> HttpResponse:
        """Execute (unless an earlier stage already answered), deliver."""
        if state.response is None:
            try:
                self._stage_execute(state)
            except ReproError as exc:
                state.response = _internal_error(exc)
        return self._stage_deliver(state)

    def _status_response(self, request: HttpRequest) -> HttpResponse:
        """The built-in observability page: what the application knows
        about itself, in greppable text or machine-readable JSON."""
        status = build_status(self)
        wants_json = (
            request.params.get("format") == "json"
            or "application/json" in request.headers.get("Accept", "")
        )
        if wants_json:
            return HttpResponse(
                status=200, body=render_status_json(status),
                content_type="application/json",
            )
        return HttpResponse(
            status=200, body=render_status_text(status),
            content_type="text/plain",
        )

    # -- stage: route ---------------------------------------------------------

    def _stage_route(self, state: PipelineState) -> None:
        """Bind the session and resolve the path to an action mapping."""
        request = state.request
        self.requests_served += 1
        session = self.sessions.get_or_create(request.session_id)
        request.session_id = session.id
        state.session = session

        mapping = self.controller.mappings.get(request.path)
        if mapping is None:
            # "/" or "/<siteview>" land on the site view's home page
            if request.path.count("/") == 1:
                state.response = self._home_redirect(request)
            else:
                state.response = HttpResponse.not_found(request.path)
            return
        state.mapping = mapping
        if (self.page_cache is not None and request.method == "GET"
                and mapping.action_type == "PageAction"):
            state.page_key = self._page_key(mapping, request, session)

    # -- stage: protect -------------------------------------------------------

    def _stage_protect(self, state: PipelineState) -> None:
        """Enforce site-view protection before any action runs."""
        mapping = state.mapping
        session = state.session
        home = self.controller.homes.get(mapping.site_view_id)
        if home is not None and home.requires_login and not session.is_authenticated:
            if not mapping.public and not self._is_login_operation(mapping):
                state.response = HttpResponse.forbidden(
                    f"site view {mapping.site_view_id} requires login"
                )

    # -- stage: execute -------------------------------------------------------

    def _stage_execute(self, state: PipelineState) -> None:
        """Run the mapped action (through the page cache for GET pages)."""
        mapping = state.mapping
        if state.page_key is not None:
            state.response = self._respond_from_page_cache(state)
            return
        if mapping.action_type == "PageAction":
            outcome = self._perform_page(state)
        elif mapping.action_type == "OperationAction":
            with span("mvc.action", tier="mvc", action="operation",
                      operation=mapping.operation_id):
                outcome = self.operation_action.perform(
                    mapping, state.request, state.session
                )
        else:
            raise ControllerError(f"unknown action type {mapping.action_type!r}")
        state.response = self._respond(outcome, state.request)

    def _perform_page(self, state: PipelineState) -> ActionOutcome:
        mapping = state.mapping
        with span("mvc.action", tier="mvc", action="page",
                  page=mapping.page_id):
            return self.page_action.perform(
                mapping, state.request, state.session
            )

    # -- stage: deliver -------------------------------------------------------

    def _stage_deliver(self, state: PipelineState) -> HttpResponse:
        """Conditional and compressed delivery for every 200 HTML GET
        (the shared edge policy — see :mod:`repro.httpcore.delivery`)."""
        return finalize_delivery(state.request, state.response)

    def _is_login_operation(self, mapping) -> bool:
        if mapping.action_type != "OperationAction":
            return False
        descriptor = self.ctx.registry.operation(mapping.operation_id)
        return descriptor.kind == "login"

    def _home_redirect(self, request: HttpRequest) -> HttpResponse:
        if request.path == "/":
            if not self.controller.homes:
                return HttpResponse.not_found("no site views configured")
            site_view_id = next(iter(self.controller.homes))
        else:
            site_view_id = request.path.strip("/")
        try:
            home = self.controller.home_for(site_view_id)
        except ControllerError:
            return HttpResponse.not_found(request.path)
        return HttpResponse.redirect(
            self.controller.page_path(site_view_id, home.page_id)
        )

    # -- level-0 page cache ---------------------------------------------------

    def _page_key(self, mapping: ActionMapping, request: HttpRequest,
                  session) -> tuple:
        """The page-cache key: everything that may legally change the
        bytes — the page, the canonicalized parameters, the device
        class the presentation tier would select, and the
        authenticated principal."""
        return (
            mapping.page_id,
            canonical_params(request.params),
            self.device_classifier(request.user_agent),
            f"user:{session.user_oid}" if session.is_authenticated else "anon",
        )

    def _respond_from_page_cache(self, state: PipelineState) -> HttpResponse:
        """Serve a GET page from the whole-response cache.

        A miss single-flights the full action + view path and stores
        the response with the union of the page's unit dependency
        sets, so operation writes invalidate exactly the dependent
        pages.
        """
        page_id = state.mapping.page_id
        request = state.request
        built_fresh = False

        def build():
            nonlocal built_fresh
            built_fresh = True
            outcome = self._perform_page(state)
            with span("mvc.render", tier="mvc", page=page_id):
                body = self.view_renderer(
                    outcome.page_result, request, self.controller
                )
            return self._page_entry(page_id, body)

        # probe span only when a trace is live: a cache hit is the p50
        # case and must not pay span construction for nobody to read
        if current_span_var.get() is None:
            entry = self.page_cache.get_or_build(state.page_key, build)
        else:
            with span("cache.page", tier="cache", level="page",
                      page=page_id) as probe:
                entry = self.page_cache.get_or_build(state.page_key, build)
                probe.tags["hit"] = not built_fresh
        return entry_response(entry, request,
                              self._cache_control(state.session))

    def _execute_streamed(self, state: PipelineState,
                          sampled: bool) -> StreamedPage | None:
        """Execute + deliver a GET page as a chunk stream, or return
        ``None`` for the buffered path to take.

        The stream's head (status + headers) is available immediately;
        the compiled template's leading static markup streams before
        the page action runs, and each dynamic slot follows as it
        renders (fragment-cache hits splice instantly).  Requirements:
        a view renderer exposing ``stream_chunks`` (the presentation
        tier's compiled templates) and, with a page cache, winning the
        page's single-flight slot — a concurrent build means waiting
        for its entry is faster than rendering again.  The loop's peek
        was this request's only lookup: an entry stored since then
        costs one redundant render, never a stale byte.

        Cache integration mirrors the buffered path: the stream holds
        the slot while rendering (concurrent misses wait, then reuse
        the stored entry) and the finished body is stored unless an
        invalidation raced the build (generation guard).  Closing the
        iterator early — a client disconnect — releases the slot
        without storing.

        The chunk generator is where a streamed request is observed:
        whichever thread runs its ``next()`` calls opens the trace (if
        ``sampled``), and its ``finally`` closes it, records the
        latency and counts the status the client actually got — the
        200 the head promised, or a 500 when the build raised and the
        body was cut short.
        """
        stream_chunks = getattr(self.view_renderer, "stream_chunks", None)
        mapping = state.mapping
        request = state.request
        if (stream_chunks is None or request.method != "GET"
                or mapping.action_type != "PageAction"):
            return None
        try:
            raw_chunks = stream_chunks(
                mapping.page_id, request, self.controller,
                lambda: self._perform_page(state).page_result,
            )
        except ReproError:
            return None  # no template for the page: the buffered path 500s
        key = state.page_key
        cache = self.page_cache
        if key is not None:
            if not cache.begin_flight(key):
                return None  # another request is building: wait for it
            generation = cache.generation
        head = HttpResponse(
            status=200, body="",
            headers={"Cache-Control": self._cache_control(state.session)},
        )

        def chunks():
            produced: list[str] = []
            status = 200  # a reader that hangs up was still promised it
            try:
                with (self._sampled(request) if sampled
                      else nullcontext()) as req_trace:
                    head.trace = req_trace
                    for chunk in raw_chunks:
                        produced.append(chunk)
                        yield chunk
                    if key is not None:
                        cache.put_if_current(
                            key,
                            self._page_entry(mapping.page_id,
                                             "".join(produced)),
                            generation,
                        )
            except Exception:
                status = 500
                raise
            finally:
                if key is not None:
                    cache.finish_flight(key)
                if self._obs.enabled:
                    self.status_counts[status] += 1

        return StreamedPage(response=head, chunks=chunks())

    def _page_entry(self, page_id: str, body: str):
        """A page-cache entry for ``body`` under the union of the §6
        dependency sets of the page's units."""
        descriptor = self.ctx.registry.page(page_id)
        entities: set = set()
        roles: set = set()
        for unit_id in descriptor.unit_order:
            unit = self.ctx.registry.unit(unit_id)
            entities.update(unit.depends_on_entities)
            roles.update(unit.depends_on_roles)
        return self.page_cache.make_entry(body, entities, roles)

    def _cache_control(self, session) -> str:
        ttl = self.page_cache.ttl_seconds if self.page_cache is not None else None
        return cache_control_for(session.is_authenticated, ttl)

    def _respond(self, outcome: ActionOutcome,
                 request: HttpRequest) -> HttpResponse:
        if outcome.kind == "redirect":
            path = self.controller.path_of_page(outcome.redirect_page_id)
            params = {
                k: _to_request_value(v)
                for k, v in outcome.redirect_params.items()
            }
            return HttpResponse.redirect(build_url(path, params))
        with span("mvc.render", tier="mvc"):
            body = self.view_renderer(
                outcome.page_result, request, self.controller
            )
        return HttpResponse(status=200, body=body)


def _to_request_value(value) -> str:
    if isinstance(value, (list, tuple)):
        return ",".join(str(v) for v in value)
    return str(value)
