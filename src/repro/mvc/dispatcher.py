"""The front controller (the servlet of Figure 3), as an explicit pipeline.

Receives :class:`HttpRequest` objects, resolves the session, routes
through the Controller's action mappings, runs the action, and either
renders the resulting Model state through the pluggable view renderer or
emits a redirect.  Site views flagged ``requires_login`` are enforced
here, before any action runs.

The request lifecycle is an explicit pipeline of named stages
(:data:`FrontController.PIPELINE`), each a pure step over a shared
:class:`PipelineState`:

1. **route** — reserved paths, home redirects, action-mapping
   resolution, session binding;
2. **protect** — site-view login enforcement, before any action runs;
3. **execute** — page-cache consult / action execution / rendering;
4. **deliver** — conditional HTTP and compression (the shared
   :mod:`repro.httpcore.delivery` policy).

A stage that produces a response short-circuits the rest of the chain
(deliver always runs).  The same stages back three entry points:

- :meth:`handle` — the full request path every server uses;
- :meth:`probe_cached` — the *edge fast path*: answer a GET page
  purely from the page cache (stored 200 or 304), without actions or
  rendering — cheap enough for an event loop to serve inline;
- :meth:`handle_streaming` — the chunked path: the response head and
  the compiled template's static prefix leave before the unit
  services run (see :class:`~repro.httpcore.delivery.StreamedPage`).

Delivery invariants this tier maintains:

- every 200 HTML GET leaves with an ``ETag`` over the *identity* body,
  whether it came from the page cache (validator precomputed at store
  time) or a fresh render (digested in the deliver stage) — so a 304
  is always safe to serve against a matching ``If-None-Match``;
- a page-cache hit and a fresh render of the same model state produce
  byte-identical bodies, hence identical validators — and the edge
  fast path reuses the exact entry/response construction of the full
  path, so inline and worker-served bytes cannot diverge;
- operation requests (POSTs) never touch the page cache and are never
  made conditional — their redirects always reach the action tier;
- observability is read-only: the request trace and the ``/_status``
  page observe the pipeline without changing any response byte (the
  ``X-Trace`` summary header is added only when the client asked for
  it with an ``X-Trace`` request header).

``/_status`` is a reserved path serving the observability snapshot
(plain text, or JSON with ``?format=json``).
"""

from __future__ import annotations

import time
from collections import defaultdict
from collections.abc import Callable
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
    response: HttpResponse | None = None


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
        #: the short-circuiting stages; deliver is applied by _serve
        self._stages = (self._stage_route, self._stage_protect,
                        self._stage_execute)
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
        """Serve one request; unexpected failures become 500 responses
        (a servlet container never lets an exception escape to the
        socket).

        The instrumentation here is written for its *unsampled* common
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
        """
        if request.path == self.STATUS_PATH:
            return self._status_response(request)
        obs = self._obs
        if not obs.enabled:
            return self._serve(request)
        if obs.tracing_enabled:
            forced = "X-Trace" in request.headers
            countdown = self._trace_countdown - 1
            self._trace_countdown = countdown
            if forced or countdown < 0:
                return self._serve_traced(request, obs, forced, countdown)
        response = self._serve(request)
        self.status_counts[response.status] += 1
        return response

    def _serve_traced(self, request: HttpRequest, obs, forced: bool,
                      countdown: int) -> HttpResponse:
        """The sampled (or ``X-Trace``-forced) request path: open the
        span tree, time the request into the latency histogram, and
        hand the finished trace to the response."""
        if countdown < 0:
            self._trace_countdown = obs.trace_every - 1
        started = time.perf_counter()
        with trace(f"{request.method} {request.path}") as req_trace:
            response = self._serve(request)
        self._latency_histogram.record(time.perf_counter() - started)
        self.status_counts[response.status] += 1
        response.trace = req_trace
        if forced:
            response.headers["X-Trace"] = req_trace.summary()
        return response

    def _serve(self, request: HttpRequest) -> HttpResponse:
        """Run the pipeline: short-circuiting stages, then deliver."""
        state = PipelineState(request)
        try:
            for stage in self._stages:
                stage(state)
                if state.response is not None:
                    break
        except ReproError as exc:
            return HttpResponse(
                status=500,
                body=f"Internal error: {exc}",
                content_type="text/plain",
            )
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

        # "/" or "/<siteview>" land on the site view's home page.
        if request.path == "/" or (
            not self.controller.has_path(request.path)
            and request.path.count("/") == 1
        ):
            state.response = self._home_redirect(request)
            return

        try:
            state.mapping = self.controller.resolve(request.path)
        except ControllerError:
            state.response = HttpResponse.not_found(request.path)

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
        request = state.request
        session = state.session
        if mapping.action_type == "PageAction":
            if self.page_cache is not None and request.method == "GET":
                state.response = self._respond_from_page_cache(
                    mapping, request, session
                )
                return
            with span("mvc.action", tier="mvc", action="page",
                      page=mapping.page_id):
                outcome = self.page_action.perform(mapping, request, session)
        elif mapping.action_type == "OperationAction":
            with span("mvc.action", tier="mvc", action="operation",
                      operation=mapping.operation_id):
                outcome = self.operation_action.perform(
                    mapping, request, session
                )
        else:
            raise ControllerError(f"unknown action type {mapping.action_type!r}")
        state.response = self._respond(outcome, request, session)

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

    def _respond_from_page_cache(self, mapping, request: HttpRequest,
                                 session) -> HttpResponse:
        """Serve a GET page from the whole-response cache.

        A miss single-flights the full action + view path and stores
        the response with the union of the page's unit dependency
        sets, so operation writes invalidate exactly the dependent
        pages.
        """
        key = self._page_key(mapping, request, session)

        built_fresh = False

        def build():
            nonlocal built_fresh
            built_fresh = True
            with span("mvc.action", tier="mvc", action="page",
                      page=mapping.page_id):
                outcome = self.page_action.perform(mapping, request, session)
            with span("mvc.render", tier="mvc", page=mapping.page_id):
                body = self.view_renderer(
                    outcome.page_result, request, self.controller
                )
            entities, roles = self._page_dependencies(mapping.page_id)
            return self.page_cache.make_entry(body, entities, roles)

        # probe span only when a trace is live: a cache hit is the p50
        # case and must not pay span construction for nobody to read
        if current_span_var.get() is None:
            entry = self.page_cache.get_or_build(key, build)
        else:
            with span("cache.page", tier="cache", level="page",
                      page=mapping.page_id) as probe:
                entry = self.page_cache.get_or_build(key, build)
                probe.tags["hit"] = not built_fresh
        return entry_response(entry, request, self._cache_control(session))

    # -- the edge fast path ---------------------------------------------------

    def _resolve_page_get(self, request: HttpRequest):
        """What the edge paths (:meth:`probe_cached`,
        :meth:`handle_streaming`) may answer without the pipeline: a
        GET of a mapped page the session may see.  Binds the session
        and returns ``(mapping, session, page-cache key)`` — the key is
        ``None`` without a page cache — or ``None`` for everything the
        full :meth:`handle` path must produce (404, redirect, 403,
        operation, ``/_status``)."""
        if request.method != "GET" or request.path == self.STATUS_PATH:
            return None
        mapping = self.controller.mappings.get(request.path)
        if mapping is None or mapping.action_type != "PageAction":
            return None
        session = self.sessions.get_or_create(request.session_id)
        request.session_id = session.id
        home = self.controller.homes.get(mapping.site_view_id)
        if (home is not None and home.requires_login
                and not session.is_authenticated and not mapping.public):
            return None
        key = None
        if self.page_cache is not None:
            key = self._page_key(mapping, request, session)
        return mapping, session, key

    def probe_cached(self, request: HttpRequest) -> HttpResponse | None:
        """Answer a GET page request purely from the page cache, or
        return ``None``.

        This is the async edge's inline path: a stored entry becomes a
        200 (precomputed gzip) or a 304 without running any action,
        render, or digest — bounded, lock-cheap work an event loop can
        afford.  Anything requiring computation (cache miss, redirect,
        protection failure, operation, ``/_status``) returns ``None``
        and takes the full :meth:`handle` path on a worker.  Served
        responses are counted exactly like :meth:`handle`'s
        (``requests_served`` + per-status counts); tracing never
        samples inline hits — the traced path is the one that does
        work.
        """
        if self.page_cache is None:
            return None
        resolved = self._resolve_page_get(request)
        if resolved is None:
            return None
        _mapping, session, key = resolved
        entry = self.page_cache.peek(key)
        if entry is None:
            return None
        self.requests_served += 1
        response = entry_response(entry, request, self._cache_control(session))
        self.status_counts[response.status] += 1
        return response

    # -- the streaming path ---------------------------------------------------

    def handle_streaming(self, request: HttpRequest) -> StreamedPage | None:
        """Serve a GET page as a chunk stream, or return ``None``.

        The stream's head (status + headers) is available immediately;
        the compiled template's leading static markup streams before
        the page action runs, and each dynamic slot follows as it
        renders (fragment-cache hits splice instantly).  Requirements:
        a view renderer exposing ``stream_chunks`` (the presentation
        tier's compiled templates) and a page-cache *miss* — hits and
        everything non-streamable return ``None`` so the caller falls
        back to :meth:`probe_cached`/:meth:`handle`.

        Cache integration mirrors the buffered path: the stream holds
        the page's single-flight slot while rendering (concurrent
        misses wait, then reuse the stored entry) and the finished
        body is stored unless an invalidation raced the build
        (generation guard).  Closing the iterator early — a client
        disconnect — releases the slot without storing.  A streamed
        response carries no ``ETag``: a validator needs the complete
        body, which revisits get from the stored entry.
        """
        stream_chunks = getattr(self.view_renderer, "stream_chunks", None)
        if stream_chunks is None:
            return None
        resolved = self._resolve_page_get(request)
        if resolved is None:
            return None
        mapping, session, key = resolved

        generation = None
        if key is not None:
            if self.page_cache.peek(key) is not None:
                return None  # a stored entry serves faster than a stream
            if not self.page_cache.begin_flight(key):
                return None  # another request is building: wait via handle()
            generation = self.page_cache.generation

        def page_result_factory():
            with span("mvc.action", tier="mvc", action="page",
                      page=mapping.page_id):
                return self.page_action.perform(
                    mapping, request, session
                ).page_result

        try:
            raw_chunks = stream_chunks(
                mapping.page_id, request, self.controller,
                page_result_factory,
            )
        except ReproError:
            if key is not None:
                self.page_cache.finish_flight(key)
            return None  # no template for the page: the full path 500s

        def chunks():
            produced: list[str] = []
            completed = False
            try:
                for chunk in raw_chunks:
                    produced.append(chunk)
                    yield chunk
                completed = True
            finally:
                if key is not None:
                    try:
                        if completed:
                            entities, roles = self._page_dependencies(
                                mapping.page_id
                            )
                            entry = self.page_cache.make_entry(
                                "".join(produced), entities, roles
                            )
                            self.page_cache.put_if_current(
                                key, entry, generation
                            )
                    finally:
                        self.page_cache.finish_flight(key)

        self.requests_served += 1
        self.status_counts[200] += 1
        response = HttpResponse(
            status=200, body="",
            headers={"Cache-Control": self._cache_control(session)},
        )
        return StreamedPage(response=response, chunks=chunks())

    def _page_dependencies(self, page_id: str) -> tuple[set, set]:
        """The union of the §6 dependency sets of the page's units."""
        descriptor = self.ctx.registry.page(page_id)
        entities: set = set()
        roles: set = set()
        for unit_id in descriptor.unit_order:
            unit = self.ctx.registry.unit(unit_id)
            entities.update(unit.depends_on_entities)
            roles.update(unit.depends_on_roles)
        return entities, roles

    def _cache_control(self, session) -> str:
        ttl = self.page_cache.ttl_seconds if self.page_cache is not None else None
        return cache_control_for(session.is_authenticated, ttl)

    def _respond(self, outcome: ActionOutcome, request: HttpRequest,
                 session) -> HttpResponse:
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
