"""A scripted browser for the in-process application.

Keeps a session across requests, follows redirects (bounded), and
exposes the last response for assertions.  Examples and the traffic
generator drive applications exclusively through this client, so every
experiment exercises the full request path: controller → action →
page/operation service → view.
"""

from __future__ import annotations

import re

from repro.errors import ReproError
from repro.mvc.http import HttpResponse, build_url

MAX_REDIRECTS = 8

_HREF = re.compile(r'href="([^"]+)"')
_FORM = re.compile(r"<form\b[^>]*>.*?</form>", re.DOTALL)
_FORM_ACTION = re.compile(r'action="([^"]*)"')
_INPUT = re.compile(r"<input\b[^>]*>")
_ATTR = re.compile(r'(\w+)="([^"]*)"')


class Browser:
    """One simulated user agent bound to one application.

    ``conditional=True`` turns on a real browser's HTTP cache
    behaviour: responses carrying an ``ETag`` are remembered per URL,
    revisits send ``If-None-Match`` (and ``Accept-Encoding: gzip``),
    and a 304 answer is materialized from the local cache — the
    response keeps status 304 (so callers can count revalidations) but
    ``body`` shows the cached content, the way the user would see it.
    """

    def __init__(self, app, user_agent: str = "Mozilla/5.0 (reproduction)",
                 conditional: bool = False):
        self.app = app
        self.user_agent = user_agent
        self.conditional = conditional
        self.session_id: str | None = None
        self.last_response: HttpResponse | None = None
        self.history: list[str] = []
        self._http_cache: dict[str, tuple[str, str]] = {}  # url → (etag, body)

    def get(self, url: str, follow_redirects: bool = True) -> HttpResponse:
        response = self._request(url)
        redirects = 0
        while follow_redirects and response.is_redirect:
            redirects += 1
            if redirects > MAX_REDIRECTS:
                raise ReproError(f"redirect loop starting from {url!r}")
            response = self._request(response.location)
        self.last_response = response
        return response

    def _request(self, url: str) -> HttpResponse:
        from repro.mvc.http import HttpRequest

        headers = {"User-Agent": self.user_agent}
        if self.conditional:
            headers["Accept-Encoding"] = "gzip"
            cached = self._http_cache.get(url)
            if cached is not None:
                headers["If-None-Match"] = cached[0]
        request = HttpRequest.from_url(
            url,
            headers=headers,
            session_id=self.session_id,
        )
        response = self.app.handle(request)
        self.session_id = request.session_id
        self.history.append(url)
        if self.conditional:
            if response.status == 304:
                cached = self._http_cache.get(url)
                if cached is not None:
                    response.body = cached[1]
            elif response.status == 200 and response.etag:
                self._http_cache[url] = (response.etag, response.body)
        return response

    # -- page interaction helpers -------------------------------------------------

    def links(self) -> list[str]:
        """All hrefs in the last response body."""
        if self.last_response is None:
            return []
        return _HREF.findall(self.last_response.body)

    def click(self, href_fragment: str) -> HttpResponse:
        """Follow the first link whose URL contains ``href_fragment``."""
        for href in self.links():
            if href_fragment in href:
                return self.get(href.replace("&amp;", "&"))
        raise ReproError(
            f"no link containing {href_fragment!r} on the current page"
        )

    def back(self) -> HttpResponse:
        """Re-request the previous page in this session's history."""
        if len(self.history) < 2:
            raise ReproError("no earlier page in the history")
        # drop the current entry and re-request the one before it
        self.history.pop()
        previous = self.history.pop()
        return self.get(previous)

    def forms(self) -> list[dict]:
        """The forms on the current page: action + named fields with
        their current values."""
        found = []
        for form_html in _FORM.findall(self.body):
            action_match = _FORM_ACTION.search(form_html)
            fields: dict = {}
            for input_html in _INPUT.findall(form_html):
                attrs = dict(_ATTR.findall(input_html))
                name = attrs.get("name")
                if name:
                    fields[name] = attrs.get("value", "")
            found.append({
                "action": action_match.group(1) if action_match else "",
                "fields": fields,
            })
        return found

    def submit(self, values: dict) -> HttpResponse:
        """Fill and submit the current page's first form (GET, like the
        markup).

        ``values`` are keyed by the *visible* trailing field name (e.g.
        ``"keyword"`` matches the parameter ``unit7.keyword``); pass the
        full parameter name to disambiguate.
        """
        forms = self.forms()
        if not forms:
            raise ReproError("no form on the current page")
        form = forms[0]
        params = dict(form["fields"])
        for key, value in values.items():
            target = key if key in params else next(
                (name for name in params
                 if name.endswith(f".{key}") or name == key), None
            )
            if target is None:
                raise ReproError(f"form has no field matching {key!r}")
            params[target] = value
        return self.get(build_url(form["action"], params))

    @property
    def body(self) -> str:
        return self.last_response.body if self.last_response else ""

    @property
    def status(self) -> int:
        return self.last_response.status if self.last_response else 0
