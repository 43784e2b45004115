#!/usr/bin/env python
"""Page-body digests: one sha1 per (application, page, parameters).

Renders every page of the ACM, bookstore and Acer applications through
the styled :class:`~repro.presentation.PresentationRenderer` — each with
an empty selection and, when the page has a data unit, a selected
object (the parameter sets of ``TestCompiledTemplateOracle``) — once
without a fragment cache and twice with one (cold, then the warm
splice), and prints the digests as JSON.  All three renders of a page
must agree; a disagreement is reported instead of a digest.

The committed ``tests/golden/page_digests.json`` was produced by this
script at the commit *before* the unit tags became writers, so
``--check`` is an identity test against an independent past, not
against the code under test.

Usage::

    python tools/page_digests.py                       # print JSON
    python tools/page_digests.py --check tests/golden/page_digests.json

``--check`` exits 1 naming the first page whose body differs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.app import WebApplication  # noqa: E402
from repro.caching import FragmentCache  # noqa: E402
from repro.codegen import generate_project  # noqa: E402
from repro.mvc.http import HttpRequest, build_url  # noqa: E402
from repro.presentation import PresentationRenderer  # noqa: E402
from repro.presentation.renderer import default_stylesheet  # noqa: E402
from repro.services import GenericPageService  # noqa: E402
from repro.workloads.acer import build_acer_model, seed_acer_data  # noqa: E402
from repro.workloads.acm import build_acm_model, seed_acm_data  # noqa: E402
from repro.workloads.bookstore import (  # noqa: E402
    build_bookstore_model,
    seed_bookstore,
)

APPLICATIONS = (
    ("acm", build_acm_model, seed_acm_data),
    ("bookstore", build_bookstore_model, seed_bookstore),
    ("acer", build_acer_model, lambda app: seed_acer_data(app, 4)),
)


def _styled_app(build_model, seed, fragment_cache):
    model = build_model()
    project = generate_project(model)
    stylesheet = default_stylesheet("Digest")
    if fragment_cache is not None:
        for rule in stylesheet.unit_rules:
            rule.set_attrs["fragment"] = "cache"
    renderer = PresentationRenderer(
        project.skeletons, stylesheet, fragment_cache=fragment_cache
    )
    app = WebApplication(model, view_renderer=renderer)
    seed(app)
    return app, renderer


def _bodies(build_model, seed, fragment_cache):
    """``page URL → body`` for every page and parameter set."""
    app, renderer = _styled_app(build_model, seed, fragment_cache)
    service = GenericPageService(app.ctx)
    bodies = {}
    for _pass in range(2 if fragment_cache is not None else 1):
        for view in app.model.site_views:
            for page in view.all_pages():
                descriptor = app.registry.page(page.id)
                param_sets = [{}]
                data_units = [u for u in page.units if u.kind == "data"]
                if data_units:
                    param_sets.append({f"{data_units[0].id}.oid": "1"})
                for params in param_sets:
                    url = build_url(app.controller.path_of_page(page.id),
                                    params)
                    body = renderer(
                        service.compute_page(descriptor, params),
                        HttpRequest.from_url(url), app.controller,
                    )
                    if bodies.setdefault(url, body) != body:
                        bodies[url] = None  # warm splice ≠ cold render
    return bodies


def page_digests() -> dict:
    """``{application: {page URL: sha1 | "DIVERGED"}}``."""
    digests: dict = {}
    for name, build_model, seed in APPLICATIONS:
        plain = _bodies(build_model, seed, None)
        cached = _bodies(build_model, seed, FragmentCache())
        digests[name] = {
            url: hashlib.sha1(body.encode()).hexdigest()
            if body is not None and cached.get(url) == body else "DIVERGED"
            for url, body in plain.items()
        }
    return digests


def first_difference(golden: dict, current: dict) -> str | None:
    for name in sorted(set(golden) | set(current)):
        was, now = golden.get(name, {}), current.get(name, {})
        for url in sorted(set(was) | set(now)):
            if was.get(url) != now.get(url):
                return (f"{name} {url}: golden {was.get(url)}, "
                        f"now {now.get(url)}")
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", metavar="GOLDEN",
                        help="compare against a committed digest file")
    args = parser.parse_args(argv)
    digests = page_digests()
    if args.check is None:
        json.dump(digests, sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
        return 0
    golden = json.loads(Path(args.check).read_text(encoding="utf-8"))
    difference = first_difference(golden, digests)
    if difference is not None:
        print(f"page digests differ: {difference}", file=sys.stderr)
        return 1
    pages = sum(len(pages) for pages in digests.values())
    print(f"page digests: {pages} bodies identical to {args.check}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
