#!/usr/bin/env python
"""Dependency-key digests: what every unit bean and page entry holds.

Computes every page of the ACM, bookstore and Acer applications at the
parameter sets :mod:`page_digests` renders them with, stores each unit
bean in a bean-cache level and the page in a page-cache level (through
the front controller's own page-entry builder), and prints the
dependency keys each stored entry is indexed under (DESIGN §12): a
sorted list of ``[name, value]``, ``"*"`` as the value of a name held
whole.  The keys are read back from the store, so the digest records
what invalidation will see, in a form blind to how a cache level
groups them.

The committed ``tests/golden/key_digests.json`` was produced by this
script while entries still kept entity keys and role keys apart, so
``--check`` shows that one key space holds the same keys.

Usage::

    python tools/key_digests.py                       # print JSON
    python tools/key_digests.py --check tests/golden/key_digests.json

``--check`` exits 1 naming the first page whose keys differ.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from page_digests import APPLICATIONS, page_requests  # noqa: E402

from repro.app import WebApplication  # noqa: E402
from repro.caching import PageCache, UnitBeanCache  # noqa: E402
from repro.caching.core import ANY  # noqa: E402
from repro.services import GenericPageService  # noqa: E402


def _stored_keys(cache, key) -> list:
    """The dependency keys ``cache`` holds ``key`` under, as sorted
    ``[name, value]`` pairs.  A stored entry is ``(value, *key groups,
    expires_at)``; the groups are chained."""
    held = chain.from_iterable(cache._entries[key][1:-1])
    pairs = {(name, "*" if value is ANY else value) for name, value in held}
    return sorted(([name, value] for name, value in pairs), key=json.dumps)


def key_digests() -> dict:
    """``{application: {page URL: {"page": keys, "units": {unit id:
    keys}}}}``."""
    digests: dict = {}
    for name, build_model, seed in APPLICATIONS:
        page_cache = PageCache()
        app = WebApplication(build_model(), page_cache=page_cache)
        seed(app)
        service = GenericPageService(app.ctx)
        beans = UnitBeanCache()
        pages = digests[name] = {}
        for descriptor, params, url in page_requests(app):
            result = service.compute_page(descriptor, params)
            units = {}
            for unit_id, bean in result.beans.items():
                beans.put(unit_id, bean)
                units[unit_id] = _stored_keys(beans, unit_id)
            page_cache.put(url, app.front._page_entry(result, ""))
            pages[url] = {"page": _stored_keys(page_cache, url),
                          "units": units}
    return digests


def dumps(digests: dict) -> str:
    """The digest file's text: JSON with one page per line, so a diff
    of two digest files names the pages that moved."""
    applications = []
    for name in sorted(digests):
        pages = digests[name]
        lines = ",\n".join(
            f"  {json.dumps(url)}: {json.dumps(pages[url], sort_keys=True)}"
            for url in sorted(pages))
        applications.append(f" {json.dumps(name)}: {{\n{lines}\n }}")
    return "{\n" + ",\n".join(applications) + "\n}\n"


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
    digests = key_digests()
    if args.check is None:
        sys.stdout.write(dumps(digests))
        return 0
    golden = json.loads(Path(args.check).read_text(encoding="utf-8"))
    difference = first_difference(golden, digests)
    if difference is not None:
        print(f"key digests differ: {difference}", file=sys.stderr)
        return 1
    pages = sum(len(pages) for pages in digests.values())
    print(f"key digests: {pages} pages hold the keys in {args.check}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
