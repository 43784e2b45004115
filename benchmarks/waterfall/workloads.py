"""The four workloads: how the application is built for each, and the
seeded request stream the generator sends.

The server sees only the generated requests; everything random here
comes from ``--seed``.  One :class:`Traffic` object drives both the
socket phases (:mod:`loadgen`) and the in-process traced replay
(:mod:`tracing`), so the two see the same requests and apply the same
correctness checks.
"""

from __future__ import annotations

import bisect
import itertools
import random
import re
from dataclasses import dataclass
from urllib.parse import quote

from httpclient import CookieJar, Response

VOLUMES, ISSUES_PER_VOLUME, PAPERS_PER_ISSUE = 200, 4, 8
PAPERS = VOLUMES * ISSUES_PER_VOLUME * PAPERS_PER_ISSUE
#: the Browse papers scroller shows 2 papers per block
SCROLLER_BLOCKS = PAPERS // 2
#: hot pool: the Volumes index, every Volume Page, 40 Paper details —
#: 241 URLs, inside PageCache(max_entries=512)
HOT_POOL_PAPERS = 40
REVALIDATING_SHARE = 0.5
WARMUP_STREAM_REQUESTS = 500


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    rate: float          # open-loop arrivals per second
    caches: bool         # bean + fragment + page cache on
    durable: bool        # Database.open(dir), fsync per commit
    write_share: float   # of the stream's slots, through the admin session
    finite_pool: bool    # warm-up is one pass over the pool
    replay_requests: int  # traced-run length
    #: the generator's own CPU per request (ms; closed loop, open loop) on
    #: the reference host in its undisturbed state.  It only fixes the unit
    #: of the host-slowdown index (see run.py): any constant would do
    generator_cpu_ms: tuple


WORKLOADS = {w.name: w for w in (
    Workload("cold-render",
             "no cache level: every request runs services, rdb and "
             "presentation; 70% Volume Page, 30% Paper details, uniform oids",
             150.0, caches=False, durable=False, write_share=0.0,
             finite_pool=False, replay_requests=2000,
             generator_cpu_ms=(0.133, 0.271)),
    Workload("hot-cached",
             "all caches on, zipf over 241 URLs, half the clients "
             "revalidate: page-cache hits and 304s served on the event loop",
             2000.0, caches=True, durable=False, write_share=0.0,
             finite_pool=True, replay_requests=5000,
             generator_cpu_ms=(0.051, 0.123)),
    Workload("search-scan",
             "caches on but 9600 distinct keys: LIKE scans and ORDER BY "
             "scrollers, every cache level misses, inserts and evicts",
             40.0, caches=True, durable=False, write_share=0.0,
             finite_pool=False, replay_requests=2000,
             generator_cpu_ms=(0.208, 0.393)),
    Workload("mixed-write",
             "durable database, 90% zipf reads and 10% create/delete "
             "writes: caches invalidate and rebuild, WAL fsyncs per commit",
             100.0, caches=True, durable=True, write_share=0.10,
             finite_pool=True, replay_requests=2000,
             generator_cpu_ms=(0.154, 0.272)),
)}


def build_app(workload: Workload, data_dir: str | None = None,
              wrap_renderer=None):
    """Build, deploy and seed the ACM Digital Library for ``workload``.

    The same function serves the server child, the parent's oracle copy
    and the traced replay, which is what "identically built" means.
    ``wrap_renderer`` lets the traced run time the view renderer from
    outside (the seam is the ``view_renderer`` constructor argument).
    """
    from repro.app import WebApplication
    from repro.caching import FragmentCache, PageCache, UnitBeanCache
    from repro.codegen import generate_project
    from repro.presentation import PresentationRenderer
    from repro.presentation.renderer import default_stylesheet
    from repro.rdb import Database
    from repro.workloads.acm import build_acm_model, seed_acm_data

    model = build_acm_model()
    if workload.caches:
        for unit in model.all_units():
            if unit.kind != "entry":
                unit.cacheable = True
    project = generate_project(model)
    stylesheet = default_stylesheet("ACM Digital Library")
    if workload.caches:
        for rule in stylesheet.unit_rules:
            rule.set_attrs["fragment"] = "cache"
    renderer = PresentationRenderer(
        project.skeletons, stylesheet,
        fragment_cache=FragmentCache() if workload.caches else None,
    )
    if wrap_renderer is not None:
        renderer = wrap_renderer(renderer)
    database = None
    if workload.durable:
        if data_dir is None:
            raise ValueError(f"{workload.name} needs a data directory")
        database = Database.open(data_dir, group_commit_window=0.0)
    app = WebApplication(
        model, view_renderer=renderer,
        bean_cache=UnitBeanCache() if workload.caches else None,
        page_cache=PageCache() if workload.caches else None,
        database=database,
    )
    if workload.durable:
        app.enable_commit_invalidation()
    # one transaction: a bulk load is one commit (and one fsync), not 7 400
    app.database.begin()
    oids = seed_acm_data(app, volumes=VOLUMES,
                         issues_per_volume=ISSUES_PER_VOLUME,
                         papers_per_issue=PAPERS_PER_ISSUE)
    app.database.commit()
    return app, oids


class Site:
    """The URLs of the deployed application, taken from its own model
    (unit and page ids are generated, so nothing is hard-coded)."""

    def __init__(self, app, oids: dict):
        view = app.model.find_site_view("public")

        def page(page_name: str, unit_name: str, slot: str) -> str:
            unit = view.find_page(page_name).unit(unit_name)
            return f"{app.page_url('public', page_name)}?{unit.id}.{slot}="

        self.home = app.page_url("public", "Volumes")
        self.volume = page("Volume Page", "Volume data", "oid")
        self.paper = page("Paper details", "Paper data", "oid")
        self.search = page("SearchResults", "Matching papers", "keyword")
        self.browse = page("Browse papers", "Paper scroller", "block")
        self.login = app.operation_url(
            "admin", "Login", {"username": "admin", "password": "secret"})
        self.create = app.operation_url(
            "admin", "CreatePaper", {"pages": 12, "title": ""})
        self.delete = app.operation_url("admin", "DeletePaper", {"oid": ""})
        self.volume_oids = list(oids["volumes"])
        self.paper_oids = list(oids["papers"])
        #: a search hit links to the paper: how a probe learns the new oid
        self.paper_link = re.compile(
            re.escape(self.paper).encode() + rb"(\d+)")


class Req:
    """One request of the stream.  ``marker`` must appear in a 200 body
    (for a probe: must appear iff ``expect``); ``lane`` requests are the
    admin's write chain and never overlap each other."""

    __slots__ = ("kind", "target", "marker", "reval", "expect", "lane",
                 "sent_etag")

    def __init__(self, kind: str, target: str = "", marker: bytes = b"",
                 reval: bool = False, expect: bool = True,
                 lane: bool = False):
        self.kind = kind
        self.target = target
        self.marker = marker
        self.reval = reval
        self.expect = expect
        self.lane = lane
        self.sent_etag: str | None = None

    @property
    def group(self) -> str:
        if self.kind in ("create", "delete"):
            return "write"
        return "probe" if self.kind == "probe" else "read"


class Traffic:
    """The seeded stream of one workload, plus the client-side state a
    browser would hold: last-seen ETags, the admin session, the paper
    the admin created last."""

    def __init__(self, workload: Workload, site: Site, seed: int):
        self.workload = workload
        self.site = site
        self.seed = seed
        self._rng = random.Random(f"{workload.name}/{seed}")
        self.etags: dict[str, str] = {}
        self.admin_jar = CookieJar()
        self._creates_issued = 0
        self._live: tuple | None = None   # (serial, oid) of the created paper
        self._pool: list[Req] = []
        self._zipf_cdf: list[float] = []
        if workload.finite_pool:
            self._build_pool()
        self._slots = self._generate()

    # -- the stream --------------------------------------------------------

    def take(self, count: int) -> list[Req]:
        return list(itertools.islice(self._slots, count))

    def next(self) -> Req:
        return next(self._slots)

    def warmup(self) -> list[Req]:
        """Untimed: one pass over a finite pool (after the admin login
        where the workload writes), else the stream's first requests."""
        if not self.workload.finite_pool:
            return self.take(WARMUP_STREAM_REQUESTS)
        requests = [Req(r.kind, r.target, r.marker) for r in self._pool]
        if self.workload.write_share:
            requests.insert(0, Req("login", self.site.login, lane=True))
        return requests

    def _generate(self):
        name, write_share = self.workload.name, self.workload.write_share
        rng = self._rng
        while True:
            if name == "cold-render":
                yield (self._volume(rng.randrange(VOLUMES))
                       if rng.random() < 0.7
                       else self._paper(rng.randrange(PAPERS)))
            elif name == "search-scan":
                if rng.random() < 0.8:
                    keyword = f"Paper {rng.randrange(PAPERS) + 1}:"
                    yield Req("search", self.site.search + quote(keyword),
                              keyword.encode())
                else:
                    block = rng.randrange(SCROLLER_BLOCKS) + 1
                    yield Req("browse", f"{self.site.browse}{block}",
                              f"block {block}/{SCROLLER_BLOCKS}".encode())
            elif write_share and rng.random() < write_share:
                yield Req("write", lane=True)
            else:
                yield self._pool_read(rng)

    def _volume(self, index: int) -> Req:
        return Req("volume", f"{self.site.volume}{self.site.volume_oids[index]}",
                   f"TODS Volume {27 + index}".encode())

    def _paper(self, index: int) -> Req:
        return Req("paper", f"{self.site.paper}{self.site.paper_oids[index]}",
                   f"Paper {index + 1}:".encode())

    def _build_pool(self) -> None:
        # which URLs are popular is part of the workload, not of the seed:
        # page sizes differ, and a per-seed ranking would move bytes-per-
        # request between seeds by more than any change to the program
        rng = random.Random("hot pool")
        pool = [Req("home", self.site.home, b"All volumes")]
        pool += [self._volume(i) for i in range(VOLUMES)]
        pool += [self._paper(i)
                 for i in rng.sample(range(PAPERS), HOT_POOL_PAPERS)]
        rng.shuffle(pool)
        self._pool = pool
        total = 0.0
        for rank in range(1, len(pool) + 1):
            total += 1.0 / rank  # zipf, s = 1.0
            self._zipf_cdf.append(total)

    def _pool_read(self, rng: random.Random) -> Req:
        rank = bisect.bisect_left(self._zipf_cdf,
                                  rng.random() * self._zipf_cdf[-1])
        base = self._pool[rank]
        return Req(base.kind, base.target, base.marker,
                   reval=rng.random() < REVALIDATING_SHARE)

    # -- client behaviour around one request ---------------------------------

    def prepare(self, req: Req, anon_jar: CookieJar) -> tuple:
        """Resolve ``req`` against client state at send time; returns
        ``(req, headers, jar)``.  A ``write`` slot becomes the next step
        of the admin's chain: create a paper, later delete that paper."""
        if req.kind == "write":
            if self._live is None:
                title = _title(self._creates_issued)
                self._creates_issued += 1
                req = Req("create", self.site.create + quote(title),
                          title.encode(), lane=True)
            else:
                req = Req("delete", f"{self.site.delete}{self._live[1]}",
                          _title(self._live[0]).encode(), lane=True)
        headers = {}
        if req.reval:
            headers["Accept-Encoding"] = "gzip"
            req.sent_etag = self.etags.get(req.target)
            if req.sent_etag:
                headers["If-None-Match"] = req.sent_etag
        admin = req.kind in ("login", "create", "delete")
        return req, headers, (self.admin_jar if admin else anon_jar)

    def verify(self, req: Req, response: Response) -> str | None:
        """``None`` when the response is correct, else the failure's name."""
        if response.decode_error:
            return "decode_error"
        status = response.status
        if req.kind in ("login", "create", "delete"):
            location = response.headers.get("Location", "")
            if status != 302 or "_message" in location:
                return "write_refused"
            return None
        if status == 304:
            if not req.sent_etag \
                    or response.headers.get("ETag") != req.sent_etag:
                return "etag_echo"
            return None
        if status != 200:
            return "wrong_status"
        etag = response.headers.get("ETag")
        if etag:
            self.etags[req.target] = etag
        present = req.marker in response.body
        if req.kind == "probe":
            if present != req.expect:
                return "stale_read" if req.expect else "phantom_read"
        elif not present:
            return "content_marker"
        return None

    def followup(self, req: Req, response: Response) -> Req | None:
        """The request a browser sends next because of this response:
        every write is followed by a read-after-write probe."""
        if req.kind in ("create", "delete"):
            return Req("probe", self.site.search + quote(req.marker.decode()),
                       req.marker, expect=req.kind == "create", lane=True)
        if req.kind == "probe":
            self._live = None
            if req.expect:
                found = self.site.paper_link.search(response.body)
                if found:
                    serial = int(req.marker.split()[2].rstrip(b":"))
                    self._live = (serial, int(found.group(1)))
        return None


def _title(serial: int) -> str:
    """Unique per write, and no title is a LIKE-substring of another."""
    return f"Bench paper {serial}: waterfall"
