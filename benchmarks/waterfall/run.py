"""The request waterfall: one end-to-end serving benchmark with per-layer
attribution.  See README.md in this directory for the metric dictionary.

    python3 benchmarks/waterfall/run.py --seed 2003 --out result.json
    python3 benchmarks/waterfall/run.py --workload hot-cached --seed 7 \\
        --seconds 18 --trace 0

Without ``--workload`` every workload runs, each followed by its traced
run.  With it the last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``) holding the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) — the form ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.normpath(os.path.join(HERE, "..", ".."))
sys.path[:0] = [HERE, os.path.join(REPO, "src")]

import loadgen  # noqa: E402
import tracing  # noqa: E402
from httpclient import Client, WireError  # noqa: E402
from stats import describe, percentile  # noqa: E402
from workloads import WORKLOADS, Site, Traffic, build_app  # noqa: E402

OUT = os.path.join(HERE, "out")
SETUP_SPAWNS = 3
ORACLE_SAMPLE = 50
LATE_P99_LIMIT_MS = 5.0
#: --seconds is split evenly: closed loop, then open loop
DEFAULT_SECONDS = 30
#: each edge-attribution loop lasts this share of --seconds (5 s of 30)
EDGE_SHARE = 1 / 6
REPLAY_BLOCK = 100


def _benchmark_spec() -> dict:
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        return json.load(handle)


# -- the server child ---------------------------------------------------------


class Server:
    """One server child: spawned, awaited until its first 200, stopped."""

    def __init__(self, workload, edge: str, log_path: str):
        self.data_dir = (tempfile.mkdtemp(prefix="db-", dir=OUT)
                         if workload.durable else None)
        # bytecode caching is the interpreter's normal behaviour and is
        # what a deployment has: do not inherit a switch that disables it
        env = {k: v for k, v in os.environ.items()
               if k != "PYTHONDONTWRITEBYTECODE"}
        command = [sys.executable, os.path.join(HERE, "server.py"),
                   workload.name, edge]
        if self.data_dir:
            command.append(self.data_dir)
        self._log = open(log_path, "ab")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._log, env=env,
        )
        try:
            line = self.process.stdout.readline().decode()
            if not line.startswith("LISTENING "):
                raise RuntimeError(
                    f"server child did not start (see {log_path})")
            self.address = ("127.0.0.1", int(line.split()[1]))
            with Client(self.address) as client:
                response = client.request("/")
                if response.status == 302:  # the site root redirects home
                    response = client.request(response.headers["Location"])
                if response.status != 200:
                    raise RuntimeError(
                        f"first page answered {response.status}")
            self.setup_s = time.perf_counter() - started
        except BaseException:
            self.stop()
            raise

    @property
    def pid(self) -> int:
        return self.process.pid

    def cpu_seconds(self) -> float:
        with open(f"/proc/{self.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mib(self) -> float:
        with open(f"/proc/{self.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Close the child's stdin, wait for it, remove its data."""
        try:
            self.process.stdin.close()
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        finally:
            self.process.stdout.close()
            self._log.close()
            if self.data_dir:
                shutil.rmtree(self.data_dir, ignore_errors=True)


def _status(client: Client) -> dict:
    response = client.request("/_status?format=json")
    if response.status != 200:
        raise RuntimeError(f"/_status answered {response.status}")
    return json.loads(response.body)


def _flatten(tree: dict, prefix: str = "") -> dict:
    flat = {}
    for key, value in tree.items():
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{prefix}{key}/"))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            flat[f"{prefix}{key}"] = value
    return flat


def _status_delta(before: dict, after: dict) -> dict:
    """Numeric leaves of ``metrics.external`` (plus ``requests_served``),
    after minus before, keyed ``collector/counter``."""
    old = _flatten(before["metrics"]["external"])
    new = _flatten(after["metrics"]["external"])
    delta = {key: value - old.get(key, 0) for key, value in new.items()}
    delta["requests_served"] = (after["requests_served"]
                                - before["requests_served"])
    return delta


# -- correctness outside the timed phases ---------------------------------------


def _drive(client: Client, traffic: Traffic, requests: list) -> tuple:
    """Send ``requests`` one at a time with the stream's own checks and
    follow-ups (warm-up).  Returns ``(attempted, errors)``."""
    attempted, errors = 0, Counter()
    for req in requests:
        while req is not None:
            req, headers, jar = traffic.prepare(req, client.jar)
            attempted += 1
            try:
                response = client.request(req.target, headers, jar)
            except (OSError, WireError):
                errors["connection_error"] += 1
                break
            error = traffic.verify(req, response)
            if error:
                errors[error] += 1
            req = None if error else traffic.followup(req, response)
    return attempted, errors


def _oracle(client: Client, app, workload, site: Site, seed: int) -> tuple:
    """A seeded sample of the workload's URLs must come back over the
    wire byte-identical to the in-process application's body."""
    sampler = Traffic(workload, site, seed ^ 0x5EED)
    targets = []
    while len(targets) < ORACLE_SAMPLE:
        req = sampler.next()
        if req.kind != "write":
            targets.append(req.target)
    errors = Counter()
    for target in targets:
        try:
            wire = client.request(target)
        except (OSError, WireError):
            errors["connection_error"] += 1
            continue
        local = app.get(target)
        if wire.status != 200 or wire.body != local.body.encode():
            errors["oracle_mismatch"] += 1
    return len(targets), errors


# -- one workload ---------------------------------------------------------------


class Tally:
    """Operations attempted and failed, over every phase of a run."""

    def __init__(self):
        self.attempted = 0
        self.errors: Counter = Counter()

    def add(self, attempted: int, errors) -> None:
        self.attempted += attempted
        self.errors.update(errors)

    def add_phase(self, phase) -> None:
        self.add(phase.attempted, phase.errors)

    @property
    def failed(self) -> int:
        return sum(self.errors.values())


def _tracebacks(log_path: str) -> int:
    with open(log_path, errors="replace") as handle:
        return sum(line.startswith("Traceback (most recent call last)")
                   for line in handle)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _median_of(values, scale: float = 1.0) -> float:
    return statistics.median(values) * scale if values else 0.0


def _windows(workload, closed, opened) -> dict:
    """The per-window series the end-to-end metrics are medians of.

    ``host_slowdown`` is the generator's own CPU per request in a window
    over its reference value: the generator does the same work for every
    request on every commit, so when it pays more CPU for it the host is
    running slower by that factor — for the server too, which shares the
    core (measured: r = 0.9 between the two per window).
    """
    series = {}
    for name, phase, reference in zip(("closed", "open"), (closed, opened),
                                      workload.generator_cpu_ms):
        counts = [len(window) for window in phase.windowed()]
        server_cpu, generator_cpu = (
            [(after[clock] - before[clock]) * 1e3 / count if count else 0.0
             for count, before, after in zip(counts, phase.marks,
                                             phase.marks[1:])]
            for clock in (0, 1))
        series[name] = {
            "responses_per_s": [count / loadgen.WINDOW for count in counts],
            "server_cpu_ms_per_req": server_cpu,
            "generator_cpu_ms_per_req": generator_cpu,
            "host_slowdown": [cost / reference for cost in generator_cpu],
        }
    series["open"]["read_p50_ms"] = [
        statistics.median(window) * 1e3 if window else 0.0
        for window in opened.windowed("read")]
    return series


def _window_median(values: list, slowdown: list, scale_up: bool) -> tuple:
    """``(normalised, raw)`` medians over the windows that saw traffic.
    A rate is multiplied by the window's host slowdown, a time divided."""
    pairs = [(v, s) for v, s in zip(values, slowdown) if v and s]
    if not pairs:
        return 0.0, 0.0
    return (statistics.median(v * s if scale_up else v / s for v, s in pairs),
            statistics.median(v for v, _s in pairs))


def _end_to_end(windows: dict, closed, opened, rss: float) -> tuple:
    """The declared end-to-end metrics measured in the timed phases
    (``setup_s`` joins them in :func:`run_workload`), and the unscaled
    medians behind the three that contain time."""
    closed_w, open_w = windows["closed"], windows["open"]
    throughput, raw_throughput = _window_median(
        closed_w["responses_per_s"], closed_w["host_slowdown"], True)
    cpu, raw_cpu = _window_median(
        closed_w["server_cpu_ms_per_req"], closed_w["host_slowdown"], False)
    # one median over every read, each divided by its own window's
    # slowdown: a median of window medians wastes a third of the sample
    slowdown = dict(enumerate(open_w["host_slowdown"]))
    scaled_reads = [seconds / slowdown[int(when / loadgen.WINDOW)]
                    for when, seconds in opened.samples["read"]
                    if slowdown.get(int(when / loadgen.WINDOW))]
    p50, raw_p50 = (_median_of(scaled_reads, 1e3),
                    _median_of(opened.latencies("read"), 1e3))
    return {
        "throughput_rps": throughput,
        "cpu_ms_per_req": cpu,
        "p50_ms": p50,
        "wire_bytes_per_req": _ratio(closed.wire_bytes + opened.wire_bytes,
                                     closed.responses + opened.responses),
        "server_rss_mb": rss,
    }, {
        "unscaled.throughput_rps": raw_throughput,
        "unscaled.cpu_ms_per_req": raw_cpu,
        "unscaled.p50_ms": raw_p50,
        "loadgen.host_slowdown": _median_of(
            [s for s in closed_w["host_slowdown"] if s]),
        "loadgen.cpu_us_per_req": _median_of(
            [c for c in closed_w["generator_cpu_ms_per_req"] if c], 1e3),
    }


def run_workload(workload, seed: int, seconds: float, trace: str) -> dict:
    """Every phase of one workload; ``trace`` is ``0``, ``1`` or ``both``."""
    os.makedirs(OUT, exist_ok=True)
    log_path = os.path.join(OUT, f"server-{workload.name}.log")
    open(log_path, "w").close()
    load_start = os.getloadavg()[0]
    tally = Tally()
    parent_dir = (tempfile.mkdtemp(prefix="db-", dir=OUT)
                  if workload.durable else None)
    app = None
    try:
        setups = []
        for spawn in range(SETUP_SPAWNS):
            server = Server(workload, "async", log_path)
            setups.append(server.setup_s)
            if spawn < SETUP_SPAWNS - 1:
                server.stop()
        try:
            app, oids = build_app(workload, parent_dir)
            site = Site(app, oids)
            traffic = Traffic(workload, site, seed)
            result, observed = _timed_phases(workload, server, app, site,
                                             traffic, seed, seconds, tally)
            result["setup_samples_s"] = setups
            result["end_to_end"]["setup_s"] = statistics.median(setups)
            if trace != "0":
                async_edge = loadgen.run_phase(
                    server.address, traffic, 1, seconds * EDGE_SHARE)
        finally:
            server.stop()
        if trace != "0":
            _attribute(result, observed, workload, seed, seconds, app, site,
                       async_edge, log_path, tally)
    finally:
        if app is not None:
            app.close()
        if parent_dir:
            shutil.rmtree(parent_dir, ignore_errors=True)
    result["attempted"] = tally.attempted
    result["failed"] = tally.failed
    result["errors"] = dict(tally.errors)
    result["load_1min"] = [load_start, os.getloadavg()[0]]
    return result


def _timed_phases(workload, server: Server, app, site: Site,
                  traffic: Traffic, seed: int, seconds: float,
                  tally: Tally) -> tuple:
    """Oracle, warm-up, closed loop, open loop against ``server``.
    Returns the result so far and what the traced part still needs."""
    connections = min(2, os.cpu_count() or 1)
    phase_s = seconds / 2

    def cpu_clocks() -> tuple:
        return server.cpu_seconds(), time.process_time()

    with Client(server.address) as client:
        tally.add(*_oracle(client, app, workload, site, seed))
        tally.add(*_drive(client, traffic, traffic.warmup()))
        status_before = _status(client)
        closed = loadgen.run_phase(server.address, traffic, connections,
                                   phase_s, on_window=cpu_clocks)
        due = loadgen.due_times(workload.rate, phase_s, seed)
        opened = loadgen.run_phase(server.address, traffic, connections,
                                   phase_s, due, on_window=cpu_clocks)
        status_after = _status(client)
        rss = server.peak_rss_mib()
    tally.add_phase(closed)
    tally.add_phase(opened)
    health = opened.load_health()
    windows = _windows(workload, closed, opened)
    end_to_end, unscaled = _end_to_end(windows, closed, opened, rss)
    result = {
        "workload": workload.name,
        "invalid_load": bool(health["late_p99_ms"] > LATE_P99_LIMIT_MS
                             or health["backlog_growing"]),
        "phases": {
            "closed": {"seconds": phase_s, "connections": connections,
                       "attempted": closed.attempted,
                       "errors": dict(closed.errors)},
            "open": {"seconds": phase_s, "connections": connections,
                     "rate_per_s": workload.rate, "arrivals": len(due),
                     "attempted": opened.attempted,
                     "errors": dict(opened.errors)},
        },
        "latency_ms": {group: describe(opened.latencies(group), 1e3)
                       for group in opened.samples},
        "windows": windows,
        "end_to_end": end_to_end,
    }
    return result, {"status_before": status_before,
                    "status_after": status_after, "closed": closed,
                    "opened": opened, "health": health,
                    "unscaled": unscaled}


def _attribute(result: dict, observed: dict, workload, seed: int,
               seconds: float, app, site: Site, async_edge, log_path: str,
               tally: Tally) -> None:
    """The per-layer metrics: ``/_status`` counts, generator health, the
    threaded edge, the traced replay.  Fills ``result`` in place."""
    closed, opened = observed["closed"], observed["opened"]
    layers = _count_metrics(
        _status_delta(observed["status_before"], observed["status_after"]),
        observed["status_after"], closed, opened)
    layers.update(observed["unscaled"])
    layers.update({f"loadgen.{k}": v for k, v in observed["health"].items()})
    everything = opened.latencies()
    for name, q in (("p95_ms", 95), ("p99_ms", 99), ("max_ms", 100)):
        layers[f"loadgen.{name}"] = (
            percentile(everything, q) * 1e3 if everything else 0.0)
    layers["write_p50_ms"] = _median_of(opened.latencies("write"), 1e3)
    layers["raw_p50_ms"] = _median_of(opened.latencies("probe"), 1e3)
    layers["appserver.ttfb_p50_us"] = _median_of(opened.ttfb, 1e6)

    threaded = Server(workload, "threaded", log_path)
    try:
        fresh = Traffic(workload, site, seed)
        with Client(threaded.address) as client:
            tally.add(*_drive(client, fresh, fresh.warmup()))
        threaded_edge = loadgen.run_phase(threaded.address, fresh, 1,
                                          seconds * EDGE_SHARE)
    finally:
        threaded.stop()
    for name, phase in (("async", async_edge), ("threaded", threaded_edge)):
        tally.add_phase(phase)
        layers[f"appserver.{name}.rtt_p50_us"] = _median_of(
            phase.latencies(), 1e6)

    traced = _traced_run(workload, seed, app, site)
    tally.add(traced.pop("attempted"), traced.pop("errors"))
    layers.update(traced.pop("metrics"))
    layers["appserver.async.residual_us"] = (
        layers["appserver.async.rtt_p50_us"] - traced["inprocess_p50_us"])
    layers["appserver.stderr_tracebacks"] = _tracebacks(log_path)
    layers["error_rate"] = _ratio(tally.failed, tally.attempted)
    result["per_layer"] = layers
    result["traced"] = traced


def _count_metrics(delta: dict, status: dict, closed, opened) -> dict:
    """Counts and ratios measured where the work happens: the server's
    own ``/_status`` (diffed across both timed phases) and the client."""
    def d(key: str) -> float:
        return delta.get(key, 0)

    responses = closed.responses + opened.responses
    writes = sum(len(p.samples["write"]) for p in (closed, opened))
    requests = d("edge/requests_total")
    selects = d("rdb.database/selects")
    layers = {}
    for level in ("page", "fragment", "bean"):
        hits, misses = d(f"cache.{level}/hits"), d(f"cache.{level}/misses")
        layers[f"caching.{level}.hit_rate"] = _ratio(hits, hits + misses)
        layers[f"caching.{level}.invalidations_per_write"] = _ratio(
            d(f"cache.{level}/invalidations"), writes)
    # the page cache counts no miss on the streamed path (peek, then a
    # detached build), so its own hits + misses undercount lookups: every
    # page GET is one lookup, and the client knows how many it sent
    layers["caching.page.hit_rate"] = _ratio(d("cache.page/hits"),
                                             responses - writes)
    layers.update({
        "caching.page.evictions_per_req": _ratio(d("cache.page/evictions"),
                                                 requests),
        "rdb.selects_per_req": _ratio(selects, requests),
        "rdb.rows_read_per_req": _ratio(d("rdb.database/rows_read"), requests),
        "rdb.plan_cache_hit_rate": _ratio(d("rdb.database/prepared_reuse"),
                                          selects),
        "rdb.columnar_share": _ratio(d("rdb.database/selects_columnar"),
                                     selects),
        "rdb.interpreted_share": _ratio(d("rdb.database/selects_interpreted"),
                                        selects),
        "rdb.compile_fallback_exprs": status["metrics"]["external"]
        ["rdb.database"].get("compile_fallback_exprs", 0),
        "rdb.replans": d("rdb.database/adaptive/replans"),
        "rdb.pool_wait_share": _ratio(d("rdb.pool/wait_count"),
                                      d("rdb.pool/acquired_total")),
        "rdb.commits_per_write": _ratio(d("rdb.storage/commits"), writes),
        "rdb.wal_bytes_per_write": _ratio(d("rdb.storage/wal_bytes"), writes),
        "rdb.fsyncs_per_write": _ratio(d("rdb.storage/wal_fsyncs"), writes),
        "services.queries_per_page": _ratio(
            d("services.runtime/queries_executed"),
            d("services.runtime/pages_computed")),
        "services.batched_share": _ratio(
            d("services.runtime/batched_queries"),
            d("services.runtime/queries_executed")),
        "appserver.inline_hit_share": _ratio(d("edge/inline_hits"), requests),
        "appserver.inline_304_share": _ratio(d("edge/inline_304s"), requests),
        "appserver.streamed_share": _ratio(d("edge/streamed_responses"),
                                           requests),
        "appserver.worker_dispatch_share": _ratio(d("edge/worker_dispatches"),
                                                  requests),
        "appserver.handler_failures": d("edge/handler_failures"),
        "httpcore.not_modified_share": _ratio(
            closed.not_modified + opened.not_modified, responses),
        "httpcore.gzip_share": _ratio(closed.gzipped + opened.gzipped,
                                      responses),
    })
    return layers


def _traced_run(workload, seed: int, plain_app, site: Site) -> dict:
    """In-process replay, untraced on ``plain_app`` then traced on an
    identically built application; see :mod:`tracing`."""
    plain = tracing.Replay(plain_app, Traffic(workload, site, seed))
    plain.run(plain.traffic.warmup(), timed=False)
    recorder = tracing.Recorder()
    traced_dir = (tempfile.mkdtemp(prefix="db-", dir=OUT)
                  if workload.durable else None)
    try:
        app, _oids = build_app(
            workload, traced_dir,
            wrap_renderer=lambda r: tracing.TracedRenderer(r, recorder))
        absent = tracing.install(recorder, app)
        traced = tracing.Replay(app, Traffic(workload, site, seed), recorder)
        traced.run(traced.traffic.warmup(), timed=False)
        recorder.reset()
        # alternate the two replays in blocks, so a slow minute of the
        # host slows both and not the one that happened to run in it
        for _block in range(0, workload.replay_requests, REPLAY_BLOCK):
            plain.run(plain.traffic.take(REPLAY_BLOCK))
            traced.run(traced.traffic.take(REPLAY_BLOCK))
        app.close()
    finally:
        if traced_dir:
            shutil.rmtree(traced_dir, ignore_errors=True)

    requests = len(traced.request_seconds)
    rows = tracing.waterfall(recorder.spans, requests)
    tracing.write_spans(
        recorder.spans, os.path.join(OUT, f"trace-{workload.name}.jsonl.gz"))
    metrics = {}
    for name in tracing.SPAN_NAMES:
        row = rows.get(name, {})
        for column in ("calls_per_req", "self_us_per_req", "total_us_per_req"):
            metrics[f"{name}.{column}"] = row.get(column, 0.0)
    probes = tracing.micro_probes(traced.captured, recorder.sql_seen)
    for name in ("rdb.parse_us", "httpcore.gzip_us",
                 "loadgen.client_us_per_req"):
        metrics[name] = probes.get(name, 0.0)
    # the two replays handle identical requests in identical states, so
    # they pair up; the median ratio ignores the host's occasional stall
    metrics["trace.overhead_pct"] = (statistics.median(
        t / p for t, p in zip(traced.request_seconds, plain.request_seconds)
    ) - 1) * 100
    roots_total = sum(rows.get(n, {}).get("total_us_per_req", 0.0)
                      for n in tracing.ROOTS)
    self_total = sum(row["self_us_per_req"] for row in rows.values())
    return {
        "metrics": metrics,
        "attempted": plain.attempted + traced.attempted,
        "errors": Counter(plain.errors) + Counter(traced.errors),
        "requests": requests,
        "absent_seams": absent,
        "inprocess_p50_us": percentile(plain.request_seconds, 50) * 1e6,
        "self_sum_us_per_req": self_total,
        "roots_total_us_per_req": roots_total,
        "rows": rows,
    }


# -- output -----------------------------------------------------------------------


def _provenance(args, seconds: float) -> dict:
    def git(*command: str) -> str:
        try:
            return subprocess.run(
                ["git", *command], cwd=REPO, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            return ""

    return {
        "commit": git("rev-parse", "HEAD") or "unknown",
        "dirty": bool(git("status", "--porcelain", "--", "src", "benchmarks")),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": seconds,
        "quick": args.quick,
        "rates_per_s": {w.name: w.rate for w in WORKLOADS.values()},
        "claim": None,
    }


def _print_workload(result: dict, spec: dict) -> None:
    name = result["workload"]
    flag = "  [invalid_load]" if result["invalid_load"] else ""
    print(f"\n== {name}{flag}")
    for group, summary in result["latency_ms"].items():
        if summary["n"]:
            tail = (f"  p{summary['tail_q']:g} {summary['tail']:.3f} ms"
                    if "tail" in summary else "")
            print(f"   open-loop {group:<5} p50 {summary['p50']:.3f} ms"
                  f"{tail}  (n={summary['n']})")
    print(f"   setup samples: "
          + ", ".join(f"{s:.3f}" for s in result["setup_samples_s"]) + " s")
    for section in ("end_to_end", "per_layer"):
        if section not in result:
            continue
        for metric in spec[section]:
            value = result[section][metric["name"]]
            print(f"   {metric['name']:<46} {value:>14.4f} {metric['unit']}")
    if "traced" in result:
        _print_waterfall(result)
    if result["errors"]:
        print(f"   errors: {result['errors']}")


def _print_waterfall(result: dict) -> None:
    traced = result["traced"]
    rows = traced["rows"]
    handle_total = rows.get("mvc.handle", {}).get("total_us_per_req", 0.0)
    print(f"   waterfall over {traced['requests']} replayed requests "
          "(µs per request)")
    print(f"   {'span':<22}{'calls/req':>10}{'self':>10}{'total':>10}"
          f"{'of handle':>11}")
    for name in tracing.SPAN_NAMES:
        if name not in rows:
            continue
        row = rows[name]
        share = _ratio(row["self_us_per_req"], handle_total)
        print(f"   {name:<22}{row['calls_per_req']:>10.2f}"
              f"{row['self_us_per_req']:>10.1f}"
              f"{row['total_us_per_req']:>10.1f}"
              f"{share:>10.1%}")
    print(f"   Σ self {traced['self_sum_us_per_req']:.1f} µs = parse + handle "
          f"+ encode {traced['roots_total_us_per_req']:.1f} µs")
    layers = result["per_layer"]
    print(f"   residual: async edge rtt p50 "
          f"{layers['appserver.async.rtt_p50_us']:.0f} µs − in-process p50 "
          f"{traced['inprocess_p50_us']:.0f} µs = "
          f"{layers['appserver.async.residual_us']:.0f} µs "
          f"(threaded edge rtt p50 "
          f"{layers['appserver.threaded.rtt_p50_us']:.0f} µs)")
    if traced["absent_seams"]:
        print(f"   absent seams: {', '.join(traced['absent_seams'])}")


def _contract_line(result: dict, spec: dict, trace: str) -> str:
    sections = {"0": ("end_to_end",), "1": ("per_layer",),
                "both": ("end_to_end", "per_layer")}[trace]
    metrics = {
        metric["name"]: {"value": result[section][metric["name"]],
                         "unit": metric["unit"]}
        for section in sections for metric in spec[section]
    }
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2003)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", choices=("0", "1", "both"))
    parser.add_argument("--out", help="write the full result as JSON")
    parser.add_argument("--quick", action="store_true",
                        help="durations ÷5; never compare with a full run")
    args = parser.parse_args(argv)
    # generator and server children on one CPU: see README, "One core"
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    spec = _benchmark_spec()
    seconds = args.seconds / 5 if args.quick else args.seconds
    trace = args.trace or ("0" if args.workload else "both")
    names = [args.workload] if args.workload else list(WORKLOADS)

    document = {"provenance": _provenance(args, seconds), "workloads": {}}
    print(f"# waterfall  provenance: {json.dumps(document['provenance'])}")
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, seconds, trace)
        document["workloads"][name] = result
        _print_workload(result, spec)
        # the declared form: a workload's result is its last line
        print(_contract_line(result, spec, trace), flush=True)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
    failed = sum(r["failed"] for r in document["workloads"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
