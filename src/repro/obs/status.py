"""The built-in ``/_status`` page.

One GET returns everything an operator needs to answer "where is this
application spending its time": request/latency metrics from the
dispatcher, per-statement and pool stats from the data tier, hit/miss
counters for all three cache levels, and the slow-query ring — the
runtime equivalent of the paper's design-time "tune the descriptor
query" loop (§6).

Served by the :class:`~repro.mvc.dispatcher.FrontController` in two
renditions: plain text (the default, for humans and ``curl``) and JSON
(``?format=json`` or an ``Accept: application/json`` header, for
scrapers).  Both are projections of the same :func:`build_status`
dict, whose schema is documented in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import json

#: slow-query entries shown on the page (the ring may hold more)
SLOW_QUERY_LIMIT = 20


def build_status(front) -> dict:
    """The status document for one front controller's application."""
    ctx = front.ctx
    obs = ctx.obs
    database = ctx.database
    status: dict = {
        "service": database.name,
        "requests_served": front.requests_served,
        "sessions": len(front.sessions),
        "tracing_enabled": bool(obs is not None and obs.tracing_enabled),
        "cache_levels": ctx.invalidation_bus.targets(),
    }
    if obs is not None:
        metrics = obs.metrics.snapshot()
        counters = metrics["counters"]
        # the dispatcher keeps per-status counts in a plain dict (one
        # C-level increment per request); they are folded into the
        # counters section here, and the request total is their sum —
        # the hot path never counts anything twice
        status_counts = getattr(front, "status_counts", {})
        for code in sorted(status_counts):
            counters[f"http.status.{code}"] = status_counts[code]
        counters["http.requests"] = sum(status_counts.values())
        status["metrics"] = metrics
    slow_log = getattr(database, "slow_log", None)
    if slow_log is not None:
        status["slow_query_log"] = slow_log.stats()
        status["slow_queries"] = [
            entry.to_dict() for entry in slow_log.entries(SLOW_QUERY_LIMIT)
        ]
    return status


def render_status_json(status: dict) -> str:
    return json.dumps(status, indent=2, sort_keys=True, default=str)


def render_status_text(status: dict) -> str:
    """A plain-text rendering, stable enough to grep."""
    lines = [
        f"repro status: {status['service']}",
        f"requests_served: {status['requests_served']}",
        f"sessions: {status['sessions']}",
        f"tracing_enabled: {status['tracing_enabled']}",
        f"cache_levels: {', '.join(status['cache_levels']) or '-'}",
        "",
    ]
    metrics = status.get("metrics", {})
    counters = metrics.get("counters", {})
    if counters:
        lines.append("[counters]")
        for name in sorted(counters):
            lines.append(f"  {name} = {counters[name]}")
        lines.append("")
    gauges = metrics.get("gauges", {})
    if gauges:
        lines.append("[gauges]")
        for name in sorted(gauges):
            gauge = gauges[name]
            lines.append(
                f"  {name} = {gauge['value']} (max {gauge['max']})"
            )
        lines.append("")
    histograms = metrics.get("histograms", {})
    if histograms:
        lines.append("[histograms]")
        for name in sorted(histograms):
            h = histograms[name]
            lines.append(
                f"  {name}: n={h['count']} p50={h['p50_ms']}ms "
                f"p95={h['p95_ms']}ms p99={h['p99_ms']}ms max={h['max_ms']}ms"
            )
        lines.append("")
    for source in sorted(metrics.get("external", {})):
        stats = metrics["external"][source]
        lines.append(f"[{source}]")
        if isinstance(stats, dict):
            for key in sorted(stats):
                lines.append(f"  {key} = {stats[key]}")
        else:
            lines.append(f"  {stats}")
        lines.append("")
    slow_log = status.get("slow_query_log")
    if slow_log is not None:
        lines.append("[slow queries]")
        lines.append(
            f"  threshold={slow_log['threshold_ms']}ms "
            f"recorded={slow_log['recorded_total']} held={slow_log['held']}"
        )
        for entry in status.get("slow_queries", []):
            access = f"  [{entry['access']}]" if entry.get("access") else ""
            mode = f"  [{entry['mode']}]" if entry.get("mode") else ""
            lines.append(
                f"  {entry['duration_ms']:.3f}ms  {entry['sql']}{access}{mode}"
            )
        lines.append("")
    return "\n".join(lines)
