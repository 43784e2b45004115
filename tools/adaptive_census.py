"""What the adaptive loop changes on the waterfall workloads.

Replays each workload's seeded request stream in-process (the traced
replay's driver, ``benchmarks/waterfall/tracing.Replay``) on two
identically built applications: one with the adaptive loop on, one
with it off (``db.adaptive.enabled = False``: no feedback, no drift
replan, no growth re-ANALYZE).  Per workload it prints:

- ``replans``: plan-cache entries the loop dropped for drift;
- ``moved``: of those, the statements whose rebuilt plan has another
  shape than the dropped one (EXPLAIN with the row and cost estimates
  stripped);
- ``differ``: cached plans whose shape differs between the two
  applications at the end of the replay (what the replans, their
  re-ANALYZEs and the learned corrections changed, all together);
- ``answers_changed``: responses whose status or body differs between
  the two applications — must be 0: the loop changes plans, not answers;
- ``cpu_ms_per_req``: in-process CPU per request after the warm-up
  (``time.process_time``; ms), loop on → loop off: what the loop is
  worth, not just how many plans it moves.

    python tools/adaptive_census.py [--workload W] [--seed N]
                                    [--requests N] [--verbose]

Finds ``src/`` and the waterfall modules itself; exits 1 if an answer
changed.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "benchmarks", "waterfall"),
                os.path.join(ROOT, "src")]

from tracing import Replay  # noqa: E402
from workloads import WORKLOADS, Site, Traffic, build_app  # noqa: E402

_ESTIMATES = re.compile(r" (rows|cost)~[0-9.e+-]+")


def shape(plan) -> str:
    """A plan's EXPLAIN without its estimates: operators, access paths,
    join order, execution mode."""
    return _ESTIMATES.sub("", plan.explain())


class _Watch:
    """Records each drift drop's plan and the plan that replaces it."""

    def __init__(self, database) -> None:
        self.dropped: dict[str, str] = {}
        self.moves: list[tuple[str, str, str]] = []
        drop, cache = database._drop_plan, database._cache_plan

        def drop_plan(key):
            old = database._plan_cache.get(key)
            if old is not None:
                self.dropped[key] = shape(old)
            drop(key)

        def cache_plan(key, plan):
            plan = cache(key, plan)
            before = self.dropped.pop(key, None)
            if before is not None:
                self.moves.append((key, before, shape(plan)))
            return plan

        database._drop_plan, database._cache_plan = drop_plan, cache_plan


def _site(workload) -> Site:
    data_dir = tempfile.mkdtemp(prefix="census-") if workload.durable \
        else None
    try:
        app, oids = build_app(workload, data_dir)
        app.close()
    finally:
        if data_dir:
            shutil.rmtree(data_dir, ignore_errors=True)
    return Site(app, oids)


def _replay(workload, seed: int, requests: int, adaptive: bool, site):
    data_dir = tempfile.mkdtemp(prefix="census-") if workload.durable \
        else None
    try:
        app, _oids = build_app(workload, data_dir)
        app.database.adaptive.enabled = adaptive
        watch = _Watch(app.database)
        replay = Replay(app, Traffic(workload, site, seed))
        answers: list = []
        handle = replay._handle

        def recording(request):
            response = handle(request)
            answers.append((request.path, response.status, response.body))
            return response

        replay._handle = recording
        replay.run(replay.traffic.warmup(), timed=False)
        timed = replay.traffic.take(requests)
        started = time.process_time()
        replay.run(timed, timed=False)
        cpu_ms = (time.process_time() - started) * 1000 / len(timed)
        plans = {key: shape(plan)
                 for key, plan in app.database._plan_cache.items()
                 if hasattr(plan, "explain")}
        counters = dict(app.database.adaptive.counters)
        errors = dict(replay.errors)
        app.close()
    finally:
        if data_dir:
            shutil.rmtree(data_dir, ignore_errors=True)
    return answers, plans, counters, watch.moves, errors, cpu_ms


def census(name: str, seed: int, requests: int) -> dict:
    workload = WORKLOADS[name]
    site = _site(workload)
    on = _replay(workload, seed, requests, True, site)
    off = _replay(workload, seed, requests, False, site)
    answers_on, plans_on, counters, moves, errors_on, cpu_on = on
    answers_off, plans_off, _counters, _moves, errors_off, cpu_off = off
    changed = sum(a != b for a, b in zip(answers_on, answers_off)) \
        + abs(len(answers_on) - len(answers_off))
    differ = sorted(key for key in plans_on.keys() & plans_off.keys()
                    if plans_on[key] != plans_off[key])
    return {
        "workload": name,
        "requests": len(answers_on),
        "observations": counters["observations"],
        "learned": counters["learned"],
        "replans": counters["replans"],
        "reanalyzes": counters["reanalyzes"] + counters["growth_reanalyzes"],
        "moved": sum(before != after for _key, before, after in moves),
        "moves": moves,
        "differ": differ,
        "plans_on": plans_on,
        "plans_off": plans_off,
        "answers_changed": changed,
        "cpu_ms_per_req": (cpu_on, cpu_off),
        "errors": {**errors_on, **errors_off},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        action="append")
    parser.add_argument("--seed", type=int, default=9401)
    parser.add_argument("--requests", type=int, default=3000)
    parser.add_argument("--verbose", action="store_true",
                        help="print each moved and differing plan")
    args = parser.parse_args(argv)
    failed = False
    for name in args.workload or list(WORKLOADS):
        row = census(name, args.seed, args.requests)
        on, off = row["cpu_ms_per_req"]
        print(f"{name}: requests={row['requests']}"
              f" observations={row['observations']}"
              f" learned={row['learned']} replans={row['replans']}"
              f" reanalyzes={row['reanalyzes']} moved={row['moved']}"
              f" differ={len(row['differ'])}/{len(row['plans_on'])}"
              f" answers_changed={row['answers_changed']}"
              f" cpu_ms_per_req on={on:.3f} off={off:.3f}"
              f" errors={row['errors'] or 0}")
        if args.verbose:
            for key, before, after in row["moves"]:
                print(f"  replanned {key[:90]}\n    before: "
                      + before.replace("\n", "\n            ")
                      + "\n    after:  " + after.replace("\n", "\n            "))
            for key in row["differ"]:
                print(f"  differs {key[:90]}\n    off: "
                      + row["plans_off"][key].replace("\n", "\n         ")
                      + "\n    on:  "
                      + row["plans_on"][key].replace("\n", "\n         "))
        failed |= bool(row["answers_changed"] or row["errors"])
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
