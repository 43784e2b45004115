#!/usr/bin/env python
"""What the served applications reach: a call-level census of ``src/repro/``.

Records every function under ``src/repro/`` that gets entered, with a
``sys.setprofile`` / ``threading.setprofile`` hook on call events (no
line tracing), while three drivers serve the applications:

- every page of ``tools/page_digests.py`` (ACM, bookstore, Acer), the
  way that tool renders them;
- the four waterfall workloads, each replayed in process through
  ``benchmarks/waterfall/tracing.Replay`` (warm-up plus ``REQUESTS``
  requests of the ``SEED`` stream);
- a socket pass: ``AsyncAppServer`` and ``ThreadedAppServer`` each
  serve the ``mixed-write`` stream and a slice of ``search-scan`` to the
  waterfall's own client and checks (``run._drive``), so ``appserver/``
  and the server side of ``httpcore/`` are counted.

It prints reached / defined functions per package and every function
never entered, as ``module:qualname``.  A function is a ``def`` (method,
nested function, property); lambdas, comprehensions and class or module
bodies are not counted.

    python tools/line_census.py [--runs N]
    python tools/line_census.py --json --runs 6 > tests/golden/census.json
    python tools/line_census.py --check tests/golden/census.json
    python tools/line_census.py --consumers tests/golden/census.json

``--check`` exits 1 when a function is unreached but not listed as
unreached in the baseline: code that nothing serves is listed on
purpose.  Functions that became reached are printed as a note.  With
``--runs N`` the census runs in N fresh interpreters (import-time code
and process-wide caches start cold in each) and a function counts as
unreached if any of them missed it, which is how the baseline absorbs
timing-dependent paths.  Unreached is not uncalled: a branch no served
statement takes still calls what it names, so grep for callers before
deleting an unreached function.

``--consumers`` runs the profiler over the other consumers instead —
``REPRO_FAST=1 pytest benchmarks/ --ignore=benchmarks/waterfall``,
``examples/*.py`` and ``tools/*.py`` — and prints the baseline's
unreached functions that those do not reach either: the functions only
tests reach.  The benchmarks' reports go to a temporary directory, so
the pass leaves the working tree as it found it.

Finds ``src/`` and the waterfall modules itself; stdlib only.
"""

from __future__ import annotations

import argparse
import ast
import glob
import json
import os
import runpy
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
sys.path[:0] = [str(ROOT / "benchmarks" / "waterfall"), str(SRC),
                str(ROOT / "tools")]

#: requests per workload after its warm-up, and the streams' seed; the
#: committed baseline is read at these values
REQUESTS = 300
SEED = 9401


# -- what is defined --------------------------------------------------------


def defined_functions() -> dict[tuple, str]:
    """``(file, first line, name) → "module:qualname"`` for every ``def``
    under ``src/repro/``.  The first line is the first decorator's, as in
    ``co_firstlineno``."""
    found: dict[tuple, str] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))

        def visit(node, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    found[(str(path), first, child.name)] = \
                        f"{module}:{qualname}"
                    visit(child, f"{qualname}.<locals>.")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return found


def package_of(name: str) -> str:
    parts = name.split(":")[0].split(".")
    return parts[1] if len(parts) > 2 else "(top)"


# -- what is entered --------------------------------------------------------


class Profiler:
    """Code objects entered while active, in every thread started after
    :meth:`start` (and the calling one)."""

    def __init__(self) -> None:
        self.codes: dict[int, object] = {}

    def _hook(self, frame, event, arg) -> None:
        if event == "call":
            code = frame.f_code
            # keyed by id: hashing a code object hashes its contents;
            # holding the object keeps the id from being reused
            self.codes[id(code)] = code

    def start(self) -> None:
        threading.setprofile(self._hook)
        sys.setprofile(self._hook)

    def stop(self) -> None:
        sys.setprofile(None)
        threading.setprofile(None)

    def reached(self, defined: dict[tuple, str]) -> set[str]:
        names = set()
        for code in self.codes.values():
            key = (code.co_filename, code.co_firstlineno, code.co_name)
            if key in defined:
                names.add(defined[key])
        return names


# -- the served drivers -----------------------------------------------------


def drive_page_digests() -> None:
    """Every page of ACM, the bookstore and Acer, uncached and through a
    fragment cache (``tools/page_digests.py``)."""
    import page_digests

    page_digests.page_digests()


def _waterfall_app(workload):
    """``(app, site, data_dir)`` built the way the waterfall builds it."""
    from workloads import Site, build_app

    data_dir = tempfile.mkdtemp(prefix="census-") if workload.durable \
        else None
    app, oids = build_app(workload, data_dir)
    return app, Site(app, oids), data_dir


def _close(app, data_dir) -> None:
    app.close()
    if data_dir:
        shutil.rmtree(data_dir, ignore_errors=True)


def drive_workload(name: str) -> None:
    """One waterfall workload replayed in process: warm-up, then
    ``REQUESTS`` requests of its seeded stream."""
    from tracing import Replay
    from workloads import WORKLOADS, Traffic

    app, site, data_dir = _waterfall_app(WORKLOADS[name])
    try:
        replay = Replay(app, Traffic(WORKLOADS[name], site, SEED))
        replay.run(replay.traffic.warmup(), timed=False)
        replay.run(replay.traffic.take(REQUESTS), timed=False)
        if replay.errors:
            raise SystemExit(f"{name}: failed operations {replay.errors}")
    finally:
        _close(app, data_dir)


def drive_sockets() -> None:
    """``AsyncAppServer`` and ``ThreadedAppServer`` each serve the
    ``mixed-write`` stream (its warm-up, then ``REQUESTS`` requests with
    the write chain's follow-ups) and ``REQUESTS // 4`` ``search-scan``
    requests, each to its own application, sent and checked by the
    waterfall's ``run._drive``."""
    import run
    from httpclient import Client
    from repro.appserver import AsyncAppServer, ThreadedAppServer
    from workloads import WORKLOADS, Traffic

    for edge in (AsyncAppServer, ThreadedAppServer):
        for name, count in (("mixed-write", REQUESTS),
                            ("search-scan", REQUESTS // 4)):
            app, site, data_dir = _waterfall_app(WORKLOADS[name])
            traffic = Traffic(WORKLOADS[name], site, SEED)
            # a writing stream's warm-up holds the admin login
            requests = traffic.warmup() if traffic.workload.write_share \
                else []
            requests += traffic.take(count)
            server = edge(app, workers=2)
            try:
                client = Client(server.listen())
                _sent, errors = run._drive(client, traffic, requests)
            finally:
                # the client's connection is still open, so stop() closes
                # a live connection in every run, not only when the
                # client's own close loses the race
                server.stop()
                _close(app, data_dir)
            client.close()
            if errors:
                raise SystemExit(f"{edge.__name__} {name}: failed"
                                 f" operations {dict(errors)}")


def served_census() -> set[str]:
    """The functions the served drivers enter."""
    from workloads import WORKLOADS

    defined = defined_functions()
    profiler = Profiler()
    profiler.start()
    try:
        drive_page_digests()
        for name in WORKLOADS:
            drive_workload(name)
        drive_sockets()
    finally:
        profiler.stop()
    return profiler.reached(defined)


# -- the consumer drivers ---------------------------------------------------

#: ``tools/*.py`` run by the consumer pass, with their arguments
TOOL_ARGS = {
    "bench_trajectory.py": ["--check"],
    "check_docs.py": [],
    "key_digests.py": ["--check", "tests/golden/key_digests.json"],
    "page_digests.py": ["--check", "tests/golden/page_digests.json"],
    "plan_digests.py": ["--check", "tests/golden/plan_digests.json"],
    "plan_scanner.py": ["--rounds", "1"],
}


def _run_script(path: str, args: list[str]) -> None:
    argv = sys.argv
    sys.argv = [path] + args
    try:
        runpy.run_path(path, run_name="__main__")
    except SystemExit as exit_:
        if exit_.code not in (None, 0):
            print(f"  {path} exited {exit_.code}", file=sys.stderr)
    finally:
        sys.argv = argv


def consumer_census() -> set[str]:
    """The functions the benchmarks (fast mode, waterfall excluded), the
    examples and the tools enter.  The benchmarks write their reports to
    a temporary directory, deleted afterwards: the committed
    ``benchmarks/reports/`` stay as they are, and they are all the
    trajectory check among the tools reads."""
    import pytest

    os.environ["REPRO_FAST"] = "1"
    os.chdir(ROOT)
    defined = defined_functions()
    reports = tempfile.mkdtemp(prefix="census-reports-")
    os.environ["REPRO_REPORT_DIR"] = reports
    profiler = Profiler()
    profiler.start()
    try:
        pytest.main(["-q", "-p", "no:cacheprovider", "benchmarks/",
                     "--ignore=benchmarks/waterfall"])
        for path in sorted(glob.glob(str(ROOT / "examples" / "*.py"))):
            _run_script(path, [])
        for name, args in TOOL_ARGS.items():
            _run_script(str(ROOT / "tools" / name), args)
    finally:
        profiler.stop()
        shutil.rmtree(reports, ignore_errors=True)
    return profiler.reached(defined)


# -- report -----------------------------------------------------------------


def separate_runs(runs: int) -> list[set[str]]:
    """The reached set of ``runs`` served censuses, each in its own
    interpreter."""
    names = set(defined_functions().values())
    reached_runs = []
    for _run in range(runs):
        child = subprocess.run(
            [sys.executable, __file__, "--json"],
            check=True, capture_output=True, text=True)
        reached_runs.append(
            names - set(json.loads(child.stdout)["unreached"]))
    return reached_runs


def census(reached_runs: list[set[str]]) -> dict:
    """Per-package counts and the functions some run never entered."""
    names = sorted(set(defined_functions().values()))
    reached = set.intersection(*reached_runs)
    packages: dict[str, list[int]] = {}
    for name in names:
        counts = packages.setdefault(package_of(name), [0, 0])
        counts[0] += name in reached
        counts[1] += 1
    return {"packages": packages,
            "unreached": [name for name in names if name not in reached]}


def print_report(result: dict) -> None:
    total = [0, 0]
    for package, (reached, defined) in sorted(result["packages"].items()):
        total[0] += reached
        total[1] += defined
        print(f"{package:14} {reached:5} / {defined:5} reached"
              f" ({100 * reached / defined:.0f} %)")
    print(f"{'total':14} {total[0]:5} / {total[1]:5} reached"
          f" ({100 * total[0] / total[1]:.0f} %)")
    print(f"never entered ({len(result['unreached'])}):")
    for name in result["unreached"]:
        print(f"  {name}")


def check(result: dict, baseline: dict) -> int:
    listed = set(baseline["unreached"])
    now = set(result["unreached"])
    defined = set(defined_functions().values())
    for name in sorted(listed - now):
        print(f"note: {'now reached' if name in defined else 'deleted'}:"
              f" {name}")
    new = sorted(now - listed)
    for name in new:
        print(f"unreached and not in the baseline: {name}", file=sys.stderr)
    if new:
        return 1
    total = sum(defined for _reached, defined in result["packages"].values())
    print(f"line census: {total - len(now)} / {total} functions reached;"
          f" every unreached one is listed")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", metavar="BASELINE",
                        help="fail on an unreached function the baseline"
                             " does not list")
    parser.add_argument("--consumers", metavar="BASELINE",
                        help="list the baseline's unreached functions that"
                             " benchmarks, examples and tools miss too")
    parser.add_argument("--json", action="store_true",
                        help="print the census as a baseline file")
    parser.add_argument("--runs", type=int, default=1)
    args = parser.parse_args(argv)
    if args.consumers:
        baseline = json.loads(Path(args.consumers).read_text("utf-8"))
        reached = consumer_census()
        only_tests = [name for name in baseline["unreached"]
                      if name not in reached]
        print(f"reached only by tests ({len(only_tests)}):")
        for name in only_tests:
            print(f"  {name}")
        return 0
    if args.runs > 1:
        reached_runs = separate_runs(args.runs)
    else:
        reached_runs = [served_census()]
    result = census(reached_runs)
    if args.json:
        json.dump(result, sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
        return 0
    if args.check:
        return check(result,
                     json.loads(Path(args.check).read_text("utf-8")))
    print_report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
