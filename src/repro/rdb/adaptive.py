"""Adaptive query execution: the planner learns from running plans.

The cost model (:mod:`repro.rdb.cost`) trusts ANALYZE statistics that go
stale the moment operations write, and its uniformity assumption cannot
see skew at all — ``region = :r`` is priced ``1/distinct`` whether the
parameter names a two-row region or one holding 90% of the table.  This
module closes the loop from execution back into planning:

- **Feedback collection.**  Executions of a cached plan record
  estimated-vs-actual cardinality into a per-plan
  :class:`CardinalityFeedback` ledger (keyed by plan-cache entry).  The
  actual counts are the operator row counts the executor already
  maintains for spans — no second counting pass.  Plans with a LIMIT
  are skipped: their abandoned generators under-count.  A ledger whose
  window is full and settled (median within threshold, no cooldown)
  samples: it learns from every 2^k-th execution only, k growing by one
  per settled sample up to :data:`MAX_SAMPLE_SHIFT`; a sampled q-error
  above threshold, a replan or a re-ANALYZE puts it back to every
  execution.

- **Drift detection.**  Each execution's q-error —
  ``max(actual/est, est/actual)``, taken over the root *and* every join
  input — enters a sliding window.  When the window's median exceeds
  the threshold, the plan-cache entry is dropped, the plan's tables are
  queued for a targeted re-ANALYZE, and the statement re-plans (and
  recompiles) on its next execution.  A post-replan cooldown plus a
  per-statement replan cap keep oscillating workloads from replanning
  every call.

- **Correction factors.**  Observed selectivities land in a
  :class:`SelectivityMemory` that the cost model consults *before*
  falling back to statistics, so the replanned statement is priced with
  what execution measured, not what ANALYZE guessed.

Everything here is advisory: corrections and replans change plan
*shape*, never answers — every conjunct a path does not prove is
re-checked where it lands.  A proof changes no learning: the scan's
``predicate``, ``sargs`` and correction keys are those of every other
path.
Ledgers and the memory are deliberately lock-free (GIL-atomic dict and
deque operations); a lost counter update under contention is tolerated,
the same trade every observability counter in the repo makes.
"""

from __future__ import annotations

from collections import OrderedDict, deque

from repro.rdb import cost
from repro.rdb.executor import HashJoinOp, ScanOp
from repro.rdb.expr import conjunct_fingerprint

#: drift threshold: median window q-error above this marks a plan stale
Q_ERROR_THRESHOLD = 4.0
#: sliding window length (recent executions per plan)
WINDOW_SIZE = 8
#: a settled ledger learns from every 2**k-th execution, k at most
#: this: a drift that starts while a plan is sampled is in the window
#: within 2**k executions, and replans MIN_OBSERVATIONS executions
#: later — 12 at most, E22's drift window
MAX_SAMPLE_SHIFT = 3
#: executions observed before the window may signal drift
MIN_OBSERVATIONS = 4
#: hysteresis: executions after a replan before drift may fire again
REPLAN_COOLDOWN = 12
#: per-statement replan budget — a plan the corrections cannot fix
#: stops thrashing the cache after this many attempts
MAX_REPLANS = 5
#: auto-ANALYZE when live rows drift this factor from the stats snapshot
GROWTH_DRIFT = 2.0
#: exponential-moving-average weight of the newest observation
EWMA_ALPHA = 0.5
#: learned corrections kept, least recently observed out first — a
#: bound for callers that format values into SQL text (one statement,
#: and up to three correction keys per scan, per value)
FEEDBACK_CAP = 2048
#: misestimated plans listed in ``/_status``
TOP_K = 5


def q_error(estimated: float, actual: float) -> float:
    """The symmetric estimation-error factor, floored at one row so an
    empty result against a tiny estimate is not infinitely wrong."""
    est = max(float(estimated), 1.0)
    act = max(float(actual), 1.0)
    return act / est if act >= est else est / act


def scan_correction_keys(scan: ScanOp) -> list[tuple[str, tuple]]:
    """Every ``(table, key)`` correction entry one scan's observation
    feeds: the pushed set's; for a single conjunct also its own and —
    read off its classification — the per-column equality / range entry
    the access-path coster consults (a multi-conjunct observation stays
    at set granularity: the per-conjunct split is not identifiable from
    one count).  Built on first request from the fingerprints taken at
    plan time and kept on the scan: a cached execution calls ``repr()``
    on no ``Expr``.  Shared by the learner and by tests that
    force-poison the memory to prove replans cannot change answers."""
    keys = scan.correction_keys
    if keys is None:
        keys = scan.correction_keys = []
        pushed, table = scan.conjuncts, scan.store.schema.name
        if pushed:
            keys.append((table, cost.conjunct_set_key(pushed)))
        if len(pushed) == 1:
            keys.append((table, ("conj", conjunct_fingerprint(pushed[0]))))
            classified = scan.sargs[0]
            if classified is not None and classified.column is not None \
                    and not classified.negated:
                if classified.kind == "cmp" and classified.op == "=":
                    keys.append((table, ("eq", classified.column)))
                elif classified.kind == "between" or (
                        classified.kind == "cmp" and classified.op != "<>"):
                    keys.append((table, ("range", classified.column)))
    return keys


class SelectivityMemory:
    """Observed selectivities and join distincts, keyed by
    ``(table, correction key)``.  This is the ``feedback`` object the
    cost functions consult before statistics; entries are EWMA-smoothed
    so one outlier parameter set cannot whipsaw the planner.  At most
    :data:`FEEDBACK_CAP` entries are kept, the least recently observed
    dropped first (a dropped key prices from statistics again)."""

    def __init__(self) -> None:
        self.corrections: OrderedDict[tuple, float] = OrderedDict()
        self.samples: OrderedDict[tuple, int] = OrderedDict()
        self.hits = 0
        self.records = 0

    def observe(self, table: str, key: tuple, value: float) -> None:
        slot = (table,) + key
        corrections, samples = self.corrections, self.samples
        # pop and re-insert: the slot becomes the most recently observed
        previous = corrections.pop(slot, None)
        corrections[slot] = value if previous is None else (
            EWMA_ALPHA * value + (1.0 - EWMA_ALPHA) * previous
        )
        samples[slot] = samples.pop(slot, 0) + 1
        if len(corrections) > FEEDBACK_CAP:
            corrections.popitem(last=False)
        if len(samples) > FEEDBACK_CAP:
            samples.popitem(last=False)
        self.records += 1

    def selectivity(self, table: str, key: tuple) -> float | None:
        """A learned selectivity in (0, 1], or None (fall back to
        statistics).  Consulted from the cost model at plan time."""
        value = self.corrections.get((table,) + key)
        if value is None:
            return None
        self.hits += 1
        return cost.clamp(value)

    def join_distinct(self, table: str, columns: tuple) -> float | None:
        """A learned effective distinct-key count for a hash-join build
        side, or None."""
        value = self.corrections.get((table, "join", columns))
        if value is None:
            return None
        self.hits += 1
        return max(1.0, value)

    def observe_join(self, table: str, columns: tuple, distinct: float) -> None:
        self.observe(table, ("join", columns), distinct)

    def clear(self) -> None:
        self.corrections.clear()
        self.samples.clear()


class CardinalityFeedback:
    """Per-plan estimation ledger: a sliding q-error window, the
    hysteresis state (cooldown, replan count) that gates replanning, and
    the sampling pace (``stride``: learn from every stride-th execution;
    ``skip``: executions left until the next sample).  Appends are
    GIL-atomic; concurrent executions may lose an update, never corrupt
    the deque."""

    __slots__ = ("statement", "window", "executions", "replans", "cooldown",
                 "last_estimated", "last_actual", "max_q_error", "stride",
                 "skip")

    def __init__(self, statement: str) -> None:
        self.statement = statement
        self.window: deque = deque(maxlen=WINDOW_SIZE)
        self.executions = 0
        self.replans = 0
        self.cooldown = 0
        self.last_estimated: float | None = None
        self.last_actual: int | None = None
        self.max_q_error = 1.0
        self.stride = 1
        self.skip = 0

    def record(self, estimated: float, actual: float, worst: float) -> None:
        """One execution: ``estimated``/``actual`` are the root counts
        (reported in ``/_status``); ``worst`` is the max q-error across
        root and join inputs and is what enters the drift window."""
        self.window.append(worst)
        self.executions += 1
        self.last_estimated = estimated
        self.last_actual = int(actual)
        if worst > self.max_q_error:
            self.max_q_error = worst
        if self.cooldown > 0:
            self.cooldown -= 1

    def window_q_error(self) -> float:
        """Median of the window — robust to a single outlier execution."""
        snapshot = sorted(self.window)
        if not snapshot:
            return 1.0
        return snapshot[len(snapshot) // 2]

    def drifted(self, threshold: float) -> bool:
        if len(self.window) < MIN_OBSERVATIONS:
            return False
        return self.window_q_error() > threshold

    def pace(self, worst: float, threshold: float) -> None:
        """Set the stride after one sampled execution: back to every
        execution on a q-error above ``threshold``; doubled (up to
        ``2**MAX_SAMPLE_SHIFT``) while the window is full, its median
        within ``threshold`` and no cooldown runs; else unchanged."""
        if worst > threshold:
            self.stride = 1
        elif self.cooldown == 0 and len(self.window) == WINDOW_SIZE \
                and self.window_q_error() <= threshold:
            self.stride = min(self.stride * 2, 1 << MAX_SAMPLE_SHIFT)
        self.skip = self.stride - 1

    def learn_every_execution(self) -> None:
        self.stride = 1
        self.skip = 0

    def note_replanned(self, cooldown: int) -> None:
        self.replans += 1
        self.cooldown = cooldown
        self.window.clear()
        self.learn_every_execution()


def plan_q_error(plan) -> tuple[float, float, float]:
    """(root estimated, root actual, worst q-error) for one executed
    plan, the worst taken over every operator carrying both an estimate
    and an actual count — so a join that exploded in the middle of an
    otherwise-accurate plan still registers."""
    root = plan.root
    root_est = root.est_rows if root.est_rows is not None else 1.0
    root_act = root.actual_rows if root.actual_rows is not None else 0
    worst = 1.0
    for node in plan.operators:
        if node.est_rows is None or node.actual_rows is None:
            continue
        q = q_error(node.est_rows, node.actual_rows)
        if q > worst:
            worst = q
    return float(root_est), float(root_act), worst


class AdaptiveController:
    """The database-side driver of the feedback loop.

    ``observe`` runs after every cached SELECT (outside the read lock):
    it counts the execution and, on the ledger's sampled executions,
    records it into the window, feeds the memory, and — on drift —
    drops the cache entry and queues the plan's tables for re-ANALYZE.
    ``preflight`` runs *before* the next execution takes the read lock:
    it performs any queued re-ANALYZE (plus growth-triggered ones, when
    the caller is about to build a plan) under the write lock, so the
    rebuild that follows plans against fresh statistics and
    corrections.

    Thresholds are instance attributes so tests and benchmarks can
    tighten the loop without monkeypatching module constants.
    """

    def __init__(self, database) -> None:
        self.database = database
        self.enabled = True
        self.q_error_threshold = Q_ERROR_THRESHOLD
        self.min_observations = MIN_OBSERVATIONS
        self.replan_cooldown = REPLAN_COOLDOWN
        self.max_replans = MAX_REPLANS
        self.growth_drift = GROWTH_DRIFT
        self.memory = SelectivityMemory()
        self.ledgers: dict[str, CardinalityFeedback] = {}
        self._pending_reanalyze: set[str] = set()
        #: flipped off on the first refused ANALYZE (read-only replica
        #: engines): corrections keep flowing, re-ANALYZE stops trying
        self._analyze_allowed = True
        self.counters = {
            "observations": 0,
            "learned": 0,
            "drift_detections": 0,
            "replans": 0,
            "reanalyzes": 0,
            "growth_reanalyzes": 0,
            "cooldown_suppressed": 0,
            "replan_budget_exhausted": 0,
        }

    # -- the post-execution half --------------------------------------------

    def observe(self, cache_key: str, plan) -> None:
        """Record one execution of a cached plan; may mark it stale."""
        if not self.enabled or not getattr(plan, "feedback_eligible", False):
            return
        if plan.root.actual_rows is None:
            return
        ledger = self.ledgers.get(cache_key)
        if ledger is None:
            ledger = self.ledgers.setdefault(
                cache_key, CardinalityFeedback(cache_key)
            )
        counters = self.counters
        counters["observations"] += 1
        if ledger.skip:
            ledger.skip -= 1
            ledger.executions += 1
            return
        est, act, worst = plan_q_error(plan)
        counters["learned"] += 1
        ledger.record(est, act, worst)
        self._learn(plan)
        ledger.pace(worst, self.q_error_threshold)
        if not ledger.drifted(self.q_error_threshold) \
                or len(ledger.window) < self.min_observations:
            return
        if ledger.cooldown > 0:
            self.counters["cooldown_suppressed"] += 1
            return
        if ledger.replans >= self.max_replans:
            self.counters["replan_budget_exhausted"] += 1
            return
        self.counters["drift_detections"] += 1
        ledger.note_replanned(self.replan_cooldown)
        self.counters["replans"] += 1
        self._pending_reanalyze.update(plan.tables)
        self.database._drop_plan(cache_key)

    def _learn(self, plan) -> None:
        """Fold one execution's operator counts into the memory."""
        memory = self.memory
        for node in plan.operators:
            if isinstance(node, ScanOp):
                actual = node.actual_rows
                if actual is None or node.predicate is None:
                    continue
                live = len(node.store.rows)
                if live <= 0:
                    continue
                observed = cost.clamp(actual / live)
                for table, key in scan_correction_keys(node):
                    memory.observe(table, key, observed)
            elif isinstance(node, HashJoinOp) and node.kind == "inner":
                produced = node.actual_rows
                incoming = node.left.actual_rows
                if not produced or not incoming:
                    continue
                build_rows = len(node.store.rows)
                if build_rows <= 0:
                    continue
                # produced ≈ incoming * build / distinct, solved for the
                # *effective* distinct count the estimate should have used
                distinct = max(1.0, incoming * build_rows / produced)
                memory.observe_join(
                    node.store.schema.name, node.build_columns, distinct
                )

    # -- the pre-execution half ---------------------------------------------

    def preflight(self, statement=None) -> None:
        """Run queued (drift) and growth-triggered re-ANALYZE before the
        caller takes the read lock.  ``statement`` (a parsed Select,
        given only by a caller about to build its plan) contributes its
        tables to the growth check; a cached plan is re-checked when
        something rebuilds it."""
        if not self.enabled:
            return
        pending = self._pending_reanalyze
        if pending:
            self._pending_reanalyze = set()
            for table in pending:
                self._reanalyze(table, "reanalyzes")
        if statement is None:
            return
        for table in self._statement_tables(statement):
            if table in pending:
                continue
            if self._grown(table):
                self._reanalyze(table, "growth_reanalyzes")

    @staticmethod
    def _statement_tables(statement) -> list[str]:
        tables = [statement.source.table]
        tables.extend(join.table.table for join in statement.joins)
        return tables

    def _grown(self, table: str) -> bool:
        store = self.database.tables.get(table)
        if store is None or store.statistics is None:
            return False
        live = len(store.rows)
        base = store.statistics.row_count
        factor = self.growth_drift
        return live > factor * max(base, 1) or base > factor * max(live, 1)

    def _reanalyze(self, table: str, counter: str) -> None:
        if not self._analyze_allowed:
            return
        database = self.database
        if table not in database.tables:
            return
        try:
            database.analyze(table)
        except Exception:
            # Read-only engine (a replica): statistics arrive by WAL
            # replay from the primary; stop trying locally.
            self._analyze_allowed = False
            return
        self.counters[counter] += 1
        # fresh statistics re-plan the table's statements: every ledger
        # learns from each execution again until it settles anew
        for ledger in list(self.ledgers.values()):
            ledger.learn_every_execution()

    # -- observability -------------------------------------------------------

    def stats(self) -> dict:
        """The ``/_status`` planner section: counters, memory health,
        and the top-K misestimated statements by worst-ever q-error."""
        ledgers = sorted(
            self.ledgers.items(),
            key=lambda item: item[1].max_q_error,
            reverse=True,
        )
        top = []
        for key, ledger in ledgers[:TOP_K]:
            if ledger.max_q_error <= 1.5:
                continue
            top.append({
                "statement": key if len(key) <= 80 else key[:77] + "...",
                "q_error_max": round(ledger.max_q_error, 2),
                "q_error_window": round(ledger.window_q_error(), 2),
                "estimated": (
                    None if ledger.last_estimated is None
                    else round(ledger.last_estimated, 1)
                ),
                "actual": ledger.last_actual,
                "executions": ledger.executions,
                "replans": ledger.replans,
            })
        counters = dict(self.counters)
        observations = counters["observations"]
        memory = self.memory
        return {
            "enabled": self.enabled,
            **counters,
            "tracked_plans": len(self.ledgers),
            "feedback_entries": len(memory.corrections),
            "feedback_cap": FEEDBACK_CAP,
            "feedback_hits": memory.hits,
            "feedback_hit_rate": (
                round(memory.hits / max(1, memory.hits + observations), 4)
                if (memory.hits or observations) else None
            ),
            "top_misestimates": top,
        }
