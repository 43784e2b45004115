"""The slow-query ring buffer.

The §6 tuning workflow — find the expensive descriptor query, override
it with an optimized one, hot-redeploy — needs the *find* step at
runtime, not in a benchmark: the data tier keeps the last N statements
that exceeded a configurable duration threshold, each carrying the
access path the planner chose (so "slow because it seq-scanned" is
visible without re-running EXPLAIN by hand).

A bounded ring (``collections.deque``) keeps memory constant under any
traffic; the threshold comparison is the only cost a fast statement
pays.  ``threshold_seconds`` may be lowered at runtime (benchmarks set
it to 0 to capture everything) without touching the database.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass

#: default threshold: an in-memory engine statement taking 50 ms is slow
DEFAULT_THRESHOLD_SECONDS = 0.05


@dataclass
class SlowQuery:
    """One recorded slow statement."""

    sql: str
    duration_ms: float
    access: str | None = None
    recorded_at: float = 0.0
    #: execution mode of the plan that ran it — "compiled", "mixed" or
    #: "interpreted" (None for non-SELECT statements)
    mode: str | None = None

    def to_dict(self) -> dict:
        return {
            "sql": self.sql,
            "duration_ms": round(self.duration_ms, 3),
            "access": self.access,
            "mode": self.mode,
            "recorded_at": self.recorded_at,
        }


class SlowQueryLog:
    """Bounded newest-first record of statements over the threshold."""

    def __init__(self, capacity: int = 128,
                 threshold_seconds: float = DEFAULT_THRESHOLD_SECONDS):
        if capacity <= 0:
            raise ValueError("slow-query log needs a positive capacity")
        self.capacity = capacity
        self.threshold_seconds = threshold_seconds
        self._lock = threading.Lock()
        self._entries: deque[SlowQuery] = deque(maxlen=capacity)
        #: statements recorded (≥ threshold), including ones the ring
        #: has since evicted
        self.recorded_total = 0

    def observe(self, sql: str, duration_seconds: float,
                access: str | None = None, mode: str | None = None) -> bool:
        """Record the statement if it crossed the threshold.

        Returns whether it was recorded, so callers can skip computing
        expensive context (access-path text) for fast statements by
        checking ``duration >= threshold_seconds`` first.
        """
        if duration_seconds < self.threshold_seconds:
            return False
        entry = SlowQuery(
            sql=sql,
            duration_ms=duration_seconds * 1000.0,
            access=access,
            recorded_at=time.time(),
            mode=mode,
        )
        with self._lock:
            self._entries.append(entry)
            self.recorded_total += 1
        return True

    def entries(self, limit: int | None = None) -> list[SlowQuery]:
        """Newest first."""
        with self._lock:
            newest_first = list(reversed(self._entries))
        return newest_first if limit is None else newest_first[:limit]

    def stats(self) -> dict:
        with self._lock:
            held = len(self._entries)
            slowest = max(
                (entry.duration_ms for entry in self._entries), default=0.0
            )
        return {
            "threshold_ms": self.threshold_seconds * 1000.0,
            "recorded_total": self.recorded_total,
            "held": held,
            "capacity": self.capacity,
            "slowest_ms": round(slowest, 3),
        }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
