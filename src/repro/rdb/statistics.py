"""Table and column statistics for cost-based planning.

``ANALYZE`` walks a table once and records, per column: the number of
distinct non-NULL values, the NULL count, and the minimum/maximum.
:class:`repro.rdb.cost` turns these into selectivity estimates; without
statistics the planner falls back to fixed default selectivities (the
classic System R constants), so ANALYZE is an optimization, never a
correctness requirement.

Statistics are a snapshot: they describe the table as of the last
ANALYZE and drift as DML lands.  Only cardinality *estimates* read
them — the executor always runs against live rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class ColumnStatistics:
    """Distribution summary of one column at ANALYZE time."""

    distinct: int
    null_count: int
    minimum: object | None = None
    maximum: object | None = None

    @property
    def has_range(self) -> bool:
        return self.minimum is not None and self.maximum is not None


@dataclass(frozen=True)
class TableStatistics:
    """Per-table snapshot produced by ANALYZE."""

    table: str
    row_count: int
    columns: dict[str, ColumnStatistics] = field(default_factory=dict)

    def column(self, name: str) -> ColumnStatistics | None:
        return self.columns.get(name)


def collect_statistics(store) -> TableStatistics:
    """One full pass over ``store``'s rows (a TableStore), summarizing
    every column.  Values of mixed incomparable types leave min/max
    unset — the cost model then skips range interpolation for that
    column.  The rows are read even when a column store mirrors them:
    they are what the mirror copies, and no served request runs ANALYZE.
    """
    rows = list(store.rows.values())
    columns: dict[str, ColumnStatistics] = {}
    for name in store.schema.column_names:
        distinct: set = set()
        null_count = 0
        minimum = maximum = None
        comparable = True
        for row in rows:
            value = row[name]
            if value is None:
                null_count += 1
                continue
            try:
                distinct.add(value)
            except TypeError:
                # unhashable value: count it as always-distinct
                distinct.add(id(value))
            if not comparable:
                continue
            try:
                if minimum is None or value < minimum:
                    minimum = value
                if maximum is None or value > maximum:
                    maximum = value
            except TypeError:
                comparable = False
                minimum = maximum = None
        columns[name] = ColumnStatistics(
            distinct=len(distinct),
            null_count=null_count,
            minimum=minimum if comparable else None,
            maximum=maximum if comparable else None,
        )
    return TableStatistics(
        table=store.schema.name, row_count=len(rows), columns=columns
    )

