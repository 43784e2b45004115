"""The one predicate classification, against independent truth.

``rdb.expr.sarg`` is what the planner's access-path choice, the cost
model, adaptive's correction keys and the batch kernels read instead of
matching ``Comparison`` / ``Between`` / ``InList`` / ``Like`` /
``IsNull`` nodes themselves.  Here it is held to the interpreter
(re-evaluating ``column ⟨op⟩ operands`` from its fields must equal
evaluating the conjunct — the check that catches a wrong flip), the
four readers are held to each other on *which column* a conjunct
constrains, and a cached execution is shown to call ``repr()`` on no
``Expr``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QueryError
from repro.rdb import Database, adaptive, cost
from repro.rdb.executor import RowScope
from repro.rdb.expr import (
    Arithmetic,
    Between,
    ColumnRef,
    Comparison,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Literal,
    Not,
    Or,
    Param,
    conjuncts,
    sarg,
)
from repro.rdb.planner import PlannerFeatures
from repro.rdb.sqlparser import parse_select
from tests.test_rdb_compile_oracle import _PREDICATES as ORACLE_PREDICATES

COLUMNS = {"t": ["a", "b", "s"]}
PARAMS = {"p": 2, "q": "ab", "n": None}

#: a domain small enough that operands meet often: ``<`` against ``<=``
#: shows only on equal values
_values = st.one_of(
    st.none(), st.integers(1, 3), st.just(2.0),
    st.sampled_from(["a", "ab", "a%", "_b"]),
)
_columns = st.builds(ColumnRef, st.sampled_from([None, "t"]),
                     st.sampled_from(COLUMNS["t"]))
_constants = st.one_of(
    st.builds(Literal, _values),
    st.builds(Param, st.sampled_from(sorted(PARAMS))),
    st.builds(Arithmetic, st.just("+"), st.builds(Literal, st.integers(0, 1)),
              st.builds(Param, st.just("p"))),
)
#: a comparison side, a bound, an option, a pattern: constant, another
#: column, or computed from one
_operands = st.one_of(
    _constants, _constants, _columns,
    st.builds(Arithmetic, st.just("+"), _columns, st.builds(Literal, st.just(1))),
)
#: what a predicate is about: a plain column, or something computed
_subjects = st.one_of(
    _columns, _columns,
    st.builds(FunctionCall, st.just("UPPER"), st.tuples(_columns)),
)
_flags = st.booleans()
_leaves = st.one_of(
    st.builds(Comparison, st.sampled_from(["=", "<>", "<", "<=", ">", ">="]),
              _subjects, _operands),
    # the other way round: ``:p < col`` must read as ``col > :p``
    st.builds(Comparison, st.sampled_from(["=", "<>", "<", "<=", ">", ">="]),
              _operands, _subjects),
    st.builds(Between, _subjects, _operands, _operands, _flags),
    st.builds(InList, _subjects, st.lists(_operands, max_size=3).map(tuple),
              _flags),
    st.builds(Like, _subjects, _operands, _flags,
              st.sampled_from([None, "\\"])),
    st.builds(IsNull, _subjects, _flags),
)
_conjuncts = st.one_of(
    _leaves, _leaves, st.builds(Not, _leaves), st.builds(Or, _leaves, _leaves),
    st.builds(Literal, st.booleans()), _columns,
)
_rows = st.fixed_dictionaries({name: _values for name in COLUMNS["t"]})


def _outcome(expr, row):
    try:
        return expr.evaluate(RowScope({"t": row}, COLUMNS), PARAMS)
    except QueryError:
        return QueryError  # operand order may reword it; that it raises may not change


def _rebuilt(classified):
    """``column ⟨op⟩ operands`` written back out from the record."""
    column = ColumnRef(classified.table, classified.column)
    operands, negated = classified.operands, classified.negated
    if classified.kind == "cmp":
        return Comparison(classified.op, column, *operands)
    if classified.kind == "between":
        return Between(column, *operands, negated)
    if classified.kind == "in":
        return InList(column, operands, negated)
    if classified.kind == "like":
        return Like(column, *operands, negated, classified.escape)
    assert classified.kind == "null" and not operands
    return IsNull(column, negated)


def _check_against_interpreter(conjunct, row):
    classified = sarg(conjunct)
    if classified is None:
        assert not isinstance(
            conjunct, (Comparison, Between, InList, Like, IsNull)
        )
        return
    assert sarg(conjunct) is classified  # classified once per node
    assert classified.fingerprint == repr(conjunct)
    assert classified.constant == (
        not any(operand.column_refs() for operand in classified.operands)
    )
    if classified.column is None:
        # a computed subject (or column against column): nothing for an
        # index, a statistic or a column array to be looked up by
        assert classified.table is None
        return
    assert _outcome(_rebuilt(classified), row) == _outcome(conjunct, row)


class TestClassificationAgainstTheInterpreter:
    @given(conjunct=_conjuncts, row=_rows)
    @settings(max_examples=1000, deadline=None)
    def test_fields_reevaluate_to_the_conjunct(self, conjunct, row):
        _check_against_interpreter(conjunct, row)

    @pytest.mark.parametrize("predicate", ORACLE_PREDICATES)
    def test_the_compile_oracles_predicates(self, predicate):
        where = parse_select(f"SELECT * FROM book b WHERE {predicate}").where
        rows = [
            {"oid": 1, "author_oid": 1, "year": 1995, "price": 13.0,
             "title": "book-17"},
            {"oid": 2, "author_oid": None, "year": None, "price": None,
             "title": None},
        ]
        for conjunct in conjuncts(where):
            for row in rows:
                classified = sarg(conjunct)
                if classified is None or classified.column is None:
                    continue
                scope = RowScope({"b": row}, {"b": list(row)})
                params = {"lo": 12.0, "needle": "book-1%", "cut": 1999,
                          "word": "%ok-2%"}
                assert _rebuilt(classified).evaluate(scope, params) \
                    == conjunct.evaluate(scope, params)

    def test_a_flipped_comparison_keeps_its_meaning(self):
        classified = sarg(Comparison("<", Param("p"), ColumnRef(None, "a")))
        assert (classified.column, classified.op) == ("a", ">")
        assert classified.operands == (Param("p"),)
        assert sarg(Comparison("<", ColumnRef(None, "a"), Param("p"))).op == "<"


# ---------------------------------------------------------------------------
# (ii) four readers, one column
# ---------------------------------------------------------------------------


class _RecordingMemory:
    """Feedback stub: knows nothing, remembers what it was asked."""

    def __init__(self):
        self.asked = []

    def selectivity(self, table, key):
        self.asked.append(key)
        return None

    def join_distinct(self, table, columns):
        return None


class _RecordingColumns(dict):
    def __init__(self, columns):
        super().__init__(columns)
        self.read = []

    def __getitem__(self, name):
        self.read.append(name)
        return super().__getitem__(name)


def _indexed() -> Database:
    db = Database()
    db.execute(
        "CREATE TABLE item (oid INTEGER NOT NULL AUTOINCREMENT,"
        " n INTEGER, m INTEGER, label VARCHAR(20), PRIMARY KEY (oid))"
    )
    db.execute("CREATE INDEX ix_item_n ON item (n)")
    db.execute("CREATE INDEX ix_item_m ON item (m)")
    db.execute("CREATE INDEX ix_item_label ON item (label)")
    for i in range(400):
        db.insert_row("item", {"n": i % 97, "m": i % 89,
                               "label": f"item-{i % 50:02d}"})
    return db


#: (conjunct, the column it constrains, an index can serve it)
_CASES = [
    ("n = :v", "n", True),
    (":v = m", "m", True),
    ("m > :v", "m", True),
    (":v > n", "n", True),          # n < :v
    (":v <= m", "m", True),         # m >= :v
    ("n <> :v", "n", False),
    ("m BETWEEN :v AND :w", "m", True),
    ("n NOT BETWEEN :v AND :w", "n", False),
    ("m IN (:v, :w, 7)", "m", True),
    ("n NOT IN (:v, :w)", "n", False),
    ("label LIKE :pattern", "label", False),
    ("label NOT LIKE :pattern", "label", False),
    ("m IS NULL", "m", False),
    ("label IS NOT NULL", "label", False),
]
_CASE_PARAMS = {"v": 5, "w": 9, "pattern": "item-1%"}


class TestReadersAgreeOnTheColumn:
    @pytest.mark.parametrize("predicate, column, indexable", _CASES)
    def test_planner_cost_adaptive_and_kernel(self, predicate, column,
                                              indexable):
        db = _indexed()
        sql = f"SELECT oid FROM item WHERE {predicate}"
        (conjunct,) = conjuncts(parse_select(sql).where)
        store = db.table("item")
        views = {"sarg": sarg(conjunct).column}

        # the planner: which index the row plan probes
        row_plan = db.prepare(sql, mode="compiled")
        if indexable:
            assert row_plan.root.access.kind in ("eq", "range", "in")
            views["planner"] = row_plan.root.access.columns[-1]
        else:
            assert row_plan.root.access.kind == "seq"

        # the cost model: which column's learned entry it consults
        memory = _RecordingMemory()
        cost.conjunct_selectivity(store, conjunct, memory)
        asked = {key[1] for key in memory.asked if key[0] in ("eq", "range")}
        if asked:
            (views["cost"],) = asked

        # adaptive: which column's entry one observation feeds
        fed = {key[1] for _table, key
               in adaptive.scan_correction_keys(row_plan.root)
               if key[0] in ("eq", "range")}
        if fed:
            (views["adaptive"],) = fed
        assert asked >= fed  # nothing is learned that is never consulted

        # the batch kernel: which column array it sweeps
        batch_plan = db.prepare(
            sql, mode="columnar", features=PlannerFeatures(access_paths=False)
        )
        assert batch_plan.root.access.kind == "columnar"
        column_store = store.column_store.ensure_synced()
        column_store.columns = recording = _RecordingColumns(
            column_store.columns
        )
        got = batch_plan.execute(_CASE_PARAMS).as_tuples()
        (views["kernel"],) = set(recording.read)

        assert set(views.values()) == {column}, views
        assert sorted(got) == sorted(
            db.prepare(sql, mode="seed").execute(_CASE_PARAMS).as_tuples()
        )


# ---------------------------------------------------------------------------
# (iii) a cached execution fingerprints nothing
# ---------------------------------------------------------------------------


class _CountingRepr:
    """Counts every ``repr()`` of an ``Expr`` node of the given classes
    (dataclass-generated ``__repr__``s, wrapped for the test)."""

    def __init__(self, monkeypatch, classes):
        self.calls = 0
        for cls in classes:
            original = cls.__repr__

            def counted(node, _original=original):
                self.calls += 1
                return _original(node)

            monkeypatch.setattr(cls, "__repr__", counted)


class TestCachedExecutionsFingerprintNothing:
    @pytest.mark.parametrize("sql, params", [
        ("SELECT label FROM item WHERE oid = :oid", {"oid": 7}),
        ("SELECT oid FROM item WHERE label LIKE :p AND n > :v",
         {"p": "item-1%", "v": 3}),
        ("SELECT oid FROM item WHERE n = :v OR UPPER(label) = 'ITEM-03'",
         {"v": 3}),  # a conjunct no Sarg describes still has a key
    ])
    def test_hundred_cached_executions_repr_no_expr(self, monkeypatch, sql,
                                                    params):
        db = _indexed()
        db.adaptive.max_replans = 0  # a replan would be a new plan's first run
        want = db.query(sql, params).as_tuples()  # plans, caches, observes
        fingerprints = []
        real = adaptive.conjunct_fingerprint
        monkeypatch.setattr(
            adaptive, "conjunct_fingerprint",
            lambda conjunct: fingerprints.append(conjunct) or real(conjunct),
        )
        reprs = _CountingRepr(monkeypatch, (
            Comparison, Like, Or, ColumnRef, Param, Literal, FunctionCall,
        ))
        observed = db.adaptive.counters["observations"]
        for _ in range(100):
            assert db.query(sql, params).as_tuples() == want
        assert db.adaptive.counters["observations"] == observed + 100
        assert fingerprints == [] and reprs.calls == 0
        # the keys are still all there for whoever asks
        plan = db.prepare(sql)
        assert adaptive.scan_correction_keys(plan.root)
        assert fingerprints == [] and reprs.calls == 0
