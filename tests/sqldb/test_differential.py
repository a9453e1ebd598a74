"""One plan, any batch size: the rows a plan returns do not depend on how
its operators chunk them.

Every operator runs on batches, and the budget a consumer hands down caps
how many rows a producer puts in one (``repro.sqldb.executor``).  Every
query of the shared corpus — the PDM template corpus (the statements the
PDM layer actually emits) and the engine-level corpus of
``test_sqlite_oracle.py`` — runs twice: as the engine runs it, and pulled
from its root under a budget of one row, which every pipeline below a
sort, aggregate or join build hands down to its scans and probes.  Both
must return *identical ordered* results; a query that raises must raise
an :class:`~repro.errors.SQLError` both ways.  SQLite is the semantic
reference (``test_sqlite_oracle.py``, ``test_expression_oracle.py``);
this file holds the engine to one answer however it is pulled, and pins
what a ``LIMIT`` evaluates (DESIGN §10).

A hypothesis-driven test generates random filters/projections over the
seeded table, checked both ways and against SQLite.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError, SQLError
from repro.sqldb.database import Database
from repro.sqldb.executor import ExecutionEnv
from repro.sqldb.parser import parse_statement
from repro.sqldb.recursive import materialize_cte
from tests.sqldb.test_sqlite_oracle import (  # noqa: F401 — fixtures
    CORPUS_PARAMS,
    ENGINE_CORPUS,
    engine_db,
    engine_oracle,
    parameter_count,
)


def one_row_at_a_time(db: Database, sql: str, params=()):
    """*sql*'s rows pulled from its plan's root under a budget of one."""
    plan = db.plan_statement(parse_statement(sql))
    env = ExecutionEnv(params=params, functions=db.functions)
    for cte in plan.ctes:
        materialize_cte(cte, env)
    rows = []
    for batch in plan.root.batches(env, 1):
        assert len(batch) == 1
        rows += batch
    return rows


def run_differential(db: Database, sql: str, params=()):
    """Run *sql* both ways; assert they agree; return its rows (None when
    it raised both ways)."""
    errors = []
    results = []
    for run in (lambda: db.execute(sql, params).rows, lambda: one_row_at_a_time(db, sql, params)):
        try:
            results.append(run())
        except SQLError as exc:
            errors.append(exc)
    if errors:
        assert len(errors) == 2, f"{sql} raised only one way: {errors!r}"
        return None
    assert results[0] == results[1], sql
    return results[0]


# ---------------------------------------------------------------------------
# The PDM template corpus (repro.analysis), bound to the Figure 2 root.
# ---------------------------------------------------------------------------


def pdm_select_templates():
    from repro.analysis.templates import template_queries

    return [
        (name, sql)
        for name, sql in template_queries()
        if sql.lstrip().upper().startswith(("SELECT", "WITH"))
    ]


@pytest.mark.parametrize(
    "name,sql", pdm_select_templates(), ids=[n for n, _ in pdm_select_templates()]
)
def test_pdm_template_corpus_differential(figure2_db, name, sql):
    params = tuple([1] * parameter_count(sql))  # Figure 2 root obid
    assert run_differential(figure2_db, sql, params) is not None


def test_pdm_corpus_covers_every_template():
    """The SELECT slice of the corpus must not silently shrink."""
    assert len(pdm_select_templates()) >= 20


# ---------------------------------------------------------------------------
# Engine-level corpus.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("sql", ENGINE_CORPUS)
def test_engine_corpus_differential(engine_db, sql):
    assert run_differential(engine_db, sql, CORPUS_PARAMS.get(sql, ())) is not None


def test_division_error_raises_in_both_modes(engine_db):
    for sql in ("SELECT 10 / (v - v) FROM t", "SELECT id FROM t WHERE 10 / n > 1"):
        assert run_differential(engine_db, sql) is None


@pytest.mark.parametrize(
    "where",
    ["s < 5", "5 > s", "v = 'x'", "s BETWEEN 1 AND 2", "v NOT BETWEEN 'a' AND 'z'"],
)
def test_comparing_a_string_with_a_number_raises_in_both_modes(engine_db, where):
    # A column-vs-literal comparison and BETWEEN take fast paths in the
    # batch loop; a kind mismatch must still raise, not compare.
    assert run_differential(engine_db, f"SELECT id FROM t WHERE {where}") is None


def test_masked_conjunction_guards_division(engine_db):
    # The AND must not evaluate the right operand on rows the left already
    # rejected — otherwise this guarded division would blow up on v = 0.
    rows = run_differential(engine_db, "SELECT id FROM t WHERE v <> 0 AND 100 / v > 10")
    assert rows  # the guard admits rows, it doesn't just mask errors


# ---------------------------------------------------------------------------
# A LIMIT hands its count down as the budget: producers stop where the
# rows it returns end (DESIGN §10).  What is left of row-at-a-time
# evaluation is that an operator finishes the batch it works on: a filter
# cannot know how many of its input rows pass, so it reads a budget's
# worth at a time, and a join tests every match of the left rows in its
# batch.  Both are pinned here.
# ---------------------------------------------------------------------------


@pytest.fixture
def zero_at_five() -> Database:
    db = Database()
    db.execute("CREATE TABLE t (id INTEGER, v INTEGER)")
    # v = 0 at id 5: past what a row-at-a-time engine reads to fill the
    # LIMITs below.
    db.executemany("INSERT INTO t VALUES (?, ?)", [(i, 5 - i) for i in range(10)])
    return db


@pytest.mark.parametrize(
    "sql,answer",
    [
        ("SELECT 10 / v FROM t LIMIT 2", [(2,), (2,)]),
        ("SELECT id FROM t WHERE 10 / v > 1 LIMIT 1", [(0,)]),
        ("SELECT 10 / v FROM t LIMIT 2 OFFSET 3", [(5,), (10,)]),
    ],
)
def test_no_error_past_the_limit(zero_at_five, sql, answer):
    assert zero_at_five.execute(sql).rows == answer


def test_a_filter_reads_a_budget_ahead(zero_at_five):
    # Row at a time: ids 2, 3 and 4 pass (v = 3, 2, 1) and the LIMIT is
    # full before id 5.  Under a budget of three the filter reads ids 0-2
    # (one passes), then ids 3-5 — and v = 0 at id 5.
    with pytest.raises(ExecutionError, match="division by zero"):
        zero_at_five.execute("SELECT id FROM t WHERE 10 / v > 2 LIMIT 3")


def test_a_join_tests_every_match_of_its_left_batch():
    # Row at a time: (1, 5) passes and the LIMIT is full before the
    # second match of id 1, (1, 0), is tested.  The index join tests both
    # matches of the one-row left batch before it returns any.
    db = Database()
    db.execute("CREATE TABLE l (id INTEGER)")
    db.execute("CREATE TABLE r (k INTEGER, v INTEGER)")
    db.execute("CREATE INDEX r_k ON r (k)")
    db.executemany("INSERT INTO l VALUES (?)", [(1,), (2,)])
    db.executemany("INSERT INTO r VALUES (?, ?)", [(1, 5), (1, 0), (2, 5)])
    sql = "SELECT l.id, r.v FROM l JOIN r ON r.k = l.id AND 10 / r.v > 1"
    assert any("IndexNestedLoopJoin" in line for (line,) in db.execute(f"EXPLAIN {sql}").rows)
    with pytest.raises(ExecutionError, match="division by zero"):
        db.execute(f"{sql} LIMIT 1")


def test_rows_scanned_under_limit_is_the_limit():
    db = Database()
    db.execute("CREATE TABLE big (id INTEGER)")
    db.executemany("INSERT INTO big VALUES (?)", [(i,) for i in range(5000)])
    assert db.execute("SELECT id FROM big LIMIT 3").rows == [(0,), (1,), (2,)]
    assert db.last_counters["rows_scanned"] == 3


# ---------------------------------------------------------------------------
# Hypothesis: random filters and projections over the seeded table.
# ---------------------------------------------------------------------------

COLUMNS = ("a", "b", "v", "n")

comparison = st.tuples(
    st.sampled_from(COLUMNS),
    st.sampled_from(("<", "<=", ">", ">=", "=", "<>")),
    st.integers(min_value=-5, max_value=60),
    st.booleans(),
).map(lambda t: f"{t[0]} {t[1]} {t[2]}" if t[3] else f"{t[2]} {t[1]} {t[0]}")

between = st.tuples(
    st.sampled_from(COLUMNS),
    st.sampled_from(("", "NOT ")),
    st.integers(min_value=-5, max_value=60),
    st.sampled_from(("5", "30.5", "n", "NULL")),
).map(lambda t: f"{t[0]} {t[1]}BETWEEN {t[2]} AND {t[3]}")

predicate = st.recursive(
    comparison | between,
    lambda inner: st.tuples(inner, st.sampled_from(("AND", "OR")), inner).map(
        lambda t: f"({t[0]} {t[1]} {t[2]})"
    ),
    max_leaves=4,
)

projection = st.lists(
    st.sampled_from(COLUMNS + ("a + b", "v * 2", "b - v", "id")),
    min_size=1,
    max_size=4,
).map(", ".join)


@settings(max_examples=60, deadline=None)
@given(select=projection, where=predicate)
def test_random_filter_projection_differential(engine_db, engine_oracle, select, where):
    sql = f"SELECT {select} FROM t WHERE {where}"
    rows = run_differential(engine_db, sql)
    assert Counter(rows) == Counter(engine_oracle.execute(sql).fetchall()), sql
