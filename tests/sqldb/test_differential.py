"""Differential row-oracle tests: columnar == row, query by query.

The row operators are the semantics oracle for the vectorized pipeline.
Every query in the shared corpus — the 25-template ``repro.analysis``
corpus (the statements the PDM layer actually emits) plus an
engine-level corpus covering each vectorizable operator — runs twice,
once as the engine chooses and once under the ``row_operators`` fixture
(``tests/conftest.py``), which forces the row operators, and must
produce *identical ordered* results: same columns, same rows, same
order.  ``last_executor`` proves each side ran where it claims.  A query
that raises must raise an :class:`~repro.errors.SQLError` subclass on
both sides (the exact subclass and message may differ when
column-at-a-time evaluation meets an error on a different row first;
see DESIGN.md §10).

A hypothesis-driven test generates random filters/projections over a
seeded table so the corpus is not limited to shapes we thought of.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError, SQLError
from repro.sqldb.columnar import BATCH_SIZE
from repro.sqldb.database import Database

#: ``last_executor`` of a SELECT that ran under the ``row_operators`` oracle.
ORACLE = "row (columnar fallback: row oracle)"


def run_differential(db: Database, sql: str, params=(), *, oracle, vectorizes):
    """Run *sql* on both operator sets; assert the oracle contract;
    return rows.

    Either both sides succeed with identical ordered results, or both
    raise an ``SQLError``.  *oracle* is the ``row_operators`` fixture.
    The oracle side must have run on the row operators because the oracle
    said so, the other side must not have; *vectorizes* pins whether the
    engine's own choice was the batch pipeline, so a corpus cannot
    silently compare the row path with itself.
    """
    row_error = columnar_error = None
    row_result = columnar_result = None
    try:
        with oracle():
            row_result = db.execute(sql, params)
    except SQLError as exc:
        row_error = exc
    oracle_executor = db.last_executor
    try:
        columnar_result = db.execute(sql, params)
    except SQLError as exc:
        columnar_error = exc
    # ``last_executor`` is None when the statement failed before running.
    assert oracle_executor in (ORACLE, None), sql
    assert db.last_executor != ORACLE, sql
    assert (db.last_executor == "columnar") is vectorizes, (sql, db.last_executor)

    if row_error is not None or columnar_error is not None:
        assert row_error is not None, (
            f"columnar raised {columnar_error!r} but row succeeded: {sql}"
        )
        assert columnar_error is not None, (
            f"row raised {row_error!r} but columnar succeeded: {sql}"
        )
        return None

    assert columnar_result.columns == row_result.columns, sql
    assert columnar_result.rows == row_result.rows, sql
    return row_result.rows


def parameter_count(sql: str) -> int:
    """``?`` placeholders outside string literals."""
    return re.sub(r"'[^']*'", "", sql).count("?")


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


#: The PDM templates whose plan is index probes under filter, projection
#: and union.  Every other template joins through an index, materialises a
#: CTE or takes a set difference, which only the row operators implement
#: (ROADMAP item 1), so there the engine's own choice is the row side too.
VECTORIZING_TEMPLATES = {
    "set-query",
    "fetch-object-assy",
    "fetch-object-comp",
    "where-used-parents",
}


@pytest.mark.parametrize(
    "name,sql", pdm_select_templates(), ids=[n for n, _ in pdm_select_templates()]
)
def test_pdm_template_corpus_differential(figure2_db, row_operators, name, sql):
    params = tuple([1] * parameter_count(sql))  # Figure 2 root obid
    run_differential(
        figure2_db,
        sql,
        params,
        oracle=row_operators,
        vectorizes=name in VECTORIZING_TEMPLATES,
    )


def test_pdm_corpus_covers_every_template():
    """The SELECT slice of the corpus must not silently shrink."""
    assert len(pdm_select_templates()) >= 20


# ---------------------------------------------------------------------------
# Engine-level corpus: one seeded table pair, every vectorizable shape.
# ---------------------------------------------------------------------------

ENGINE_CORPUS = [
    # scans / filters / three-valued logic
    "SELECT * FROM t",
    "SELECT a, b FROM t WHERE v < 40",
    "SELECT id FROM t WHERE v < 40 AND b < 500",
    "SELECT id FROM t WHERE v < 10 OR b > 900",
    "SELECT id FROM t WHERE NOT (v < 40)",
    "SELECT id FROM t WHERE n IS NULL",
    "SELECT id FROM t WHERE n IS NOT NULL",
    "SELECT id FROM t WHERE n > 5",
    "SELECT id FROM t WHERE n > 5 OR v < 3",
    "SELECT id FROM t WHERE v BETWEEN 10 AND 20",
    "SELECT id FROM t WHERE v IN (1, 2, 3, NULL)",
    "SELECT id FROM t WHERE s LIKE 'name-1%'",
    "SELECT id FROM t WHERE s LIKE '%7'",
    # projections / expressions
    "SELECT a + b, v * 2 FROM t WHERE v >= 5",
    "SELECT a - b, -v FROM t",
    "SELECT s || '-x' FROM t WHERE v < 5",
    "SELECT CAST(v AS VARCHAR(10)) FROM t WHERE v < 5",
    "SELECT CASE WHEN v < 10 THEN 'lo' ELSE 'hi' END FROM t",
    "SELECT n + 1 FROM t",
    # joins (dim.k is NOT indexed, so the planner hash-joins)
    "SELECT t.id, dim.label FROM t JOIN dim ON t.v = dim.k",
    "SELECT t.id, dim.label FROM t LEFT JOIN dim ON t.v = dim.k",
    "SELECT t.id, dim.label FROM t JOIN dim ON t.v = dim.k WHERE dim.k < 20",
    "SELECT t.id FROM t JOIN dim ON t.n = dim.k",  # NULL join keys never match
    # aggregation
    "SELECT COUNT(*) FROM t",
    "SELECT COUNT(n), SUM(n), MIN(n), MAX(n), AVG(n) FROM t",
    "SELECT v, COUNT(*), SUM(a) FROM t GROUP BY v",
    "SELECT v, COUNT(*) FROM t GROUP BY v HAVING COUNT(*) > 3",
    "SELECT COUNT(DISTINCT n), SUM(DISTINCT n), AVG(n) FROM t",
    "SELECT v, COUNT(DISTINCT n), SUM(DISTINCT n), AVG(n) FROM t GROUP BY v",
    "SELECT COUNT(*) FROM empty",
    "SELECT SUM(k) FROM empty",
    # sort / distinct / limit / offset / set ops
    "SELECT v FROM t ORDER BY v DESC, id ASC",
    "SELECT n FROM t ORDER BY n",
    "SELECT DISTINCT v FROM t",
    "SELECT DISTINCT n FROM t WHERE v < 10",
    "SELECT id FROM t ORDER BY id LIMIT 7",
    "SELECT id FROM t ORDER BY id LIMIT 5 OFFSET 95",
    # a negative OFFSET skips nothing (it once re-emitted the batch's tail)
    "SELECT id FROM t OFFSET -1",
    "SELECT id FROM t OFFSET ?",
    "SELECT id FROM t LIMIT 2 OFFSET -1",
    "SELECT v FROM t WHERE v < 3 UNION ALL SELECT k FROM dim WHERE k < 3",
    # a scalar subquery has no kernel: its row closure runs over the batch
    "SELECT v, (SELECT MAX(k) FROM dim) FROM t WHERE v < 3",
    "SELECT v FROM t WHERE id = 4",  # primary-key index lookup
    # shapes with no batch plan (see ROW_ONLY): the engine itself picks the
    # row operators, silently
    "SELECT x.id FROM (SELECT id FROM t WHERE v < 5) AS x",
    "WITH small AS (SELECT id, v FROM t WHERE v < 5) SELECT * FROM small",
]

#: Parameters of the corpus queries that take any.
CORPUS_PARAMS = {"SELECT id FROM t OFFSET ?": (-2,)}

#: The corpus queries whose plan does not vectorize; every other one must.
ROW_ONLY = {
    "SELECT t.id, dim.label FROM t LEFT JOIN dim ON t.v = dim.k",  # nested loop
    "SELECT x.id FROM (SELECT id FROM t WHERE v < 5) AS x",
    "WITH small AS (SELECT id, v FROM t WHERE v < 5) SELECT * FROM small",
}


@pytest.fixture(scope="module")
def engine_db() -> Database:
    db = Database()
    db.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER,"
        " v INTEGER, n INTEGER, s VARCHAR(20))"
    )
    db.execute("CREATE TABLE dim (k INTEGER, label VARCHAR(20))")
    db.execute("CREATE TABLE empty (k INTEGER)")
    rows = [
        (i, i * 3, (i * 7) % 1000, i % 50, None if i % 3 == 0 else i % 11, f"name-{i}")
        for i in range(500)
    ]
    db.executemany("INSERT INTO t VALUES (?, ?, ?, ?, ?, ?)", rows)
    db.executemany(
        "INSERT INTO dim VALUES (?, ?)", [(k, f"label-{k}") for k in range(0, 50, 2)]
    )
    return db


@pytest.mark.parametrize("sql", ENGINE_CORPUS)
def test_engine_corpus_differential(engine_db, row_operators, sql):
    run_differential(
        engine_db,
        sql,
        CORPUS_PARAMS.get(sql, ()),
        oracle=row_operators,
        vectorizes=sql not in ROW_ONLY,
    )


def test_division_error_raises_in_both_modes(engine_db, row_operators):
    # Column-at-a-time evaluation may hit the failing row in a different
    # order, but both executors must surface an SQLError.
    for sql in ("SELECT 10 / (v - v) FROM t", "SELECT id FROM t WHERE 10 / n > 1"):
        assert (
            run_differential(engine_db, sql, oracle=row_operators, vectorizes=True)
            is None
        )


@pytest.mark.parametrize(
    "where",
    ["s < 5", "5 > s", "v = 'x'", "s BETWEEN 1 AND 2", "v NOT BETWEEN 'a' AND 'z'"],
)
def test_comparing_a_string_with_a_number_raises_in_both_modes(
    engine_db, row_operators, where
):
    # A column-vs-literal comparison and BETWEEN take fast paths on both
    # operator sets; a kind mismatch must still raise, not compare.
    assert (
        run_differential(
            engine_db,
            f"SELECT id FROM t WHERE {where}",
            oracle=row_operators,
            vectorizes=True,
        )
        is None
    )


def test_masked_conjunction_guards_division(engine_db, row_operators):
    # The AND kernel must not evaluate the right operand on rows the left
    # already rejected — otherwise this guarded division would blow up on
    # v = 0 rows on the batch operators only.
    rows = run_differential(
        engine_db,
        "SELECT id FROM t WHERE v <> 0 AND 100 / v > 10",
        oracle=row_operators,
        vectorizes=True,
    )
    assert rows  # the guard admits rows, it doesn't just mask errors


# ---------------------------------------------------------------------------
# The one documented divergence (DESIGN.md §10): a batch is evaluated whole
# before LIMIT sees it.  Pinned per operator set so it cannot drift silently;
# the cure (a row budget handed down from Limit) is ROADMAP item 3.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "sql,row_answer",
    [
        ("SELECT 10 / v FROM t LIMIT 2", [(2,), (2,)]),
        ("SELECT id FROM t WHERE 10 / v > 1 LIMIT 1", [(0,)]),
    ],
)
def test_error_past_the_limit_is_raised_only_by_the_batch_operators(
    row_operators, sql, row_answer
):
    db = Database()
    db.execute("CREATE TABLE t (id INTEGER, v INTEGER)")
    # v = 0 at id 5: past what the row operators read to fill the LIMIT.
    db.executemany("INSERT INTO t VALUES (?, ?)", [(i, 5 - i) for i in range(10)])
    with row_operators():
        assert db.execute(sql).rows == row_answer
    assert db.last_executor == ORACLE
    with pytest.raises(ExecutionError, match="division by zero"):
        db.execute(sql)
    assert db.last_executor == "columnar"


def test_rows_scanned_under_limit_is_batch_granular(row_operators):
    db = Database()
    db.execute("CREATE TABLE big (id INTEGER)")
    db.executemany("INSERT INTO big VALUES (?)", [(i,) for i in range(5000)])
    sql = "SELECT id FROM big LIMIT 3"
    with row_operators():
        row_rows = db.execute(sql).rows
    assert db.last_counters["rows_scanned"] == 3
    assert db.execute(sql).rows == row_rows
    assert db.last_executor == "columnar"
    assert db.last_counters["rows_scanned"] == BATCH_SIZE


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
def test_random_filter_projection_differential(
    engine_db, row_operators, select, where
):
    run_differential(
        engine_db,
        f"SELECT {select} FROM t WHERE {where}",
        oracle=row_operators,
        vectorizes=True,
    )
