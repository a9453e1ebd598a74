"""Pipelines against SQLite, across chunks and column kinds.

Every chain of filters, projections and index joins runs as one
generated loop (``repro.sqldb.pipelines``), whose fast form runs only
where one check of each column's kinds (``Columns.kinds``, kept once per
table version) says it cannot change a result.  These tests run
generated WHERE clauses, select lists, GROUP BY aggregates, DISTINCT and
``ORDER BY … LIMIT`` over a table of three chunks in which the kinds
differ from chunk to chunk, and hold each answer to SQLite and to the
same plan pulled one row at a time (``test_differential.py``):

* chunk 1 holds no NULL, so every precheck passes there;
* chunk 2 holds a NULL in ``i`` and in ``d``, so the prechecks of the
  columns it reads fail there, and only there;
* chunk 3 of a derived table holds a string in the REAL column ``d``
  (a base table coerces every value to its column's type, so a string
  reaches a numeric slot only through an expression): a comparison or
  arithmetic that reads it raises ``TypeMismatchError`` in this engine,
  where SQLite orders or converts it.  There the answer is the one-row
  pull's, and either SQLite's or a typed error.

The expression strategies are ``test_expression_oracle.py``'s; its
catalogue of intentional divergences applies.  SQLite sorts NULL first
ascending, so its ORDER BY keys carry ``NULLS LAST``.

Hash joins, nested loops, DISTINCT and the set operations are steps and
sinks of the same loops: a hash join's table is the sink of its right
input's pipeline, DISTINCT, EXCEPT and INTERSECT the sinks of their left
input's.  They run here over the three chunks too, also under a
``LIMIT``, where the answer is a prefix of the one-row pull's order.  A
filter's ordering comparison over chunk 2's NULL ``d`` makes the fast
form raise and the careful form redo the chunk: a sink's seen set and a
build's table must take each of its rows exactly once.

The kind cache follows the table version: after an UPDATE puts a NULL
into a chunk, and after a ROLLBACK takes it out again, ``<>`` and ``=``
see the chunk's new kinds.
"""

from __future__ import annotations

import sqlite3
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import SQLError
from repro.sqldb import Database
from repro.sqldb.columnar import BATCH_SIZE, table_batches
from repro.sqldb.executor import MAX_FUSED_JOINS, HashJoin, IndexNestedLoopJoin
from repro.sqldb.explain import plan_operators
from repro.sqldb.parser import parse_statement
from tests.sqldb.test_differential import one_row_at_a_time
from tests.sqldb.test_expression_oracle import DOUBLES, STRINGS, boolean, number, string

ROWS = 2 * BATCH_SIZE + 904
#: The rows of chunk 2 holding a NULL in ``i`` and in ``d``.
NULL_I, NULL_D = BATCH_SIZE + 17, BATCH_SIZE + 1500
#: The row of chunk 3 whose ``d`` is a string in the derived table.
STRING_D = 2 * BATCH_SIZE + 400


def _rows():
    return [
        (
            n,
            None if n == NULL_I else n % 23 - 11,
            None if n == NULL_D else DOUBLES[n % len(DOUBLES)],
            STRINGS[n % len(STRINGS)],
            n % 7,
        )
        for n in range(ROWS)
    ]


def tables(oracle=None):
    """``p`` (three chunks) and ``w`` (seven rows, ``wv`` not indexed) in
    the engine and, given one, in *oracle*."""
    db = Database()
    db.execute("CREATE TABLE p (id INTEGER PRIMARY KEY, i INTEGER, d DOUBLE, s VARCHAR(8), g INTEGER)")
    db.executemany("INSERT INTO p VALUES (?, ?, ?, ?, ?)", _rows())
    wide = [(g, DOUBLES[g]) for g in range(7)]
    db.execute("CREATE TABLE w (wid INTEGER PRIMARY KEY, wv DOUBLE)")
    db.executemany("INSERT INTO w VALUES (?, ?)", wide)
    if oracle is not None:
        oracle.execute("CREATE TABLE p (id, i, d, s, g)")
        oracle.executemany("INSERT INTO p VALUES (?, ?, ?, ?, ?)", _rows())
        oracle.execute("CREATE TABLE w (wid, wv)")
        oracle.executemany("INSERT INTO w VALUES (?, ?)", wide)
    assert [len(chunk) for chunk in table_batches(db.catalog.lookup("p").storage)] == [
        BATCH_SIZE,
        BATCH_SIZE,
        ROWS - 2 * BATCH_SIZE,
    ]
    return db


@pytest.fixture(scope="module")
def engines():
    oracle = sqlite3.connect(":memory:")
    yield tables(oracle), oracle
    oracle.close()


@pytest.fixture(scope="module")
def analyzed(engines):
    """The same tables with statistics, so a single-table conjunct runs
    below a join (here: inside a hash join's build pipeline)."""
    db = tables()
    db.execute("ANALYZE")
    return db, engines[1]


def rounded(rows):
    return [
        tuple(round(value, 6) if isinstance(value, float) else value for value in row)
        for row in rows
    ]


def check(engines, sql, sqlite_sql=None, ordered=False, typed_error=False):
    """*sql* answers as SQLite does (as lists when *ordered*) and as its
    plan pulled one row at a time does; with *typed_error* the engine may
    raise an ``SQLError`` instead, the one-row pull too."""
    db, oracle = engines
    try:
        ours = db.execute(sql).rows
    except SQLError:
        if not typed_error:
            raise
        with pytest.raises(SQLError):
            one_row_at_a_time(db, sql)
        return
    assert one_row_at_a_time(db, sql) == ours, sql
    theirs = oracle.execute(sqlite_sql or sql).fetchall()
    if ordered:
        assert rounded(ours) == rounded(theirs), sql
    else:
        assert Counter(rounded(ours)) == Counter(rounded(theirs)), sql


def check_limited(engines, sql, limit):
    """*sql* under ``LIMIT`` *limit*: the first rows of the one-row pull's
    order, as many as SQLite's whole answer allows, each one of its rows."""
    db, oracle = engines
    ours = db.execute(f"{sql} LIMIT {limit}").rows
    assert one_row_at_a_time(db, f"{sql} LIMIT {limit}") == ours, sql
    theirs = Counter(rounded(oracle.execute(sql).fetchall()))
    assert len(ours) == min(limit, sum(theirs.values())), sql
    assert not Counter(rounded(ours)) - theirs, sql


SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

GROUP_KEYS = st.sampled_from(["s", "g", "i % 5", "d", "s || 'x'", "g, s"])


@SETTINGS
@given(where=boolean(2), value=number(2), text=string(1))
def test_filter_and_select_list(engines, where, value, text):
    check(engines, f"SELECT id, {value}, {text} FROM p WHERE {where}")


@SETTINGS
@given(where=boolean(2), key=GROUP_KEYS, value=number(1))
def test_grouped_aggregates(engines, where, key, value):
    check(
        engines,
        f"SELECT {key}, COUNT(*), COUNT({value}), SUM({value}), MIN({value}), "
        f"MAX(s), AVG(d) FROM p WHERE {where} GROUP BY {key}",
    )


@SETTINGS
@given(where=boolean(1), value=number(1))
def test_aggregates_without_group_by(engines, where, value):
    check(engines, f"SELECT COUNT(*), SUM({value}), MAX({value}) FROM p WHERE {where}")


@SETTINGS
@given(where=boolean(2), key=GROUP_KEYS)
def test_distinct(engines, where, key):
    check(engines, f"SELECT DISTINCT {key} FROM p WHERE {where}")


@SETTINGS
@given(
    where=boolean(1),
    value=number(1),
    descending=st.booleans(),
    limit=st.sampled_from([1, 5, 20, BATCH_SIZE + 1, ROWS]),
)
def test_order_by_limit(engines, where, value, descending, limit):
    direction, nulls = ("DESC", "NULLS FIRST") if descending else ("ASC", "NULLS LAST")
    # ``0 + ...``: a bare integer literal would name a select-list column.
    tail = f"ORDER BY 0 + {value} {direction}{{}}, id LIMIT {limit}"
    sql = f"SELECT id, {value}, s FROM p WHERE {where} {tail}"
    check(engines, sql.format(""), sql.format(f" {nulls}"), ordered=True)


@SETTINGS
@given(where=boolean(1), value=number(1))
def test_index_join_in_the_pipeline(engines, where, value):
    """A scan's chunks drive probes of ``w``'s primary key: the left rows'
    columns and the probed rows are read in one loop."""
    check(
        engines,
        f"SELECT p.id, w.wid, w.wv * {value} FROM p JOIN w ON w.wid = p.g "
        f"WHERE {where} AND w.wv > -1.5",
    )


LIMITS = st.sampled_from([1, 7, 64, BATCH_SIZE + 1])


@SETTINGS
@given(where=boolean(1), value=number(1), limit=LIMITS)
def test_a_hash_join_in_the_pipeline(engines, where, value, limit):
    """``w.wv`` is not indexed: each ``p.d`` looks up a table built from
    ``w`` (chunk 2's NULL ``d`` finds nothing)."""
    sql = f"SELECT p.id, w.wid, {value} FROM p JOIN w ON w.wv = p.d WHERE {where}"
    assert "HashJoin(1 key(s))" in plan_text(engines[0], sql)
    check(engines, sql)
    check_limited(engines, sql, limit)


@SETTINGS
@given(where=boolean(1), value=number(1), limit=LIMITS)
def test_a_left_nested_loop_with_a_residual(engines, where, value, limit):
    sql = (
        f"SELECT p.id, w.wid, {value} FROM p LEFT JOIN w ON w.wv < p.d AND w.wid > 2 "
        f"WHERE {where}"
    )
    assert "NestedLoopJoin(LEFT)" in plan_text(engines[0], sql)
    check(engines, sql)
    check_limited(engines, sql, limit)


@SETTINGS
@given(where=boolean(1), limit=LIMITS)
def test_a_cross_join_under_a_filter(engines, where, limit):
    sql = f"SELECT p.id, w.wid, w.wv FROM p, w WHERE {where} AND w.wid < 3"
    assert "NestedLoopJoin(CROSS)" in plan_text(engines[0], sql)
    check(engines, sql)
    check_limited(engines, sql, limit)


SET_OPERATIONS = [
    "SELECT g, s FROM p WHERE {} UNION SELECT wid, 'x' FROM w",
    "SELECT i, g FROM p WHERE {} EXCEPT SELECT wid, wid - 3 FROM w",
    "SELECT g FROM p WHERE {} INTERSECT SELECT wid FROM w WHERE wv > 0",
]


@SETTINGS
@given(where=boolean(2), template=st.sampled_from(SET_OPERATIONS), limit=LIMITS)
def test_set_operations(engines, where, template, limit):
    sql = template.format(where)
    check(engines, sql)
    check_limited(engines, sql, limit)


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT DISTINCT id, g FROM p WHERE d < 100",
        "SELECT id FROM p WHERE d < 100 EXCEPT SELECT wid FROM w",
        "SELECT id FROM p WHERE d < 100 INTERSECT SELECT id FROM p WHERE d > -100",
    ],
)
def test_a_sink_takes_a_redone_chunk_once(engines, sql):
    """``d < 100`` raises in the fast form at chunk 2's NULL ``d``, after
    the chunk's earlier rows, and the careful form redoes the chunk."""
    check(engines, sql)
    assert len(engines[0].execute(sql).rows) == ROWS - 1 - (sql.count("EXCEPT") * 7)


def test_a_build_takes_a_redone_chunk_once(analyzed):
    """With statistics ``p.d < 100`` runs in the build pipeline of ``p``,
    whose fast form chunk 2 makes the careful form redo."""
    sql = "SELECT w.wid, p.id FROM w JOIN p ON p.g = w.wid WHERE p.d < 100"
    lines = plan_text(analyzed[0], sql).splitlines()
    assert lines[2:6] == [
        "    -> HashJoin(1 key(s)) (est_rows=4999)",
        "      -> SeqScan(w) (est_rows=7)",
        "      -> Filter (est_rows=4999)",
        "        -> RangeScan(p by d) (est_rows=5000)",
    ]
    check(analyzed, sql)
    assert len(analyzed[0].execute(sql).rows) == ROWS - 1


def test_a_chain_of_hash_joins_is_cut_into_pipelines(engines):
    """``MAX_FUSED_JOINS + 2`` hash joins, no index: every join step counts
    towards the cut, each pipeline compiles, and the answer is SQLite's."""
    db, oracle = engines
    count = MAX_FUSED_JOINS + 2
    for n in range(count):
        rows = [(i, (i * 7 + n) % 40) for i in range(40)]
        db.execute(f"CREATE TABLE h{n} (id INTEGER, nxt INTEGER)")
        db.executemany(f"INSERT INTO h{n} VALUES (?, ?)", rows)
        oracle.execute(f"CREATE TABLE h{n} (id, nxt)")
        oracle.executemany(f"INSERT INTO h{n} VALUES (?, ?)", rows)
    joins = " ".join(f"JOIN h{n} ON h{n}.id = h{n - 1}.nxt" for n in range(1, count))
    sql = f"SELECT h0.id, h{count - 1}.id, h{count - 1}.nxt FROM h0 {joins} WHERE h0.id < 30"
    plan = db.plan_statement(parse_statement(sql))
    built = [op for op in plan_operators(plan) if isinstance(op, HashJoin)]
    assert len(built) == count - 1
    assert not any(isinstance(op, IndexNestedLoopJoin) for op in plan_operators(plan))
    assert sum(not op.fused for op in built) >= 2
    check(engines, sql)


def plan_text(db, sql):
    return "\n".join(line for (line,) in db.execute(f"EXPLAIN {sql}").rows)


DERIVED = (
    "(SELECT id, i, CASE WHEN id = {} THEN 'x' ELSE d END AS d, s, g FROM p) AS q"
).format(STRING_D)


@SETTINGS
@given(where=boolean(1), value=number(1))
def test_a_string_in_one_chunk_of_a_real_column(engines, where, value):
    check(
        engines,
        f"SELECT id, {value} FROM {DERIVED} WHERE {where}",
        typed_error=True,
    )


def test_the_derived_string_fails_only_where_it_is_read(engines):
    db, __ = engines
    assert len(db.execute(f"SELECT id FROM {DERIVED} WHERE i > 100").rows) == 0
    with pytest.raises(SQLError):
        db.execute(f"SELECT id FROM {DERIVED} WHERE d > 100")


# -- the kind cache follows the table version ----------------------------------


@pytest.fixture
def kinds_db():
    db = Database()
    db.execute("CREATE TABLE k (id INTEGER PRIMARY KEY, n INTEGER, t VARCHAR(4))")
    db.executemany("INSERT INTO k VALUES (?, ?, ?)", [(i, i % 10, "a") for i in range(ROWS)])
    return db


ROW = BATCH_SIZE + 11  # a row of chunk 2, its n is 9


class TestKindCache:
    def test_a_chunk_keeps_its_kinds_until_the_table_changes(self, kinds_db):
        storage = kinds_db.catalog.lookup("k").storage
        kinds_db.execute("SELECT id FROM k WHERE n <> 7")
        kinds = table_batches(storage)[1].columns.kinds
        assert kinds[1] == {int}
        kinds_db.execute("SELECT id FROM k WHERE n <> 3")
        assert table_batches(storage)[1].columns.kinds is kinds
        kinds_db.execute("UPDATE k SET n = NULL WHERE id = ?", [ROW])
        assert table_batches(storage)[1].columns.kinds[1] == {int, type(None)}

    def test_not_equal_sees_a_null_an_update_put_into_a_chunk(self, kinds_db):
        sql = "SELECT COUNT(*) FROM k WHERE n <> 7"
        before = kinds_db.execute(sql).scalar()
        kinds_db.execute("UPDATE k SET n = NULL WHERE id = ?", [ROW])
        # NULL <> 7 is UNKNOWN: the row leaves the answer (a fast form
        # over stale kinds would find None != 7 true and keep it).
        assert kinds_db.execute(sql).scalar() == before - 1

    def test_equality_sees_the_kinds_a_rollback_restores(self, kinds_db):
        sql = "SELECT n = 9, t <> 'b' FROM k WHERE id >= ?"
        assert kinds_db.execute(sql, [ROW]).rows[0] == (True, True)
        kinds_db.execute("BEGIN")
        kinds_db.execute("UPDATE k SET n = NULL, t = NULL WHERE id = ?", [ROW])
        assert kinds_db.execute(sql, [ROW]).rows[0] == (None, None)
        kinds_db.execute("ROLLBACK")
        assert kinds_db.execute(sql, [ROW]).rows[0] == (True, True)
        assert kinds_db.execute("SELECT COUNT(*) FROM k WHERE n <> 7").scalar() == ROWS - ROWS // 10
