"""Range scans against SQLite, a row-at-a-time pull and the scan they replace.

A base-table scan whose WHERE bounds one column by a range (``<``,
``<=``, ``>``, ``>=`` with the column on either side, or BETWEEN) is a
``RangeScan``: once the range reads of a table version have scanned as
many rows as a sort costs, it bisects the column's sorted copy for the k
rows in range and either gathers them (one ``index_probes``, k
``rows_scanned``) or scans, by price.  A sort whose leading key is that
column walks the copy in order under a LIMIT.

These tests run over ``test_pipelines.py``'s table of three chunks (a
NULL in ``i`` and in ``d`` in chunk 2): generated ranges on the INTEGER,
REAL and VARCHAR columns, with literal, ``?`` and NULL bounds, each held
to SQLite (in scan order), to the plan pulled one row at a time, and to
its prefix under LIMIT / OFFSET.  Every statement first runs until the
column's copy is built, and its counters must be the gather's or, priced
out, the scan's: no case passes because the copy was missing.
"""

from __future__ import annotations

import math
import sqlite3

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import TypeMismatchError
from repro.sqldb import Database
from repro.sqldb.columnar import table_batches
from repro.sqldb.stats import GATHER_TUPLE_COST, PROBE_COST, SEQ_TUPLE_COST
from tests.sqldb.test_differential import one_row_at_a_time
from tests.sqldb.test_expression_oracle import DOUBLES, STRINGS
from tests.sqldb.test_pipelines import ROWS, rounded, tables

#: The column slots of ``p (id, i, d, s, g)`` a range bounds, and bound
#: values: some the column holds, some between or past them.
SLOTS = {"i": 1, "d": 2, "s": 3}
BOUNDS = {
    "i": st.integers(-13, 13),
    "d": st.sampled_from(DOUBLES + [-3.0, 0.1, 1.0, 2.5]),
    "s": st.sampled_from(STRINGS + ["aa", "bb", "d"]),
}
FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}

SETTINGS = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


@pytest.fixture(scope="module")
def engines():
    oracle = sqlite3.connect(":memory:")
    yield tables(oracle), oracle
    oracle.close()


def copy_of(db, column, table="p"):
    """The sorted copy of *column* of the live table (None if there is none)."""
    storage = db.catalog.lookup(table).storage
    slot = storage.schema.column_index(column)
    return table_batches(storage).copies.get(slot)


def built(db, sql, params, column):
    """Run *sql* until the copy of *column* is built; then once more."""
    for __ in range(64):
        if copy_of(db, column) is not None:
            break
        db.execute(sql, params)
    assert copy_of(db, column) is not None
    return db.execute(sql, params).rows


@st.composite
def ranges(draw):
    """``(column, where, params)``: one to two range conjuncts on one
    column, each bound a literal, a ``?`` or NULL."""
    column = draw(st.sampled_from(sorted(SLOTS)))
    params = []

    def bound():
        kind = draw(st.sampled_from(["literal", "literal", "param", "null"]))
        if kind == "null":
            return "NULL"
        value = draw(BOUNDS[column])
        if kind == "param":
            params.append(value)
            return "?"
        return f"'{value}'" if isinstance(value, str) else repr(value)

    terms = []
    for __ in range(draw(st.integers(1, 2))):
        shape = draw(st.sampled_from(["column first", "bound first", "between"]))
        if shape == "between":
            terms.append(f"{column} BETWEEN {bound()} AND {bound()}")
            continue
        operator = draw(st.sampled_from(sorted(FLIPPED)))
        if shape == "column first":
            terms.append(f"{column} {operator} {bound()}")
        else:
            terms.append(f"{bound()} {FLIPPED[operator]} {column}")
    return column, " AND ".join(terms), params


@SETTINGS
@given(case=ranges(), limit=st.sampled_from([1, 3, 100]), offset=st.sampled_from([0, 2, 50]))
def test_a_range_answers_as_the_scan_and_sqlite(engines, case, limit, offset):
    db, oracle = engines
    column, where, params = case
    sql = f"SELECT id, i, d, s FROM p WHERE {where}"
    ours = built(db, sql, params, column)
    counters = db.last_counters
    assert rounded(ours) == rounded(oracle.execute(sql, params).fetchall()), sql
    assert one_row_at_a_time(db, sql, params) == ours, sql
    gathers = PROBE_COST + GATHER_TUPLE_COST * len(ours) < SEQ_TUPLE_COST * ROWS
    expected = (1, len(ours)) if gathers else (0, ROWS)
    assert (counters["index_probes"], counters["rows_scanned"]) == expected, sql
    cut = f"{sql} LIMIT {limit} OFFSET {offset}"
    assert db.execute(cut, params).rows == ours[offset : offset + limit], cut
    assert one_row_at_a_time(db, cut, params) == ours[offset : offset + limit], cut


@SETTINGS
@given(
    column=st.sampled_from(sorted(SLOTS)),
    descending=st.booleans(),
    limit=st.sampled_from([1, 5, 40, 1000]),
    offset=st.sampled_from([0, 7]),
    data=st.data(),
)
def test_order_by_the_range_column_reads_the_top_of_the_order(
    engines, column, descending, limit, offset, data
):
    """``ORDER BY col [DESC], id LIMIT n``: ``d`` and ``s`` hold seven
    values, so a tie group (~700 rows) is longer than most budgets.  The
    answer is SQLite's, and the prefix of the engine's own full sort with
    ``g``, whose ties stay in heap order, as the second key."""
    db, oracle = engines
    low = data.draw(BOUNDS[column])
    bound = f"'{low}'" if isinstance(low, str) else repr(low)
    direction = "DESC" if descending else "ASC"
    base = f"SELECT id, {column}, g FROM p WHERE {column} >= {bound}"
    sql = f"{base} ORDER BY {column} {direction}, id LIMIT {limit} OFFSET {offset}"
    ours = built(db, sql, [], column)
    assert db.last_counters["index_probes"] == 1
    assert rounded(ours) == rounded(oracle.execute(sql).fetchall()), sql
    assert one_row_at_a_time(db, sql) == ours, sql
    by_g = f"{base} ORDER BY {column} {direction}, g"
    full = db.execute(by_g).rows
    assert db.execute(f"{by_g} LIMIT {limit} OFFSET {offset}").rows == full[offset : offset + limit]
    assert db.last_counters["index_probes"] == 1


def test_the_top_of_the_order_reads_only_the_top():
    db = tables()
    sql = "SELECT id, d FROM p WHERE d > -3.0 ORDER BY d DESC, id LIMIT 3"
    top = built(db, sql, [], "d")
    # The walk reads budget + 1 rows, then twice as many, each batch to
    # the end of its tie group: the 713 rows of 2.0 (chunk 2's NULL is one
    # of the 714 the value would have), then the 714 of 1.25, past which
    # the first three are whole.
    assert db.last_counters == {"rows_scanned": 713 + 714, "subquery_executions": 0, "index_probes": 1}
    assert top == [(id_, 2.0) for id_ in (6, 13, 20)]


def outcome(db, sql, params):
    try:
        return db.execute(sql, params).rows
    except TypeMismatchError as error:
        return str(error)


def test_a_string_bound_on_a_real_column_raises_where_the_scan_does():
    """The copy of ``d`` is built, but a string bound makes the range scan
    a scan: the answer or the error is the one of a table whose copy is
    not built yet."""
    db = tables()
    built(db, "SELECT id FROM p WHERE d < 1.0", [], "d")
    fresh = tables()
    for sql, params, raises in [
        ("SELECT id FROM p WHERE d < 'a'", [], True),
        ("SELECT id FROM p WHERE d BETWEEN ? AND 2.0", ["x"], True),
        ("SELECT id FROM p WHERE d < 1.0 AND d < 'a' LIMIT 1", [], True),
        # No row passes ``d > 5.0``, so ``d < 'a'`` is never compared.
        ("SELECT id FROM p WHERE d > 5.0 AND d < 'a'", [], False),
    ]:
        answer = outcome(db, sql, params)
        assert answer == outcome(fresh, sql, params)
        assert isinstance(answer, str) == raises, sql


def reference(db, low, high):
    """The ids whose ``d`` lies in [low, high], from a scan of ``id, d``."""
    rows = db.execute("SELECT id, d FROM p").rows
    return [(id_,) for id_, d in rows if d is not None and low <= d <= high]


class TestTheCopyFollowsTheTableVersion:
    SQL = "SELECT id FROM p WHERE d BETWEEN ? AND ?"

    def test_after_an_update(self):
        db = tables()
        built(db, self.SQL, [0.1, 0.6], "d")
        before = copy_of(db, "d")
        db.execute("UPDATE p SET d = 0.3 WHERE id = 6")
        assert built(db, self.SQL, [0.1, 0.6], "d") == reference(db, 0.1, 0.6)
        assert (6,) in db.execute(self.SQL, [0.1, 0.6]).rows
        assert copy_of(db, "d") is not before

    def test_after_a_rollback(self):
        db = tables()
        answer = built(db, self.SQL, [0.1, 0.6], "d")
        db.execute("BEGIN")
        db.execute("UPDATE p SET d = 0.3 WHERE id = 6")
        assert (6,) in built(db, self.SQL, [0.1, 0.6], "d")
        db.execute("ROLLBACK")
        assert built(db, self.SQL, [0.1, 0.6], "d") == answer == reference(db, 0.1, 0.6)

    def test_under_a_read_only_snapshot(self):
        db = tables()
        answer = built(db, self.SQL, [0.1, 0.6], "d")
        db.execute("BEGIN TRANSACTION READ ONLY", session="reader")
        db.execute("UPDATE p SET d = 0.3 WHERE id = 6")
        for __ in range(64):
            seen = db.execute(self.SQL, [0.1, 0.6], session="reader").rows
            if db.last_counters["index_probes"]:
                break
        assert db.last_counters["index_probes"] == 1
        assert seen == answer
        assert built(db, self.SQL, [0.1, 0.6], "d") == sorted(answer + [(6,)])
        db.execute("COMMIT", session="reader")


def test_a_column_holding_a_nan_gets_no_copy():
    db = Database()
    db.execute("CREATE TABLE n (id INTEGER PRIMARY KEY, f DOUBLE)")
    values = [math.nan if id_ == 500 else id_ / 10 for id_ in range(1000)]
    db.executemany("INSERT INTO n VALUES (?, ?)", list(enumerate(values)))
    for __ in range(40):
        rows = db.execute("SELECT id FROM n WHERE f < 1.0").rows
        assert rows == [(id_,) for id_ in range(10)]
        assert db.last_counters["index_probes"] == 0
    storage = db.catalog.lookup("n").storage
    assert table_batches(storage).copies == {1: None}


def test_a_table_written_between_reads_never_builds_a_copy():
    """Each write is a new table version, which rents afresh: a reader
    that scans once per version never pays for a sort."""
    db = tables()
    for id_ in range(ROWS, ROWS + 40):
        db.execute("INSERT INTO p VALUES (?, 0, 0.5, 'a', 0)", [id_])
        db.execute("SELECT id FROM p WHERE d > 1.0")
        assert db.last_counters["index_probes"] == 0
        chunks = table_batches(db.catalog.lookup("p").storage)
        assert chunks.copies == {} and chunks.rent == {2: len(chunks.rows)}


def test_a_sort_over_a_real_second_key_with_a_nan_sorts_in_full():
    """A second key of a type that can hold a NaN (which orders nothing)
    keeps the sort from walking the range: its answer under a LIMIT is
    the prefix of its full sort."""
    db = Database()
    db.execute("CREATE TABLE n (id INTEGER PRIMARY KEY, v INTEGER, f DOUBLE)")
    rows = [(id_, id_ % 4, math.nan if id_ % 5 == 0 else (id_ * 7) % 11 / 2) for id_ in range(400)]
    db.executemany("INSERT INTO n VALUES (?, ?, ?)", rows)
    sql = "SELECT id FROM n WHERE v >= 1 ORDER BY v DESC, f"
    for __ in range(20):
        full = db.execute(sql).rows
    for limit in (1, 7, 150):
        assert db.execute(f"{sql} LIMIT {limit}").rows == full[:limit]
        assert one_row_at_a_time(db, f"{sql} LIMIT {limit}") == full[:limit]


def test_an_update_or_delete_target_keeps_its_scan():
    db = tables()
    for sql in ("UPDATE p SET g = 1 WHERE d > 1.0", "DELETE FROM p WHERE d BETWEEN 0.0 AND 1.0"):
        lines = [line for (line,) in db.execute(f"EXPLAIN {sql}").rows]
        assert lines[-1].strip() == "-> SeqScan(p)", lines
