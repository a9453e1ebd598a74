"""GROUP BY over group numbers against SQLite, a first-kept-row reference
and the dict loop.

Over a base table's cached chunks, a GROUP BY whose keys are source slots
finds each row's group by a list index into the chunk's group numbers
(``columnar.group_numbers``), built once the table version's grouped
reads have scanned as many rows as it holds; every other batch (a range
scan's gather, a derived table's rows, the version's first read) keeps
the loop that looks its key up in a dict.  A group is made at its first
kept row and keyed by that row's values, so both loops give one answer:
the same groups in the same order, the same key objects (``-0.0`` where
that row holds ``-0.0``), the same aggregate values and types.

The table is ``test_pipelines``' three chunks, with key columns added:
``z`` holds ``0.0`` and ``-0.0`` (equal keys), ``n`` NaNs (one shared
NaN object, one group; other NaN objects, a group each), ``c`` strings
that differ only in case, ``f`` booleans, and ``w`` distinct weights for
range scans.  ``1``, ``1.0`` and ``True`` are one key; a base column
holds one of them only, so they meet in a derived table.  SQLite stores
a NaN as NULL, so statements reading ``n`` are held to the reference
alone.
"""

from __future__ import annotations

import math
import sqlite3
from collections import Counter

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.sqldb import Database
from repro.sqldb.columnar import BATCH_SIZE, table_batches
from repro.sqldb.functions import fold
from tests.sqldb.aggregator_oracle import Aggregator
from tests.sqldb.test_pipelines import ROWS, _rows, rounded

NAN = float("nan")
ZEROS = [0.0, -0.0, 1.0, None, 2.5, -0.0, 0.0, 1.0]
CASES = ["a", "A", "b", "B", None, "ab", "AB"]
BOOLS = [True, False, None]
COLUMNS = ["id", "i", "d", "s", "g", "z", "n", "c", "f", "w"]
POSITION = {name: index for index, name in enumerate(COLUMNS)}


def _nan(n):
    """``n``: every 5th row the shared NaN, every 97th a NaN of its own."""
    if n % 97 == 3:
        return float("nan")
    return NAN if n % 5 == 0 else (None if n % 11 == 0 else float(n % 4))


def _keyed_rows():
    return [
        row + (ZEROS[n % 8], _nan(n), CASES[n % 7], BOOLS[n % 3], (n * 7919 % ROWS) / 10.0)
        for n, row in enumerate(_rows())
    ]


def keyed_table(oracle=None):
    """``q``: three chunks of ``test_pipelines``' rows plus key columns;
    in *oracle* too, given one."""
    db = Database()
    db.execute(
        "CREATE TABLE q (id INTEGER PRIMARY KEY, i INTEGER, d DOUBLE, s VARCHAR(8), g INTEGER, "
        "z DOUBLE, n DOUBLE, c VARCHAR(8), f BOOLEAN, w DOUBLE)"
    )
    db.executemany("INSERT INTO q VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)", _keyed_rows())
    if oracle is not None:
        oracle.execute(f"CREATE TABLE q ({', '.join(COLUMNS)})")
        oracle.executemany("INSERT INTO q VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)", _keyed_rows())
    assert [len(chunk) for chunk in chunks(db)] == [BATCH_SIZE, BATCH_SIZE, ROWS - 2 * BATCH_SIZE]
    return db


@pytest.fixture(scope="module")
def engines():
    oracle = sqlite3.connect(":memory:")
    yield keyed_table(oracle), oracle
    oracle.close()


def chunks(db, session=None):
    storage = db.catalog.lookup("q").storage
    snapshot = None if session is None else db.transactions.get(session).snapshot
    return table_batches(storage, snapshot=snapshot)


def exact(rows):
    """*rows* with each value's type and repr: ``1``, ``1.0``, ``True``,
    ``0.0`` and ``-0.0`` all differ."""
    return [tuple((type(value).__name__, repr(value)) for value in row) for row in rows]


def reference(db, keys, aggregates, where, session=None):
    """``SELECT keys, aggregates FROM q WHERE where GROUP BY keys`` in
    Python: groups in the order of their first kept row, keyed by its
    values, each aggregate an ``Aggregator`` fed its group's values."""
    kept = {row[0] for row in db.execute(f"SELECT id FROM q WHERE {where}", session=session).rows}
    groups = {}
    for row in db.execute("SELECT * FROM q", session=session).rows:
        if row[0] in kept:
            groups.setdefault(tuple(row[POSITION[key]] for key in keys), []).append(row)
    answer = []
    for key, rows in groups.items():
        values = []
        for name, argument, distinct in aggregates:
            aggregator = Aggregator(name, distinct=distinct, star=argument is None)
            for row in rows:
                aggregator.add(None if argument is None else row[POSITION[argument]])
            values.append(aggregator.result())
        answer.append(key + tuple(values))
    return answer


def text(aggregate):
    name, argument, distinct = aggregate
    return f"{name}({'DISTINCT ' if distinct else ''}{argument or '*'})"


def grouped_sql(keys, aggregates, where):
    key_list = ", ".join(keys)
    return (
        f"SELECT {key_list}, {', '.join(map(text, aggregates))} FROM q WHERE {where} "
        f"GROUP BY {key_list}"
    )


def numbered(db, keys, session=None):
    """Do all chunks of the table version hold group numbers for *keys*?"""
    slots = tuple(POSITION[key] for key in keys)
    return all(slots in chunk.columns for chunk in chunks(db, session))


def new_version(db):
    """A table version whose grouped reads have paid no rent yet."""
    before = chunks(db)
    db.execute("UPDATE q SET g = g WHERE id = 0")
    assert chunks(db) is not before


def answers(db, sql, session=None, times=3):
    """*sql*'s rows, run *times* times: the first read of a version runs
    the dict loop, the second builds the group numbers, the third reads
    them; every run gives the same list."""
    found = [db.execute(sql, session=session).rows for _ in range(times)]
    assert all(exact(rows) == exact(found[0]) for rows in found), sql
    return found[0]


SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

FILTERS = [
    "g <> 0",
    "i < 3",
    "d > -0.5",
    "c IS NOT NULL",
    "z = 0.0",
    "s <> 'a'",
    "id % 3 = 1",
    "f",
    "w < 300.0",
    "w >= 50.0 AND w < 70.0",
]
KEYS = st.lists(
    st.sampled_from(["z", "c", "n", "f", "g", "s", "i"]), min_size=1, max_size=3, unique=True
)
#: ``(name, argument, distinct)``; COUNT(*) has no argument.
AGGREGATE = st.one_of(
    st.just(("COUNT", None, False)),
    st.tuples(
        st.sampled_from(["COUNT", "MIN", "MAX"]),
        st.sampled_from(["i", "d", "s", "c", "z", "n"]),
        st.booleans(),
    ),
    st.tuples(st.sampled_from(["SUM", "AVG"]), st.sampled_from(["i", "d", "z", "n", "w"]), st.booleans()),
)


@SETTINGS
@given(
    keys=KEYS,
    aggregates=st.lists(AGGREGATE, min_size=1, max_size=4),
    filters=st.lists(st.sampled_from(FILTERS), max_size=2),
)
# Chunk 2 holds a NULL in the key ``i``, a group of its own over the
# numbers too.  Later in the chunk its NULL ``d`` trips the numbered loop's
# guard (``i < 3`` trips it at the NULL key), and ``z``'s NULLs fail the
# precheck of ``=``: the row loop runs the chunk, no group taking a row twice.
@example(keys=["i"], aggregates=[("COUNT", None, False), ("SUM", "d", False)], filters=["d > -3.0"])
@example(keys=["i", "c"], aggregates=[("SUM", "i", False), ("MIN", "c", False)], filters=["i < 3"])
@example(keys=["g", "i"], aggregates=[("COUNT", None, False), ("MAX", "d", False)], filters=[])
@example(keys=["i"], aggregates=[("AVG", "d", False), ("MIN", "c", False)], filters=["z = 0.0", "g = 0"])
def test_grouped_aggregates(engines, keys, aggregates, filters):
    db, oracle = engines
    where = " AND ".join(filters) or "1 = 1"
    sql = grouped_sql(keys, aggregates, where)
    new_version(db)
    ours = answers(db, sql)
    assert numbered(db, keys), sql
    assert exact(ours) == exact(reference(db, keys, aggregates, where)), sql
    if "n" not in keys and all(argument != "n" for __, argument, __ in aggregates):
        assert Counter(rounded(ours)) == Counter(rounded(oracle.execute(sql).fetchall())), sql


def test_a_key_comes_from_the_first_kept_row(engines):
    """Row 0 (``z`` 0.0) is filtered out and row 1 (``-0.0``) is the
    group's first kept row: its ``-0.0`` is the key, read by the dict
    loop and over the numbers alike."""
    db, oracle = engines
    new_version(db)
    where = "g <> 0"
    aggregates = [("COUNT", None, False), ("SUM", "i", False)]
    sql = grouped_sql(["z"], aggregates, where)
    ours = answers(db, sql)
    assert numbered(db, ["z"])
    assert repr(ours[0][0]) == "-0.0"
    assert exact(ours) == exact(reference(db, ["z"], aggregates, where))
    assert Counter(rounded(ours)) == Counter(rounded(oracle.execute(sql).fetchall()))


def test_nan_keys_group_by_identity(engines):
    """The shared NaN object is one group; each other NaN a group of its own."""
    db, __ = engines
    new_version(db)
    ours = answers(db, "SELECT n, COUNT(*) FROM q GROUP BY n")
    nans = [count for key, count in ours if key is not None and math.isnan(key)]
    assert nans[0] == sum(1 for n in range(ROWS) if n % 5 == 0 and n % 97 != 3)
    assert len(nans) == 1 + sum(1 for n in range(ROWS) if n % 97 == 3)
    assert exact(ours) == exact(reference(db, ["n"], [("COUNT", None, False)], "1 = 1"))


def test_one_and_one_point_oh_and_true_are_one_key(engines):
    """In a derived table (the dict loop): the first row's ``True`` keys
    the group of ``1``, ``1.0`` and ``True``."""
    db, oracle = engines
    sql = (
        "SELECT m, COUNT(*), SUM(i) FROM (SELECT TRUE AS m, i FROM q WHERE g = 2 "
        "UNION ALL SELECT 1, i FROM q WHERE g = 0 UNION ALL SELECT 1.0, i FROM q WHERE g = 1 "
        "UNION ALL SELECT 0.0, i FROM q WHERE g = 3 UNION ALL SELECT -0.0, i FROM q) AS u GROUP BY m"
    )
    ours = answers(db, sql)
    assert [repr(row[0]) for row in ours] == ["True", "0.0"]
    assert Counter(rounded(ours)) == Counter(rounded(oracle.execute(sql).fetchall()))


def test_a_gathered_range_answers_as_the_scan(engines):
    """Once the range reads have rented ``w``'s sorted copy, a 2 % range
    is gathered (one index probe, no group numbers): the dict loop
    again, and the same answer as the first scan's."""
    db, oracle = engines
    new_version(db)
    where = "w >= 100.0 AND w < 110.0"
    aggregates = [("COUNT", None, False), ("MIN", "c", False), ("SUM", "z", False)]
    sql = grouped_sql(["z", "c"], aggregates, where)
    first = db.execute(sql).rows
    assert db.last_counters["index_probes"] == 0
    for _ in range(20):
        found = db.execute(sql).rows
        assert exact(found) == exact(first), sql
    assert db.last_counters["index_probes"] == 1
    assert db.last_counters["rows_scanned"] < ROWS // 10
    assert exact(first) == exact(reference(db, ["z", "c"], aggregates, where))
    assert Counter(rounded(first)) == Counter(rounded(oracle.execute(sql).fetchall()))
    # The same keys over a range past a sixth of the table scan the chunks.
    wide = grouped_sql(["z", "c"], aggregates, "w >= 100.0")
    assert exact(answers(db, wide)) == exact(reference(db, ["z", "c"], aggregates, "w >= 100.0"))
    assert numbered(db, ["z", "c"])


KEYED = (["z", "c"], [("COUNT", None, False), ("SUM", "i", False), ("MAX", "c", False)], "g <> 0")


def held_to_reference(db, session=None):
    keys, aggregates, where = KEYED
    ours = answers(db, grouped_sql(keys, aggregates, where), session=session)
    assert numbered(db, keys, session)
    assert exact(ours) == exact(reference(db, keys, aggregates, where, session=session))
    return ours


def test_numbers_follow_writes_rollback_and_a_snapshot():
    db = keyed_table()
    original = held_to_reference(db)
    row = (ROWS, 1, 0.5, "a", 3, -0.0, NAN, "Q", True, 1.0)
    db.execute("INSERT INTO q VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)", row)
    held_to_reference(db)
    db.execute("UPDATE q SET z = -0.0, c = 'A' WHERE id % 13 = 1")
    updated = held_to_reference(db)
    db.execute("DELETE FROM q WHERE id % 17 = 2")
    deleted = held_to_reference(db)
    assert exact(deleted) != exact(updated) != exact(original)
    db.execute("BEGIN")
    db.execute("UPDATE q SET c = 'b' WHERE c = 'B'")
    assert exact(held_to_reference(db)) != exact(deleted)
    db.execute("ROLLBACK")
    assert exact(held_to_reference(db)) == exact(deleted)
    db.execute("BEGIN TRANSACTION READ ONLY", session="reader")
    assert exact(held_to_reference(db, session="reader")) == exact(deleted)
    db.execute("UPDATE q SET z = 0.0, c = 'AB' WHERE id % 3 = 0")
    assert db.mvcc.chain_count() > 0
    assert exact(held_to_reference(db, session="reader")) == exact(deleted)
    assert exact(held_to_reference(db)) != exact(deleted)
    db.execute("COMMIT", session="reader")


def test_nulls_and_lone_nulls_fold_as_the_aggregator(engines):
    """Every group of ``g`` holds NULLs in ``z`` and ``n`` (the folds
    drop them once the first fold raises); grouped by ``id``, the row
    whose ``i`` is NULL is a lone NULL."""
    db, __ = engines
    new_version(db)
    for keys, argument in ((["g"], "z"), (["g"], "n"), (["id"], "i"), (["id"], "d")):
        aggregates = [(name, argument, False) for name in ("COUNT", "SUM", "AVG", "MIN", "MAX")]
        ours = answers(db, grouped_sql(keys, aggregates, "1 = 1"))
        assert numbered(db, keys)
        assert exact(ours) == exact(reference(db, keys, aggregates, "1 = 1"))
    assert (None,) * 4 in {row[2:] for row in ours}


FOLDED = [
    [],
    [None],
    [None, None],
    [1, None],
    [None, 1, 2.5],
    [2.5, None, 1],
    ["a", None, "b"],
    ["a"],
    ["b", "a"],
    [1, "a"],
    ["a", 1],
    [1, None, "a"],
    [None, "a", 1],
    [True, 2],
    [True],
    [-0.0],
    [0.0, -0.0],
    [-0.0, 0.0, None],
    [NAN, 1.0],
    [1.0, NAN, None],
    [None, NAN],
    [2**70, 1.5],
    [3, 3, None, 3.0],
]


def outcome(call):
    try:
        value = call()
    except Exception as exc:  # the error is the outcome compared
        return type(exc), str(exc)
    return type(value), repr(value)


@pytest.mark.parametrize("values", FOLDED, ids=repr)
@pytest.mark.parametrize("name", ["COUNT", "SUM", "AVG", "MIN", "MAX"])
@pytest.mark.parametrize("distinct", [False, True])
def test_a_fold_returns_or_raises_what_the_aggregator_does(values, name, distinct):
    def aggregated():
        aggregator = Aggregator(name, distinct=distinct)
        for value in values:
            aggregator.add(value)
        return aggregator.result()

    assert outcome(lambda: fold(name, distinct)(list(values))) == outcome(aggregated)
