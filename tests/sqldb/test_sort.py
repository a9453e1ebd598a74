"""ORDER BY, checked three ways.

``Sort`` computes each key once as a column, compares raw values where
they order themselves and decorates a column only where they do not
(NULL, numbers against strings); under a budget below its input it picks
its first batch by bounded selection on the leading key, ties included
(``repro.sqldb.executor.Sort``).  Hypothesis generates small tables with
many duplicate keys mixing NULL, int, float (``0.0`` / ``-0.0`` and ``2``
/ ``2.0`` ties, and in some tables a NaN, inserted as a parameter), bool
and str, and statements of one to three keys — a
column, a select-list position or a computed expression — each ASC or
DESC, with an optional ``LIMIT`` / ``OFFSET`` below, at and above the
row count.  Each statement must return:

* the list a Python reference returns: ``sorted`` per key, least
  significant first, stable, with NULL greatest and numbers (bool
  included) before strings, cut by OFFSET / LIMIT;
* the list it returns pulled from its plan's root a row at a time
  (``one_row_at_a_time``: a budget of one at every pull);
* when ``id`` is its last key, so the order is total, and the table
  holds no NaN (SQLite stores one as NULL), the list SQLite returns with ``NULLS LAST`` (ASC) / ``NULLS FIRST`` (DESC) appended to
  each key — SQLite sorts NULL first ascending — and ``LIMIT -1`` before a
  lone ``OFFSET``.
"""

from __future__ import annotations

import math
import sqlite3
from collections import namedtuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sqldb.columnar import SMALL_BATCH
from repro.sqldb.database import Database
from tests.sqldb.test_differential import one_row_at_a_time

Row = namedtuple("Row", "id i f b s")
COLUMNS = Row._fields

INTS = [None, -1, 0, 1, 2]
FLOATS = [None, -0.0, 0.0, -1.5, 0.5, 1.0, 2.0]
#: Compares false with everything, itself included: its comparisons are
#: no order, so a bounded selection is no prefix of the full sort.
NAN = math.nan
BOOLS = [None, True, False]
STRINGS = [None, "", "a", "ab", "b"]

#: Computed keys: SQL text, and the value a Python reference computes.
EXPRESSIONS = {
    "i * 2": lambda r: None if r.i is None else r.i * 2,
    "f * 2": lambda r: None if r.f is None else r.f * 2,
    # ints against floats (2 against 2.0), and NULL
    "CASE WHEN b THEN i ELSE f END": lambda r: r.i if r.b is True else r.f,
    # numbers against strings, and NULL
    "CASE WHEN b THEN i ELSE s END": lambda r: r.i if r.b is True else r.s,
    # bools against ints
    "COALESCE(b, i)": lambda r: r.i if r.b is None else r.b,
}


def reference_key(value):
    """NULL greatest, numbers (bool included) before strings."""
    if value is None:
        return (2, 0)
    if isinstance(value, str):
        return (1, value)
    return (0, value)


rows_strategy = st.sampled_from([FLOATS, FLOATS + [NAN]]).flatmap(
    lambda floats: st.lists(
        st.tuples(
            st.sampled_from(INTS),
            st.sampled_from(floats),
            st.sampled_from(BOOLS),
            st.sampled_from(STRINGS),
        ),
        max_size=SMALL_BATCH + 16,
    )
).map(lambda values: [Row(index, *value) for index, value in enumerate(values)])


def comparable(rows):
    """*rows* with each NaN replaced by a marker: NaN is unequal to
    itself, so lists holding one compare equal only by identity."""
    return [tuple("NaN" if value != value else value for value in row) for row in rows]


#: A generated statement: its text, SQLite's text, the output columns,
#: ``(value function, descending)`` per key, OFFSET and LIMIT (None when
#: absent), and whether ``id`` is the last key.
Statement = namedtuple("Statement", "sql sqlite_sql select keys offset limit total")


@st.composite
def statements(draw, count):
    select = ["id"] + draw(
        st.lists(st.sampled_from(COLUMNS[1:]), unique=True, max_size=3)
    )
    terms = []
    sqlite_terms = []
    keys = []
    for __ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["column", "position", "expression"]))
        if kind == "column":
            name = draw(st.sampled_from(COLUMNS[1:]))
            text, key = name, lambda r, name=name: getattr(r, name)
        elif kind == "position":
            position = draw(st.integers(1, len(select)))
            name = select[position - 1]
            text, key = str(position), lambda r, name=name: getattr(r, name)
        else:
            text = draw(st.sampled_from(sorted(EXPRESSIONS)))
            key = EXPRESSIONS[text]
        descending = draw(st.booleans())
        terms.append(text + (" DESC" if descending else ""))
        sqlite_terms.append(terms[-1] + (" NULLS FIRST" if descending else " NULLS LAST"))
        keys.append((key, descending))
    total = draw(st.booleans())
    if total:
        descending = draw(st.booleans())
        terms.append("id DESC" if descending else "id")
        sqlite_terms.append(terms[-1])
        keys.append((lambda r: r.id, descending))
    around = st.sampled_from([0, 1, 2, max(count - 1, 0), count, count + 1])
    limit = draw(st.none() | around | st.integers(0, count + 2))
    offset = draw(st.none() | around)
    cut = ""
    if limit is not None:
        cut += f" LIMIT {limit}"
    if offset is not None:
        cut += f" OFFSET {offset}"
    sqlite_cut = cut if limit is not None or offset is None else f" LIMIT -1{cut}"
    head = f"SELECT {', '.join(select)} FROM t ORDER BY "
    return Statement(
        head + ", ".join(terms) + cut,
        head + ", ".join(sqlite_terms) + sqlite_cut,
        select,
        keys,
        offset,
        limit,
        total,
    )


def reference(rows, statement):
    ordered = list(rows)
    for key, descending in reversed(statement.keys):
        ordered.sort(key=lambda r: reference_key(key(r)), reverse=descending)
    start = statement.offset or 0
    end = None if statement.limit is None else start + statement.limit
    return [tuple(getattr(r, name) for name in statement.select) for r in ordered[start:end]]


def load(rows):
    db = Database()
    db.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, i INTEGER, f DOUBLE,"
        " b BOOLEAN, s VARCHAR(4))"
    )
    db.executemany("INSERT INTO t VALUES (?, ?, ?, ?, ?)", rows)
    oracle = sqlite3.connect(":memory:")
    oracle.execute("CREATE TABLE t (id, i, f, b, s)")
    oracle.executemany("INSERT INTO t VALUES (?, ?, ?, ?, ?)", rows)
    return db, oracle


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data(), rows=rows_strategy)
def test_order_by_matches_the_reference_row_at_a_time_and_sqlite(data, rows):
    statement = data.draw(statements(len(rows)))
    sql = statement.sql
    db, oracle = load(rows)
    try:
        ours = comparable(db.execute(sql).rows)
        assert ours == comparable(reference(rows, statement)), sql
        assert comparable(one_row_at_a_time(db, sql)) == ours, sql
        if statement.total and not any(row.f != row.f for row in rows):
            assert oracle.execute(statement.sqlite_sql).fetchall() == ours, statement.sqlite_sql
    finally:
        oracle.close()


class TestBoundedSelection:
    """The first batch under a budget is a prefix of the full order."""

    @pytest.fixture(scope="class")
    def db(self):
        # Leading-key ties straddle the cut, and the secondary key
        # reverses insertion order within each tie.
        rows = [(index, index % 4, -index, f"s{index % 7}") for index in range(200)]
        db = Database()
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, j INTEGER, s VARCHAR(4))")
        db.executemany("INSERT INTO t VALUES (?, ?, ?, ?)", rows)
        return db

    @pytest.mark.parametrize("limit", [1, 3, 49, 50, 51, 199, 200, 201])
    @pytest.mark.parametrize(
        "order", ["k, j", "k DESC, j", "k, j DESC", "s, k, id", "s DESC, j"]
    )
    def test_a_limit_is_a_prefix_of_the_full_order(self, db, order, limit):
        full = db.execute(f"SELECT id FROM t ORDER BY {order}").rows
        assert db.execute(f"SELECT id FROM t ORDER BY {order} LIMIT {limit}").rows == full[:limit]
        assert one_row_at_a_time(db, f"SELECT id FROM t ORDER BY {order}") == full

    def test_a_null_or_mixed_leading_key_is_decorated(self, db):
        rows = db.execute(
            "SELECT id FROM t ORDER BY CASE WHEN k = 0 THEN NULL WHEN k = 1 THEN s "
            "ELSE j END, id LIMIT 60"
        ).rows
        ids = [row[0] for row in rows]
        # Numbers (k = 2, 3: j = -id, so the largest ids first), then
        # strings, then NULL.
        numbers = sorted((i for i in range(200) if i % 4 >= 2), reverse=True)
        assert ids == numbers[:60]

    @pytest.mark.parametrize(
        "floats, limit",
        [
            ([1.0, NAN, 0.0], 1),  # sorted in full: one run, [1.0, NaN, 0.0]
            ([NAN, 1.0, 2.0], 2),
            ([2.0, 0.0, NAN, 1.0, 0.0], 2),
            # no NaN, but the column sums to one
            ([math.inf, 0.0, -math.inf, 1.0, 0.0], 2),
        ],
    )
    def test_a_nan_key_is_sorted_in_full(self, floats, limit):
        db = Database()
        db.execute("CREATE TABLE n (id INTEGER PRIMARY KEY, f DOUBLE, g INTEGER)")
        # g: integers past a float's range, so a column mixing them with
        # f cannot be summed as floats.
        db.executemany(
            "INSERT INTO n VALUES (?, ?, ?)",
            [(index, value, -(index + 1) * 10**400) for index, value in enumerate(floats)],
        )
        orders = ("f", "f DESC", "g, f", "-g, f DESC", "f, g", "CASE WHEN id = 1 THEN g ELSE f END")
        for order in orders:
            full = db.execute(f"SELECT id FROM n ORDER BY {order}").rows
            assert sorted(full) == [(index,) for index in range(len(floats))]
            limited = db.execute(f"SELECT id FROM n ORDER BY {order} LIMIT {limit}").rows
            assert limited == full[:limit], order
            assert one_row_at_a_time(db, f"SELECT id FROM n ORDER BY {order}") == full, order
