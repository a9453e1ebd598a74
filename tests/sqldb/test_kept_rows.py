"""A parameter row that already is a stored row is kept as it is.

``INSERT INTO t VALUES (?, ?, …)`` over every column, in order, reads a
parameter row exactly into a stored row.  A row that already is one — a
tuple of the table's arity whose values are each of their column's
stored class, a string within its length — is appended by the generated
converter as it is, instead of as a copy; any other row is read and
converted value by value.  Either way the engine must end where the
conversion leaves it: the same rows, of the same classes, and the same
error.  The reference passes each row as a list, which is never kept.
"""

import random

import pytest

from repro.errors import SQLError
from repro.sqldb import Database

SCHEMA = "CREATE TABLE t (id INTEGER PRIMARY KEY, s VARCHAR(3), w DOUBLE, b BOOLEAN)"
INSERT = "INSERT INTO t VALUES (?, ?, ?, ?)"
ROWS = 300

#: One value per way a row is not a stored row: a value of another class
#: (converted or refused), a NULL, an overlong string, a row too long or
#: too short, a row that is not a tuple.
SPOILERS = {
    "int_in_double": lambda row: (row[0], row[1], 2, row[3]),
    "bool_in_integer": lambda row: (True, row[1], row[2], row[3]),
    "text_in_double": lambda row: (row[0], row[1], "x", row[3]),
    "null": lambda row: (row[0], None, row[2], row[3]),
    "overlong": lambda row: (row[0], "abcdef", row[2], row[3]),
    "too_long": lambda row: row + (1,),
    "too_short": lambda row: row[:3],
    "list": list,
}


def stored_rows(rng):
    return [
        (id_, rng.choice(["", "x", "yyy"]), rng.choice([0.5, -1.0]), rng.choice([True, False]))
        for id_ in range(ROWS)
    ]


def outcome(rows):
    """Heap rows with their value classes, and the error text, of one
    ``executemany`` of *rows* into a fresh table."""
    db = Database()
    db.execute(SCHEMA)
    try:
        db.executemany(INSERT, rows)
        error = None
    except SQLError as exc:
        error = f"{type(exc).__name__}: {exc}"
    heap = db.catalog.lookup("t").storage._rows
    return [(row, [type(value) for value in row]) for row in heap], error


def test_stored_rows_are_kept_and_answer_as_the_row_loop():
    rows = stored_rows(random.Random(1))
    db = Database()
    db.execute(SCHEMA)
    db.executemany(INSERT, rows)
    heap = db.catalog.lookup("t").storage._rows
    assert all(kept is row for kept, row in zip(heap, rows))
    assert outcome(rows) == outcome([list(row) for row in rows])


@pytest.mark.parametrize("kind", sorted(SPOILERS))
def test_a_row_that_is_not_stored_is_converted(kind):
    rng = random.Random(kind)
    for __ in range(5):
        rows = stored_rows(rng)
        at = rng.randrange(ROWS)
        rows[at] = SPOILERS[kind](rows[at])
        assert outcome(rows) == outcome([list(row) for row in rows])


def test_the_rows_around_one_that_is_not_stored_are_still_kept():
    rows = stored_rows(random.Random(2))
    rows[7] = list(rows[7])
    db = Database()
    db.execute(SCHEMA)
    db.executemany(INSERT, rows)
    heap = db.catalog.lookup("t").storage._rows
    assert heap[7] == tuple(rows[7]) and heap[7] is not rows[7]
    assert all(heap[i] is rows[i] for i in range(ROWS) if i != 7)
