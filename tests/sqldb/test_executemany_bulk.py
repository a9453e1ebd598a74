"""``executemany`` over long lists: one batch, still one statement a row.

An INSERT's parameter list is converted, checked and placed as a whole
(``Database._insert``), so a failure far into a list is found by the
set-wise checks, not by inserting row by row.  Each test puts one kind of
failure at a random position of a list of 2 000+ rows and holds the
engine exactly where one ``execute`` per row leaves it: heap, buckets,
counts, commit clock, versions and WAL bytes, with and without a WAL,
inside a transaction and under an open snapshot.
"""

import random

import pytest

from repro.errors import DurabilityError, ProtocolError, SQLError
from repro.recovery import PERFECT_DISK, DiskFaultProfile, Durability, SimDisk
from repro.sqldb import Database

SCHEMA = (
    "CREATE TABLE t (id INTEGER PRIMARY KEY, n INTEGER NOT NULL, "
    "s VARCHAR(3), g INTEGER, w DOUBLE, b BOOLEAN)",
    "CREATE INDEX t_g ON t (g)",
    "CREATE UNIQUE INDEX t_ns ON t (n, s)",
)
INSERT = "INSERT INTO t VALUES (?, ?, ?, ?, ?, ?)"
SEEDED = [(0, 0, "a", 1, 0.5, True), (1, 1, None, None, None, None)]
ROWS = 2_400


def good_rows(rng):
    """Rows that all insert: ids past the seeded ones, (n, s) unique."""
    return [
        (
            id_,
            id_,
            rng.choice([None, "x", "yy", "zzz"]),
            rng.choice([None, 0, 1, 2, "3"]),
            rng.choice([None, 1.5, 2, float("inf")]),
            rng.choice([None, True, False, 1, "t"]),
        )
        for id_ in range(2, ROWS + 2)
    ]


def spoil(rows, kind, at, rng):
    """Make row *at* fail in the way *kind* names (``overlong`` only
    truncates: the list then inserts whole)."""
    row = list(rows[at])
    if kind == "duplicate_in_list":
        row[0] = rows[rng.randrange(at)][0]
    elif kind == "duplicate_in_table":
        row[0] = rng.choice(SEEDED)[0]
    elif kind == "duplicate_composite":
        row[1], row[2] = rows[rng.randrange(at)][1:3]
        if row[2] is None:  # a NULL part never collides
            row[1], row[2] = SEEDED[0][1:3]
    elif kind == "null_not_null":
        row[1] = None
    elif kind == "uncoercible":
        row[3] = "x"
    else:  # overlong
        row[2] = "abcdef"
    rows[at] = tuple(row)
    return rows


def open_database(mode):
    durability = None
    if mode == "plain":
        db = Database()
    else:
        durability = Durability(SimDisk())
        db = durability.open()
    for sql in SCHEMA:
        db.execute(sql)
    db.executemany(INSERT, SEEDED)
    if mode == "snapshot":
        db.begin(session="reader", read_only=True)
    elif mode == "transaction":
        db.begin()
    return durability, db


def image(durability, db):
    storage = db.catalog.lookup("t").storage
    return (
        list(storage._rows),
        {key: list(index._buckets.items()) for key, index in storage._indexes.items()},
        storage._live_count,
        storage.version,
        db.mvcc.clock,
        db.mvcc.dump(),
        db.transactions.statement_txn(None),  # the next implicit WAL id
        db.statistics["versions_created"],
        db.statistics["versions_gc"],
        None if durability is None else durability.disk.read_all(),
    )


def outcome(run):
    try:
        run()
    except (SQLError, ProtocolError, DurabilityError) as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("mode", ["plain", "wal", "transaction", "snapshot"])
@pytest.mark.parametrize(
    "kind",
    [
        "duplicate_in_list",
        "duplicate_in_table",
        "duplicate_composite",
        "null_not_null",
        "uncoercible",
        "overlong",
    ],
)
def test_a_long_list_fails_where_a_loop_of_execute_fails(mode, kind):
    rng = random.Random(f"{mode}/{kind}")
    at = rng.randrange(ROWS // 2, ROWS)
    rows = spoil(good_rows(rng), kind, at, rng)
    many_disk, many = open_database(mode)
    loop_disk, loop = open_database(mode)

    def loop_of_execute():
        for row in rows:
            loop.execute(INSERT, row)

    failed = outcome(lambda: many.executemany(INSERT, rows))
    assert failed == outcome(loop_of_execute)
    assert (failed is None) == (kind == "overlong")
    assert image(many_disk, many) == image(loop_disk, loop)
    assert many.table_rowcount("t") == len(SEEDED) + (ROWS if failed is None else at)
    if mode == "snapshot":
        read = "SELECT * FROM t ORDER BY id"
        assert many.execute(read, session="reader").rows == loop.execute(read, session="reader").rows
        many.commit(session="reader")
        loop.commit(session="reader")
    elif mode == "transaction":
        many.rollback()
        loop.rollback()
    assert image(many_disk, many) == image(loop_disk, loop)
    if many_disk is not None:
        assert many_disk.recover().execute("SELECT * FROM t ORDER BY id").rows == (
            loop_disk.recover().execute("SELECT * FROM t ORDER BY id").rows
        )


@pytest.mark.parametrize("mode", ["plain", "wal", "transaction", "snapshot"])
def test_multi_row_values_keep_each_statements_rows_together(mode):
    """Two VALUES rows per parameter row: a statement's first row stays
    when its second fails, as one ``execute`` leaves it."""
    sql = "INSERT INTO t (id, n, s) VALUES (?, ?, 'p'), (? + 1000, ?, 'q')"
    rows = [(id_, id_, id_, id_) for id_ in range(2, 600)]
    rows[400] = (402, None, 402, 402)
    rows[450] = (452, 452, 452, None)
    many_disk, many = open_database(mode)
    loop_disk, loop = open_database(mode)

    def loop_of_execute():
        for row in rows:
            loop.execute(sql, row)

    assert outcome(lambda: many.executemany(sql, rows)) == outcome(loop_of_execute)
    assert image(many_disk, many) == image(loop_disk, loop)


def test_a_refused_wal_record_cuts_the_rows_placed_there():
    """A value the log cannot hold (a lone surrogate) is refused before
    memory changes: the rows before it stay, committed, and memory equals
    the log."""
    rows = [(id_, id_, None, None, None, None) for id_ in range(2, 300)]
    rows[123] = (125, 125, "\ud800", None, None, None)
    many_disk, many = open_database("wal")
    loop_disk, loop = open_database("wal")

    def loop_of_execute():
        for row in rows:
            loop.execute(INSERT, row)

    failed = outcome(lambda: many.executemany(INSERT, rows))
    assert failed is not None and failed == outcome(loop_of_execute)
    assert image(many_disk, many) == image(loop_disk, loop)
    assert many.table_rowcount("t") == len(SEEDED) + 123
    recovered = many_disk.recover()
    assert recovered.execute("SELECT COUNT(*) FROM t").scalar() == len(SEEDED) + 123


#: Two VALUES rows per parameter row, so a statement can fail between its rows.
PAIRS = "INSERT INTO t (id, n, s) VALUES (?, ?, 'p'), (? + 1000, ?, ?)"


@pytest.mark.parametrize("mode", ["wal", "transaction", "snapshot"])
def test_a_refused_record_in_a_statements_second_row(mode):
    """The log refuses a statement's second row: its first row stays
    (committed outside a transaction), and nothing after it runs."""
    rows = [(id_, id_, id_, id_, "q") for id_ in range(2, 40)]
    rows[17] = (19, 19, 19, 19, "\ud800")
    many_disk, many = open_database(mode)
    loop_disk, loop = open_database(mode)

    def loop_of_execute():
        for row in rows:
            loop.execute(PAIRS, row)

    failed = outcome(lambda: many.executemany(PAIRS, rows))
    assert failed is not None and failed == outcome(loop_of_execute)
    assert image(many_disk, many) == image(loop_disk, loop)
    assert many.table_rowcount("t") == len(SEEDED) + 2 * 17 + 1


@pytest.mark.parametrize("mode", ["wal", "transaction", "snapshot"])
def test_a_disk_crash_on_any_append_of_a_list(mode):
    """Power lost on any append of a batch — a BEGIN, an insert record or
    a commit record — leaves memory, versions, clock and log where one
    ``execute`` per parameter row leaves them; so does recovery."""
    rows = [(id_, id_, id_, id_, "q") for id_ in range(2, 8)]
    for crash_at in range(1, 4 * len(rows) + 2):  # the last: no crash
        many_disk, many = open_database(mode)
        loop_disk, loop = open_database(mode)
        for durability in (many_disk, loop_disk):
            durability.disk.arm(DiskFaultProfile("crash", crash_at_append=crash_at))

        def loop_of_execute():
            for row in rows:
                loop.execute(PAIRS, row)

        clock = many.mvcc.clock
        assert outcome(lambda: many.executemany(PAIRS, rows)) == outcome(loop_of_execute)
        assert image(many_disk, many) == image(loop_disk, loop), crash_at
        if mode == "wal":
            # Statement s appends B, I, I, C.  Power lost on one of them
            # keeps the rows whose I record went out, and ticks the clock
            # once per statement that changed memory, but for the one
            # whose C record was lost.
            s, k = divmod(min(crash_at, 4 * len(rows) + 1) - 1, 4)
            placed = 2 * s + (0, 0, 1, 2)[k] if s < len(rows) else 2 * len(rows)
            ticks = s + (k == 2) if s < len(rows) else len(rows)
            assert many.table_rowcount("t") == len(SEEDED) + placed, crash_at
            assert many.mvcc.clock == clock + ticks, crash_at
        read = "SELECT * FROM t ORDER BY id"
        for durability in (many_disk, loop_disk):
            durability.disk.arm(PERFECT_DISK)
        assert many_disk.recover().execute(read).rows == loop_disk.recover().execute(read).rows


#: An INSERT ... SELECT: one statement per parameter row, of as many rows
#: as the SELECT finds (none when the offset lands on an existing id).
COPY = "INSERT INTO t (id, n) SELECT id + ?, n + ? FROM t WHERE id < ?"


@pytest.mark.parametrize("mode", ["plain", "wal", "transaction"])
@pytest.mark.parametrize(
    "sql, rows, ticks",
    [
        (INSERT, [(id_, id_, None, None, None, None) for id_ in range(2, 50)], 48),
        (INSERT, [(id_, id_ % 30, "s", None, None, None) for id_ in range(2, 50)], 30),
        (PAIRS, [(id_, id_, id_, id_, "q") for id_ in range(2, 40)], 38),
        (PAIRS, [(id_, id_, id_, None if id_ == 21 else id_, "q") for id_ in range(2, 40)], 20),
        (COPY, [(100, 100, 2), (200, 200, 0), (300, 300, 2), (0, 0, 2)], 2),
    ],
    ids=["one-row", "one-row-failing", "pairs", "pairs-cut", "insert-select"],
)
def test_the_commit_clock_ticks_once_per_statement_that_placed_a_row(mode, sql, rows, ticks):
    """``executemany`` ticks the commit clock as one ``execute`` per
    parameter row does: once per autocommit statement that placed a row,
    a statement cut by a failing row included, and not at all inside a
    transaction."""
    many_disk, many = open_database(mode)
    loop_disk, loop = open_database(mode)
    clock = many.mvcc.clock

    def loop_of_execute():
        for row in rows:
            loop.execute(sql, row)

    assert outcome(lambda: many.executemany(sql, rows)) == outcome(loop_of_execute)
    assert many.mvcc.clock == loop.mvcc.clock
    assert many.mvcc.clock - clock == (0 if mode == "transaction" else ticks)
    assert image(many_disk, many) == image(loop_disk, loop)
