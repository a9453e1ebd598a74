"""``executemany`` is a loop of ``execute``: one statement per parameter row.

It prepares once and does the work no row can change once per call, but
each parameter row still autocommits on its own (implicit WAL
transaction, commit record, one commit-clock tick, versions for an open
snapshot) or logs to the open transaction — so after any mix of good and
failing rows the engine is exactly where one ``execute`` per row leaves
it, down to the WAL bytes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.concurrency import LockManager
from repro.errors import DeadlockError, LockUnavailable, SQLError
from repro.recovery import Durability, SimDisk
from repro.sqldb import Database

SCHEMA = (
    "CREATE TABLE t (id INTEGER PRIMARY KEY, n INTEGER NOT NULL, "
    "s VARCHAR(3), g INTEGER)",
    "CREATE INDEX t_g ON t (g)",
    "CREATE INDEX t_ns ON t (n, s)",
)
INSERT = "INSERT INTO t VALUES (?, ?, ?, ?)"
SEEDED = [(0, 0, "a", 1), (1, 1, None, None)]

#: Parameter rows that meet every way an INSERT row can go wrong: a
#: duplicate primary key (ids collide, also with the seeded rows), NULL
#: into the NOT NULL ``n``, ``'x'`` into the INTEGER ``g`` (``'2'``
#: coerces) and text longer than ``VARCHAR(3)`` (truncated).
ROWS = st.lists(
    st.tuples(
        st.integers(0, 6),
        st.one_of(st.none(), st.integers(-2, 2)),
        st.one_of(st.none(), st.text("ab", max_size=5)),
        st.one_of(st.none(), st.integers(0, 3), st.sampled_from(["x", "2"])),
    ),
    max_size=8,
)


def open_database(mode):
    """A WAL-backed database with two rows; *mode* ``"snapshot"`` opens a
    READ ONLY snapshot on another session, ``"rollback"`` a transaction
    on the default one."""
    durability = Durability(SimDisk())
    db = durability.open()
    for sql in SCHEMA:
        db.execute(sql)
    for row in SEEDED:
        db.execute(INSERT, row)
    if mode == "snapshot":
        db.begin(session="reader", read_only=True)
    elif mode == "rollback":
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
        db._implicit_txn_seq,
        db.statistics["versions_created"],
        db.statistics["versions_gc"],
        durability.disk.read_all(),
    )


def with_executemany(db, rows):
    """``(error type or None, index of the failing row or len(rows))``."""
    pulled = 0

    def feed():
        nonlocal pulled
        for row in rows:
            pulled += 1
            yield row

    try:
        db.executemany(INSERT, feed())
    except SQLError as exc:
        return type(exc), pulled - 1
    return None, len(rows)


def with_execute(db, rows):
    for at, row in enumerate(rows):
        try:
            db.execute(INSERT, row)
        except SQLError as exc:
            return type(exc), at
    return None, len(rows)


@pytest.mark.parametrize("mode", ["wal", "snapshot", "rollback"])
@settings(max_examples=60, deadline=None)
@given(rows=ROWS)
def test_executemany_equals_a_loop_of_execute(mode, rows):
    many_disk, many = open_database(mode)
    loop_disk, loop = open_database(mode)
    assert with_executemany(many, rows) == with_execute(loop, rows)
    assert image(many_disk, many) == image(loop_disk, loop)
    if mode == "snapshot":
        read = "SELECT * FROM t ORDER BY id"
        assert many.execute(read, session="reader").rows == SEEDED
        assert loop.execute(read, session="reader").rows == SEEDED
        many.commit(session="reader")
        loop.commit(session="reader")
    elif mode == "rollback":
        many.rollback()
        loop.rollback()
        assert many.execute("SELECT * FROM t ORDER BY id").rows == SEEDED
    assert image(many_disk, many) == image(loop_disk, loop)


def test_each_row_is_its_own_autocommit_statement():
    durability, db = open_database("wal")
    clock, seq = db.mvcc.clock, db._implicit_txn_seq
    commits = durability.wal.statistics["commits"]
    with pytest.raises(SQLError):
        db.executemany(INSERT, [(2, 2, "b", 0), (3, 3, "c", 0), (0, 9, "d", 0)])
    # The duplicate primary key fails the third row; the first two stay.
    assert db.execute("SELECT id FROM t ORDER BY id").rows == [(0,), (1,), (2,), (3,)]
    assert db.mvcc.clock - clock == 2
    assert db._implicit_txn_seq - seq == 3
    assert durability.wal.statistics["commits"] - commits == 2
    recovered = durability.recover()
    assert recovered.execute("SELECT COUNT(*) FROM t").scalar() == 4


@pytest.mark.parametrize("entry", ["execute", "executemany"])
def test_a_deadlock_victim_learns_of_its_abort_before_any_row_is_written(entry):
    db = Database()
    db.execute("CREATE TABLE acct (id INTEGER PRIMARY KEY, balance INTEGER)")
    db.execute("INSERT INTO acct VALUES (1, 0), (2, 0)")
    db.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
    db.attach_lock_manager(LockManager())
    db.begin(session="other")  # older: survives the deadlock
    db.begin()  # the default session, younger: the victim
    db.execute("UPDATE acct SET balance = 1 WHERE id = 1")
    db.execute("UPDATE acct SET balance = 2 WHERE id = 2", session="other")
    with pytest.raises(LockUnavailable):
        db.execute("UPDATE acct SET balance = 1 WHERE id = 2")
    # Closing the cycle aborts the default session's transaction.
    db.execute("UPDATE acct SET balance = 2 WHERE id = 1", session="other")
    assert not db.in_transaction
    with pytest.raises(DeadlockError):
        if entry == "execute":
            db.execute("INSERT INTO t VALUES (?, ?)", (2, 2))
        else:
            db.executemany("INSERT INTO t VALUES (?, ?)", [(2, 2), (3, 3)])
    assert db.table_rowcount("t") == 0
    # The abort is reported once; the session then runs statements again.
    db.executemany("INSERT INTO t VALUES (?, ?)", [(2, 2), (3, 3)])
    assert db.table_rowcount("t") == 2
