"""Memory ≡ log when the log refuses a value.

A value the wire codec cannot carry — text UTF-8 cannot encode (a lone
surrogate), an integer outside int64 — cannot be written to the log.  The
statement that tried must fail with a typed :class:`ProtocolError` *before*
anything changes in memory: the storage checks its constraints, then
journals, then changes the heap and the indexes.  Otherwise the row stays
visible in memory while ``recover()`` does not have it.
"""

import pytest

from repro.errors import ProtocolError
from repro.recovery import Durability, SimDisk

BAD_TEXT = "\ud800"
BAD_INT = 2**70


def state(database):
    """Every table's rows, in slot order."""
    return {
        name: database.execute(f"SELECT * FROM {name}").rows
        for name in sorted(database.table_names())
    }


@pytest.fixture
def durability():
    durability = Durability(SimDisk())
    db = durability.open()
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, s VARCHAR(8), n INTEGER)")
    db.execute("INSERT INTO t VALUES (1, 'a', 10)")
    return durability


def assert_refused(db, sql, params=()):
    """*sql* fails with a ProtocolError and leaves memory as it was."""
    before = state(db)
    with pytest.raises(ProtocolError):
        db.execute(sql, params)
    assert state(db) == before


def assert_log_is_memory(durability, db):
    memory = state(db)
    assert state(durability.recover()) == memory


BAD_ROWS = [
    pytest.param((2, BAD_TEXT, 20), id="surrogate"),
    pytest.param((2, "b", BAD_INT), id="int-past-int64"),
]
BAD_ASSIGNMENTS = [
    pytest.param("s", "\udfff", id="surrogate"),
    pytest.param("n", BAD_INT, id="int-past-int64"),
]


class TestInsert:
    @pytest.mark.parametrize("row", BAD_ROWS)
    def test_autocommit(self, durability, row):
        db = durability.database
        assert_refused(db, "INSERT INTO t VALUES (?, ?, ?)", row)
        db.execute("INSERT INTO t VALUES (3, 'c', 30)")
        assert_log_is_memory(durability, db)

    @pytest.mark.parametrize("row", BAD_ROWS)
    def test_in_a_transaction(self, durability, row):
        db = durability.database
        db.execute("BEGIN")
        db.execute("INSERT INTO t VALUES (3, 'c', 30)")
        assert_refused(db, "INSERT INTO t VALUES (?, ?, ?)", row)
        db.execute("COMMIT")
        assert state(db)["t"] == [(1, "a", 10), (3, "c", 30)]
        assert_log_is_memory(durability, db)

    def test_a_refused_row_frees_its_unique_key(self, durability):
        db = durability.database
        assert_refused(db, "INSERT INTO t VALUES (2, ?, 20)", [BAD_TEXT])
        db.execute("INSERT INTO t VALUES (2, 'b', 20)")
        assert_log_is_memory(durability, db)

    def test_executemany_keeps_the_rows_before_the_refused_one(self, durability):
        db = durability.database
        with pytest.raises(ProtocolError):
            db.executemany(
                "INSERT INTO t VALUES (?, ?, ?)",
                [(2, "b", 20), (3, BAD_TEXT, 30), (4, "d", 40)],
            )
        assert state(db)["t"] == [(1, "a", 10), (2, "b", 20)]
        assert_log_is_memory(durability, db)

    def test_a_multi_row_insert_keeps_its_pre_error_rows(self, durability):
        db = durability.database
        with pytest.raises(ProtocolError):
            db.execute("INSERT INTO t VALUES (2, 'b', 20), (3, ?, 30)", [BAD_TEXT])
        assert state(db)["t"] == [(1, "a", 10), (2, "b", 20)]
        assert_log_is_memory(durability, db)


class TestUpdate:
    @pytest.mark.parametrize("column, value", BAD_ASSIGNMENTS)
    def test_autocommit(self, durability, column, value):
        db = durability.database
        assert_refused(db, f"UPDATE t SET {column} = ? WHERE id = 1", [value])
        assert_log_is_memory(durability, db)

    @pytest.mark.parametrize("column, value", BAD_ASSIGNMENTS)
    def test_in_a_transaction(self, durability, column, value):
        db = durability.database
        db.execute("BEGIN")
        db.execute("UPDATE t SET n = 11 WHERE id = 1")
        assert_refused(db, f"UPDATE t SET {column} = ? WHERE id = 1", [value])
        db.execute("COMMIT")
        assert state(db)["t"] == [(1, "a", 11)]
        assert_log_is_memory(durability, db)

    def test_a_refused_key_update_leaves_the_index_alone(self, durability):
        db = durability.database
        db.execute("CREATE INDEX t_s ON t (s)")
        assert_refused(db, "UPDATE t SET s = ? WHERE id = 1", [BAD_TEXT])
        assert db.execute("SELECT id FROM t WHERE s = 'a'").rows == [(1,)]
        assert_log_is_memory(durability, db)


class TestDdl:
    def test_a_refused_table_name_never_reaches_the_catalog(self, durability):
        db = durability.database
        names = db.table_names()
        with pytest.raises(ProtocolError):
            db.execute(f'CREATE TABLE "t{BAD_TEXT}" (a INTEGER)')
        assert db.table_names() == names
        recovered = durability.recover()
        assert recovered.table_names() == names
        assert state(recovered) == state(db)
