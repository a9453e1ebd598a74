"""TableStorage and HashIndex unit tests (below the SQL layer)."""

import pytest

from repro.errors import CatalogError, IntegrityError
from repro.sqldb.schema import Column, TableSchema
from repro.sqldb.storage import HashIndex, TableStorage
from repro.sqldb.types import INTEGER, VARCHAR


@pytest.fixture
def schema():
    return TableSchema(
        name="t",
        columns=[
            Column("id", INTEGER, primary_key=True),
            Column("grp", INTEGER),
            Column("name", VARCHAR(10)),
        ],
    )


@pytest.fixture
def storage(schema):
    return TableStorage(schema)


def insert(storage, row):
    """Check and place one row as an INSERT does; return its row id."""
    rows = [tuple(row)]
    error = storage.check(rows)[1]
    if error is not None:
        raise error
    storage.append(rows)
    return len(storage._rows) - 1


class TestSchema:
    def test_column_index_case_insensitive(self, schema):
        assert schema.column_index("GRP") == 1

    def test_unknown_column_raises(self, schema):
        with pytest.raises(CatalogError):
            schema.column_index("missing")

    def test_primary_key_index(self, schema):
        assert schema.primary_key_index() == 0

    def test_arity(self, schema):
        assert schema.arity == 3


class TestStorage:
    def test_insert_scan_roundtrip(self, storage):
        insert(storage, (1, 10, "a"))
        insert(storage, (2, 10, "b"))
        assert list(storage.rows()) == [(1, 10, "a"), (2, 10, "b")]
        assert len(storage) == 2

    def test_primary_key_auto_index_unique(self, storage):
        insert(storage, (1, 10, "a"))
        with pytest.raises(IntegrityError):
            insert(storage, (1, 20, "b"))
        assert len(storage) == 1  # failed insert leaves no trace

    def test_delete_frees_slot(self, storage):
        row_id = insert(storage, (1, 10, "a"))
        storage.delete(row_id)
        assert len(storage) == 0
        assert list(storage.rows()) == []

    def test_delete_is_idempotent(self, storage):
        row_id = insert(storage, (1, 10, "a"))
        storage.delete(row_id)
        storage.delete(row_id)
        assert len(storage) == 0

    def test_update_replaces_row(self, storage):
        row_id = insert(storage, (1, 10, "a"))
        storage.update(row_id, (1, 20, "z"))
        assert storage.fetch(row_id) == (1, 20, "z")

    def test_update_deleted_row_raises(self, storage):
        row_id = insert(storage, (1, 10, "a"))
        storage.delete(row_id)
        with pytest.raises(IntegrityError):
            storage.update(row_id, (1, 20, "z"))

    def test_wrong_arity_rejected(self):
        from repro.sqldb import Database

        db = Database()
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, grp INTEGER, name VARCHAR(10))")
        with pytest.raises(IntegrityError):
            db.execute("INSERT INTO t VALUES (1, 10)")
        assert db.table_rowcount("t") == 0


class TestIndexes:
    def test_index_probe(self, storage):
        storage.create_index("t_grp", ["grp"])
        ids = [insert(storage, (i, i % 2, "x")) for i in range(6)]
        index = storage.find_index(["grp"])
        assert sorted(index.probe((0,))) == [ids[0], ids[2], ids[4]]

    def test_index_built_over_existing_rows(self, storage):
        for i in range(4):
            insert(storage, (i, 7, "x"))
        storage.create_index("late", ["grp"])
        assert len(storage.find_index(["grp"]).probe((7,))) == 4

    def test_null_keys_not_indexed(self, storage):
        storage.create_index("t_grp", ["grp"])
        insert(storage, (1, None, "a"))
        index = storage.find_index(["grp"])
        assert index.probe((None,)) == []

    def test_index_maintained_on_delete(self, storage):
        storage.create_index("t_grp", ["grp"])
        row_id = insert(storage, (1, 5, "a"))
        storage.delete(row_id)
        assert storage.find_index(["grp"]).probe((5,)) == []

    def test_index_maintained_on_update(self, storage):
        storage.create_index("t_grp", ["grp"])
        row_id = insert(storage, (1, 5, "a"))
        storage.update(row_id, (1, 6, "a"))
        index = storage.find_index(["grp"])
        assert index.probe((5,)) == []
        assert index.probe((6,)) == [row_id]

    def test_duplicate_index_name_rejected(self, storage):
        storage.create_index("i", ["grp"])
        with pytest.raises(CatalogError):
            storage.create_index("i", ["name"])

    def test_find_index_exact_columns_only(self, storage):
        storage.create_index("i", ["grp"])
        assert storage.find_index(["name"]) is None
        assert storage.find_index(["grp"]) is not None

    def test_multi_column_index(self, storage):
        storage.create_index("multi", ["grp", "name"])
        row_id = insert(storage, (1, 5, "a"))
        index = storage.find_index(["grp", "name"])
        assert index.probe((5, "a")) == [row_id]
        assert index.probe((5, "b")) == []


class TestHashIndexUnit:
    def test_unique_violation_message(self):
        index = HashIndex("u", [0], unique=True)
        index.add(0, (1,))
        with pytest.raises(IntegrityError):
            index.add(1, (1,))

    def test_remove_missing_is_noop(self):
        index = HashIndex("i", [0])
        index.remove(0, (1,))  # no error
        assert index.probe((1,)) == []


class TestUpdateIndexMaintenance:
    """An update touches only the indexes whose key it changed, and a
    unique violation touches none."""

    def test_failed_update_leaves_every_index_intact(self, storage):
        storage.create_index("t_grp", ["grp"])
        first = insert(storage, (1, 10, "a"))
        second = insert(storage, (2, 20, "b"))
        with pytest.raises(IntegrityError):
            storage.update(first, (2, 30, "a"))  # pk collides with `second`
        assert storage.fetch(first) == (1, 10, "a")
        assert storage.find_index(["id"]).probe((1,)) == [first]
        assert storage.find_index(["id"]).probe((2,)) == [second]
        assert storage.find_index(["grp"]).probe((10,)) == [first]
        assert storage.find_index(["grp"]).probe((30,)) == []

    def test_failed_update_through_sql_keeps_the_row_reachable_by_key(self):
        from repro.sqldb import Database

        db = Database()
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        db.execute("INSERT INTO t VALUES (1, 10), (2, 20)")
        with pytest.raises(IntegrityError):
            db.execute("UPDATE t SET id = 2 WHERE v = 10")
        assert db.execute("SELECT * FROM t WHERE id = 1").rows == [(1, 10)]
        assert db.execute("UPDATE t SET v = 11 WHERE id = 1").rowcount == 1
        assert db.execute("DELETE FROM t WHERE id = 1").rowcount == 1

    def test_non_key_update_leaves_bucket_order_unchanged(self, storage):
        storage.create_index("t_grp", ["grp"])
        ids = [insert(storage, (i, 7, "x")) for i in range(4)]
        storage.update(ids[1], (1, 7, "renamed"))
        assert storage.find_index(["grp"]).probe((7,)) == ids

    def test_key_update_moves_the_row_between_buckets(self, storage):
        storage.create_index("t_grp", ["grp"])
        ids = [insert(storage, (i, 7, "x")) for i in range(3)]
        storage.update(ids[0], (0, 8, "x"))
        index = storage.find_index(["grp"])
        assert index.probe((7,)) == ids[1:]
        assert index.probe((8,)) == [ids[0]]

    def test_update_to_and_from_null_key(self, storage):
        storage.create_index("t_grp", ["grp"])
        row_id = insert(storage, (1, 5, "a"))
        index = storage.find_index(["grp"])
        storage.update(row_id, (1, None, "a"))
        assert index.probe((5,)) == []
        storage.update(row_id, (1, 6, "a"))
        assert index.probe((6,)) == [row_id]

    def test_rollback_restores_rows_and_indexes(self, storage):
        storage.create_index("t_grp", ["grp"])
        first = insert(storage, (1, 10, "a"))
        second = insert(storage, (2, 20, "b"))
        log = []
        storage.attach_undo(log)
        storage.update(first, (3, 11, "a"))
        storage.update(second, (1, 20, "renamed"))  # takes over the freed pk
        storage.rollback_entries(log)
        assert list(storage.rows()) == [(1, 10, "a"), (2, 20, "b")]
        pk = storage.find_index(["id"])
        assert pk.probe((1,)) == [first]
        assert pk.probe((2,)) == [second]
        assert pk.probe((3,)) == []
        assert storage.find_index(["grp"]).probe((10,)) == [first]
        assert storage.find_index(["grp"]).probe((11,)) == []


class TestInsertIndexMaintenance:
    """An insert checks every unique index before it adds the row to any."""

    def test_a_violation_on_a_later_unique_index_touches_no_index(self, storage):
        storage.create_index("t_name", ["name"], unique=True)
        insert(storage, (1, 10, "a"))
        with pytest.raises(IntegrityError, match="t_name"):
            insert(storage, (2, 20, "a"))  # the pk index would take id 2
        pk = storage.find_index(["id"])
        assert pk.probe((2,)) == []
        reused = insert(storage, (3, 30, "b"))  # the failed insert's slot
        assert pk.probe((2,)) == []
        assert pk.probe((3,)) == [reused]
        assert len(storage) == 2

    def test_a_restored_delete_is_indexed_again(self, storage):
        storage.create_index("t_grp", ["grp"])
        row_id = insert(storage, (1, 10, "a"))
        log = []
        storage.attach_undo(log)
        storage.delete(row_id)
        storage.rollback_entries(log)
        assert storage.find_index(["id"]).probe((1,)) == [row_id]
        assert storage.find_index(["grp"]).probe((10,)) == [row_id]
