"""TableStorage and HashIndex unit tests (below the SQL layer)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CatalogError, IntegrityError
from repro.sqldb.mvcc import Snapshot
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
        assert sorted(index.probe(0)) == [ids[0], ids[2], ids[4]]

    def test_index_built_over_existing_rows(self, storage):
        for i in range(4):
            insert(storage, (i, 7, "x"))
        storage.create_index("late", ["grp"])
        assert len(storage.find_index(["grp"]).probe(7)) == 4

    def test_null_keys_not_indexed(self, storage):
        storage.create_index("t_grp", ["grp"])
        insert(storage, (1, None, "a"))
        index = storage.find_index(["grp"])
        assert index.probe(None) == []

    def test_index_maintained_on_delete(self, storage):
        storage.create_index("t_grp", ["grp"])
        row_id = insert(storage, (1, 5, "a"))
        storage.delete(row_id)
        assert storage.find_index(["grp"]).probe(5) == []

    def test_index_maintained_on_update(self, storage):
        storage.create_index("t_grp", ["grp"])
        row_id = insert(storage, (1, 5, "a"))
        storage.update(row_id, (1, 6, "a"))
        index = storage.find_index(["grp"])
        assert index.probe(5) == []
        assert index.probe(6) == [row_id]

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
        assert index.probe(1) == []


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
        assert storage.find_index(["id"]).probe(1) == [first]
        assert storage.find_index(["id"]).probe(2) == [second]
        assert storage.find_index(["grp"]).probe(10) == [first]
        assert storage.find_index(["grp"]).probe(30) == []

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
        assert storage.find_index(["grp"]).probe(7) == ids

    def test_key_update_moves_the_row_between_buckets(self, storage):
        storage.create_index("t_grp", ["grp"])
        ids = [insert(storage, (i, 7, "x")) for i in range(3)]
        storage.update(ids[0], (0, 8, "x"))
        index = storage.find_index(["grp"])
        assert index.probe(7) == ids[1:]
        assert index.probe(8) == [ids[0]]

    def test_update_to_and_from_null_key(self, storage):
        storage.create_index("t_grp", ["grp"])
        row_id = insert(storage, (1, 5, "a"))
        index = storage.find_index(["grp"])
        storage.update(row_id, (1, None, "a"))
        assert index.probe(5) == []
        storage.update(row_id, (1, 6, "a"))
        assert index.probe(6) == [row_id]

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
        assert pk.probe(1) == [first]
        assert pk.probe(2) == [second]
        assert pk.probe(3) == []
        assert storage.find_index(["grp"]).probe(10) == [first]
        assert storage.find_index(["grp"]).probe(11) == []


class TestInsertIndexMaintenance:
    """An insert checks every unique index before it adds the row to any."""

    def test_a_violation_on_a_later_unique_index_touches_no_index(self, storage):
        storage.create_index("t_name", ["name"], unique=True)
        insert(storage, (1, 10, "a"))
        with pytest.raises(IntegrityError, match="t_name"):
            insert(storage, (2, 20, "a"))  # the pk index would take id 2
        pk = storage.find_index(["id"])
        assert pk.probe(2) == []
        reused = insert(storage, (3, 30, "b"))  # the failed insert's slot
        assert pk.probe(2) == []
        assert pk.probe(3) == [reused]
        assert len(storage) == 2

    def test_a_restored_delete_is_indexed_again(self, storage):
        storage.create_index("t_grp", ["grp"])
        row_id = insert(storage, (1, 10, "a"))
        log = []
        storage.attach_undo(log)
        storage.delete(row_id)
        storage.rollback_entries(log)
        assert storage.find_index(["id"]).probe(1) == [row_id]
        assert storage.find_index(["grp"]).probe(10) == [row_id]


# -- the bucket representation, against a plain model ------------------------
#
# A model of ``TableStorage`` that keeps each index as a plain
# ``dict[key, list[row id]]`` and does everything row by row, as the
# storage's contract says: an insert checks and places one row at a time,
# a failing update changes nothing, a load places its rows and then fills
# each index, a unique one raising at its first held key.  Driven through
# random operations beside a real storage, the two must agree after every
# step on the error text, the heap, every bucket and every probe, live and
# under an open snapshot whose version chains shield the writes made since
# it opened; and each real bucket must be an int iff one row holds its key.

MODEL_COLUMNS = (
    Column("id", INTEGER, not_null=True, primary_key=True),
    Column("a", INTEGER),
    Column("b", VARCHAR(2)),
    Column("c", INTEGER, not_null=True),
)
IDS = st.integers(0, 15)
A = st.sampled_from([None, 0, 1, 2])
B = st.sampled_from([None, "x", "y"])
C = st.integers(0, 2)
# Few NULLs where a NULL fails the row; a logged row passed the checks.
ROWS = st.tuples(st.sampled_from([*range(16), None]), A, B, st.sampled_from([0, 1, 2, 0, 1, 2, None]))
LOGGED = st.tuples(IDS, A, B, C)
INDEX_COLUMNS = st.sampled_from([("a",), ("b",), ("c",), ("a", "b"), ("b", "c"), ("c", "a")])
UNIQUE = st.sampled_from([False, False, True])  # a unique index over few values fails most rows
INSERTS = st.tuples(st.just("insert"), st.lists(ROWS, min_size=1, max_size=4))
OPERATIONS = st.one_of(
    INSERTS,
    INSERTS,
    st.tuples(st.just("update"), st.integers(0, 30), ROWS, st.booleans()),
    st.tuples(st.just("delete"), st.integers(0, 30)),
    st.tuples(st.just("begin")),
    st.tuples(st.sampled_from(["commit", "rollback"])),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("load"), st.lists(st.tuples(st.integers(0, 2), LOGGED), max_size=4)),
    st.tuples(st.just("create_index"), INDEX_COLUMNS, UNIQUE),
)


class Model:
    """The storage's contract, row by row, over plain bucket lists."""

    def __init__(self):
        self.heap = []
        self.indexes = {"t_pk": ((0,), True, {})}  # name -> (positions, unique, buckets)
        self.log = None

    @staticmethod
    def key(positions, row):
        key = tuple(row[p] for p in positions)
        if None in key:
            return None
        return key[0] if len(key) == 1 else key

    def violation(self, name, key):
        shown = (key,) if len(self.indexes[name][0]) == 1 else key
        return f"unique index {name!r} violated by key {shown!r}"

    def checks(self, row):
        for position, column in enumerate(MODEL_COLUMNS):
            if column.not_null and row[position] is None:
                return f"column t.{column.name} is NOT NULL"
        return None

    def add(self, row_id, row, indexes=None):
        for positions, __, buckets in self.indexes.values() if indexes is None else indexes:
            key = self.key(positions, row)
            if key is not None:
                buckets.setdefault(key, []).append(row_id)

    def drop(self, row_id, row, indexes=None):
        for positions, __, buckets in self.indexes.values() if indexes is None else indexes:
            key = self.key(positions, row)
            if key is not None:
                buckets[key].remove(row_id)
                if not buckets[key]:
                    del buckets[key]

    def journal(self, *entry):
        if self.log is not None:
            self.log.append(entry)

    def insert(self, rows):
        for row in rows:
            error = self.checks(row)
            for name, (positions, unique, buckets) in self.indexes.items():
                if error is None and unique and self.key(positions, row) in buckets:
                    error = self.violation(name, self.key(positions, row))
            if error is not None:
                return error
            self.heap.append(row)
            self.add(len(self.heap) - 1, row)
            self.journal("insert", len(self.heap) - 1)
        return None

    def update(self, row_id, row):
        old = self.heap[row_id]
        if old is None:
            return f"row {row_id} of 't' is deleted"
        error = self.checks(row)
        if error is not None:
            return error
        moved = []  # the indexes whose key the update changes
        for name, index in self.indexes.items():
            positions, unique, buckets = index
            key = self.key(positions, row)
            if key != self.key(positions, old):
                if unique and key in buckets:
                    return self.violation(name, key)
                moved.append(index)
        self.drop(row_id, old, moved)
        self.add(row_id, row, moved)
        self.heap[row_id] = row
        self.journal("update", row_id, old)
        return None

    def delete(self, row_id):
        row = self.heap[row_id]
        if row is not None:
            self.drop(row_id, row)
            self.heap[row_id] = None
            self.journal("delete", row_id, row)

    def rollback(self, entries):
        self.log = None
        for entry in reversed(entries):
            if entry[0] == "insert":
                self.delete(entry[1])
            elif entry[0] == "delete":
                self.heap[entry[1]] = entry[2]
                self.add(entry[1], entry[2])
            else:
                assert self.update(entry[1], entry[2]) is None

    def fill(self, name, pairs):
        positions, unique, buckets = self.indexes[name]
        for row_id, row in pairs:
            key = self.key(positions, row)
            if key is None:
                continue
            if unique and key in buckets:
                return self.violation(name, key)
            buckets.setdefault(key, []).append(row_id)
        return None

    def load(self, pairs):
        for row_id, row in pairs:
            self.heap.extend([None] * (row_id + 1 - len(self.heap)))
            self.heap[row_id] = row
        for name in self.indexes:
            error = self.fill(name, pairs)
            if error is not None:
                return error
        return None

    def create_index(self, name, positions, unique):
        self.indexes[name] = (positions, unique, {})
        error = self.fill(name, [(i, row) for i, row in enumerate(self.heap) if row is not None])
        if error is not None:
            del self.indexes[name]
        return error


def outcome(action):
    try:
        action()
    except IntegrityError as exc:
        return str(exc)
    return None


def assert_agree(storage, model, snapshot, seen, chained):
    """Heap, buckets and probes of *storage* are the *model*'s; *seen*
    is the heap the snapshot (if open) sees, read in the slots written
    since it opened or by the transaction then in flight (*chained*)."""
    assert storage._rows == model.heap
    assert len(storage) == sum(row is not None for row in model.heap)
    assert list(storage._indexes) == [name.lower() for name in model.indexes]
    assert set(storage.mvcc.chains) == chained
    for index, (positions, __, buckets) in zip(storage._indexes.values(), model.indexes.values()):
        assert index.column_positions == positions
        assert index._buckets.keys() == buckets.keys()
        for key, held in index._buckets.items():
            # An int iff one row holds the key: each bucket has one form.
            assert (held.__class__ is int) == (len(buckets[key]) == 1), (key, held)
            assert held == (buckets[key][0] if held.__class__ is int else buckets[key])
        nulls = [None, (None,) * len(positions), (0,) + (None,) * (len(positions) - 1)]
        for key in list(buckets) + [0, "x", (0, "x"), ("x", 0)] + nulls:
            ids = buckets.get(key, []) if key is not None else []
            assert index.probe(key) == ids
            assert storage.probe(index, key) == [model.heap[i] for i in ids]
            if snapshot is None:
                continue

            def visible(row_id):
                if row_id not in chained:
                    return model.heap[row_id]
                return seen[row_id] if row_id < len(seen) else None

            def matches(row):
                return row is not None and Model.key(positions, row) == key is not None

            expected = [visible(i) for i in ids if i not in chained or matches(visible(i))]
            expected += [visible(i) for i in sorted(chained - set(ids)) if matches(visible(i))]
            assert storage.probe(index, key, snapshot) == expected
            everything = [visible(i) for i in range(len(model.heap)) if matches(visible(i))]
            assert sorted(expected, key=repr) == sorted(everything, key=repr)


@settings(max_examples=250, deadline=None)
@given(
    indexes=st.lists(st.tuples(INDEX_COLUMNS, UNIQUE), max_size=3),
    operations=st.lists(OPERATIONS, min_size=6, max_size=30),
)
def test_buckets_and_probes_agree_with_a_plain_list_model(indexes, operations):
    storage = TableStorage(TableSchema(name="t", columns=list(MODEL_COLUMNS)))
    model = Model()
    operations = [("create_index", *index) for index in indexes] + operations
    log = snapshot = None
    seen, chained = [], set()  # the snapshot's heap; the slots it reads there
    for operation in operations:
        kind, *arguments = operation
        written = len(log) if log is not None else 0  # the transaction's entries so far
        statement = None  # an autocommit statement's undo log, under a snapshot
        if snapshot is not None and log is None and kind in ("insert", "update", "delete"):
            statement = []
            storage.attach_undo(statement)
            model.log = []
        if kind == "insert":
            rows = [tuple(row) for row in arguments[0]]

            def insert():
                placed, error = storage.check(rows)
                storage.append(rows[:placed])
                if error is not None:
                    raise error

            assert outcome(insert) == model.insert(rows)
        elif kind in ("update", "delete"):
            if not model.heap:
                continue
            row_id = arguments[0] % len(model.heap)
            if kind == "update":
                row = tuple(arguments[1])
                if arguments[2]:  # the same id: a key of another index moves
                    row = model.heap[row_id][:1] + row[1:] if model.heap[row_id] else row
                assert outcome(lambda: storage.update(row_id, row)) == model.update(row_id, row)
            else:
                storage.delete(row_id)
                model.delete(row_id)
        elif kind == "begin" and log is None:
            log = []
            storage.attach_undo(log)
            model.log = []
        elif kind == "commit" and log is not None:
            storage.detach_undo()
            log = model.log = None
        elif kind == "rollback" and log is not None:
            storage.rollback_entries(log)
            model.rollback(model.log)
            log = None
        elif kind == "snapshot" and snapshot is None:
            snapshot = Snapshot(stamp=1, sid=1)
            # It sees the committed heap: the one in flight rolled back.
            seen = list(model.heap)
            for entry in reversed(log or []):
                seen[entry[1]] = entry[2] if len(entry) > 2 else None
            written = 0  # the transaction's writes so far are shielded too
        elif kind == "load" and log is None and snapshot is None:
            # The recovery path: fresh slots, perhaps past dead ones.
            pairs, at = [], len(model.heap)
            for gap, row in arguments[0]:
                at += gap
                pairs.append((at, tuple(row)))
                at += 1
            error = model.load(pairs)
            assert outcome(lambda: storage.load(pairs)) == error
            if error is not None:  # the storage is discarded: compare what it left
                assert storage._rows == model.heap
                for index, (__, __, buckets) in zip(storage._indexes.values(), model.indexes.values()):
                    assert {k: [v] if v.__class__ is int else v for k, v in index._buckets.items()} == buckets
                return
        elif kind == "create_index" and log is None:
            name = f"i{len(model.indexes)}"
            positions = tuple(storage.schema.column_index(c) for c in arguments[0])
            expected = model.create_index(name, positions, arguments[1])
            assert outcome(lambda: storage.create_index(name, arguments[0], arguments[1])) == expected
        entries = statement if statement is not None else (log or [])[written:]
        if snapshot is not None and entries:
            # What the database does: each write's undo entries shield the
            # snapshot from it (a slot's first carries its committed row).
            chained.update(entry[1] for entry in entries)
            storage.mvcc.capture(entries)
        if statement is not None:
            storage.detach_undo()
            model.log = None
        assert_agree(storage, model, snapshot, seen, chained)
