"""MVCC snapshot reads: visibility, GC, differential and property tests.

The contract under test (DESIGN §14): a ``BEGIN TRANSACTION READ ONLY``
on an MVCC build captures a snapshot at BEGIN and every statement inside
it sees exactly the committed state as of that stamp — regardless of
what writers commit, roll back, insert or delete afterwards — without
acquiring a single lock; and once the last snapshot closes, garbage
collection returns every table to the chainless fast path.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError
from repro.sqldb import Database


def make_db():
    db = Database(mvcc=True)
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
    db.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
    return db


def snapshot_rows(db, session="reader"):
    return db.execute(
        "SELECT id, v FROM t ORDER BY id", session=session
    ).rows


class TestSnapshotVisibility:
    def test_snapshot_ignores_later_commits(self):
        db = make_db()
        db.execute("BEGIN TRANSACTION READ ONLY", session="reader")
        db.execute("UPDATE t SET v = 99 WHERE id = 1")
        assert snapshot_rows(db) == [(1, 10), (2, 20), (3, 30)]
        # The live (autocommit) view sees the new value immediately.
        assert db.execute("SELECT v FROM t WHERE id = 1").rows == [(99,)]
        db.execute("COMMIT", session="reader")
        # A fresh snapshot starts from the newer commit stamp.
        db.execute("BEGIN TRANSACTION READ ONLY", session="reader")
        assert snapshot_rows(db)[0] == (1, 99)
        db.execute("COMMIT", session="reader")

    def test_snapshot_ignores_uncommitted_writes(self):
        db = make_db()
        db.execute("BEGIN", session="writer")
        db.execute("UPDATE t SET v = 77 WHERE id = 2", session="writer")
        db.execute("INSERT INTO t VALUES (4, 40)", session="writer")
        db.execute("BEGIN TRANSACTION READ ONLY", session="reader")
        assert snapshot_rows(db) == [(1, 10), (2, 20), (3, 30)]
        db.execute("ROLLBACK", session="writer")
        assert snapshot_rows(db) == [(1, 10), (2, 20), (3, 30)]
        db.execute("COMMIT", session="reader")

    def test_deleted_row_stays_visible_to_older_snapshot(self):
        db = make_db()
        db.execute("BEGIN TRANSACTION READ ONLY", session="reader")
        db.execute("DELETE FROM t WHERE id = 3")
        assert snapshot_rows(db) == [(1, 10), (2, 20), (3, 30)]
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 2
        db.execute("COMMIT", session="reader")
        db.execute("BEGIN TRANSACTION READ ONLY", session="reader")
        assert snapshot_rows(db) == [(1, 10), (2, 20)]
        db.execute("COMMIT", session="reader")

    def test_insert_after_begin_is_invisible(self):
        db = make_db()
        db.execute("BEGIN TRANSACTION READ ONLY", session="reader")
        db.execute("INSERT INTO t VALUES (4, 40)")
        assert snapshot_rows(db) == [(1, 10), (2, 20), (3, 30)]
        db.execute("COMMIT", session="reader")

    def test_index_probe_under_snapshot(self):
        db = make_db()
        db.execute("BEGIN TRANSACTION READ ONLY", session="reader")
        db.execute("UPDATE t SET v = 99 WHERE id = 1")
        db.execute("DELETE FROM t WHERE id = 2")
        rows = db.execute(
            "SELECT v FROM t WHERE id = ?", [1], session="reader"
        ).rows
        assert rows == [(10,)]
        rows = db.execute(
            "SELECT v FROM t WHERE id = ?", [2], session="reader"
        ).rows
        assert rows == [(20,)]
        db.execute("COMMIT", session="reader")

    def test_in_subquery_probe_under_snapshot(self):
        """The subquery-keyed index probe reads at the snapshot's stamp on
        both sides: the key set and the probed table."""
        db = Database(mvcc=True)
        db.execute_script(
            "CREATE TABLE big (id INTEGER PRIMARY KEY, k INTEGER);"
            "CREATE INDEX big_k ON big (k);"
            "CREATE TABLE wanted (x INTEGER)"
        )
        db.executemany(
            "INSERT INTO big VALUES (?, ?)", [(i, i % 10) for i in range(40)]
        )
        db.execute("INSERT INTO wanted VALUES (1)")
        sql = "SELECT id FROM big WHERE k IN (SELECT x FROM wanted) ORDER BY 1"
        db.execute("BEGIN TRANSACTION READ ONLY", session="reader")
        db.execute("UPDATE big SET k = 1 WHERE id = 5")  # moves into the key
        db.execute("UPDATE big SET k = 5 WHERE id = 11")  # moves out of it
        db.execute("DELETE FROM big WHERE id = 21")
        db.execute("INSERT INTO big VALUES (41, 1)")
        db.execute("INSERT INTO wanted VALUES (2)")
        assert db.execute(sql, session="reader").rows == [
            (1,), (11,), (21,), (31,)
        ]
        assert db.last_counters["index_probes"] == 1
        assert db.execute(sql).rows == [
            (1,), (2,), (5,), (12,), (22,), (31,), (32,), (41,)
        ]
        db.execute("COMMIT", session="reader")

    def test_two_snapshots_see_their_own_stamps(self):
        db = make_db()
        db.execute("BEGIN TRANSACTION READ ONLY", session="old")
        db.execute("UPDATE t SET v = 11 WHERE id = 1")
        db.execute("BEGIN TRANSACTION READ ONLY", session="new")
        db.execute("UPDATE t SET v = 12 WHERE id = 1")
        assert snapshot_rows(db, "old")[0] == (1, 10)
        assert snapshot_rows(db, "new")[0] == (1, 11)
        assert db.execute("SELECT v FROM t WHERE id = 1").rows == [(12,)]
        db.execute("COMMIT", session="old")
        db.execute("COMMIT", session="new")


class TestReadOnlyEnforcement:
    @pytest.mark.parametrize(
        "sql",
        [
            "INSERT INTO t VALUES (9, 90)",
            "UPDATE t SET v = 0 WHERE id = 1",
            "DELETE FROM t WHERE id = 1",
        ],
    )
    def test_dml_rejected_inside_read_only_txn(self, sql):
        db = make_db()
        db.execute("BEGIN TRANSACTION READ ONLY", session="reader")
        with pytest.raises(ExecutionError, match="READ ONLY"):
            db.execute(sql, session="reader")

    def test_read_only_works_without_mvcc_build(self):
        """On a 2PL-only build the same SQL degrades to a locking
        read-only transaction: reads work, DML is still rejected."""
        db = Database()
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        db.execute("INSERT INTO t VALUES (1, 10)")
        db.execute("BEGIN TRANSACTION READ ONLY", session="reader")
        assert snapshot_rows(db) == [(1, 10)]
        with pytest.raises(ExecutionError, match="READ ONLY"):
            db.execute("DELETE FROM t", session="reader")
        db.execute("ROLLBACK", session="reader")


class TestGarbageCollection:
    def test_chains_drain_once_snapshots_close(self):
        db = make_db()
        db.execute("BEGIN TRANSACTION READ ONLY", session="reader")
        db.execute("UPDATE t SET v = 99 WHERE id = 1")
        db.execute("DELETE FROM t WHERE id = 2")
        assert db.mvcc.chain_count() > 0
        db.execute("COMMIT", session="reader")
        assert db.mvcc.chain_count() == 0
        assert db.mvcc.dump()["tables"] == {}

    def test_commit_without_open_snapshots_leaves_no_chains(self):
        db = make_db()
        db.execute("UPDATE t SET v = 1 WHERE id = 1")
        db.execute("DELETE FROM t WHERE id = 3")
        db.execute("INSERT INTO t VALUES (5, 50)")
        assert db.mvcc.chain_count() == 0

    def test_counters_track_the_lifecycle(self):
        db = make_db()
        base_created = db.statistics["versions_created"]
        db.execute("BEGIN TRANSACTION READ ONLY", session="reader")
        snapshot_rows(db)
        db.execute("UPDATE t SET v = 99 WHERE id = 1")
        db.execute("COMMIT", session="reader")
        assert db.statistics["readonly_txns"] == 1
        assert db.statistics["snapshot_reads"] >= 1
        assert db.statistics["versions_created"] > base_created
        assert db.statistics["versions_gc"] > 0


class TestRowColumnarDifferential:
    """The row executor is the semantics oracle: under a snapshot both
    pipelines must return identical rows (the columnar chunk cache is
    keyed by snapshot stamp, so it may never leak live data in)."""

    QUERIES = [
        ("SELECT id, v FROM t ORDER BY id", []),
        ("SELECT SUM(v) FROM t", []),
        ("SELECT v FROM t WHERE v > ? ORDER BY v", [15]),
        ("SELECT COUNT(*) FROM t WHERE id <> ?", [2]),
    ]

    def test_row_and_columnar_agree_under_snapshot(self, row_operators):
        db = make_db()
        db.execute("BEGIN TRANSACTION READ ONLY", session="reader")
        db.execute("UPDATE t SET v = 99 WHERE id = 1")
        db.execute("DELETE FROM t WHERE id = 2")
        db.execute("INSERT INTO t VALUES (4, 40)")
        for sql, params in self.QUERIES:
            with row_operators():
                row = db.execute(sql, params, session="reader")
            col = db.execute(sql, params, session="reader")
            assert db.last_executor == "columnar", sql
            assert col.rows == row.rows, sql
        # And the snapshot answer differs from the live answer, so the
        # differential above actually exercised the version chains.
        live = db.execute("SELECT id, v FROM t ORDER BY id").rows
        snap = snapshot_rows(db)
        assert live != snap
        db.execute("COMMIT", session="reader")

    def test_columnar_snapshot_cache_is_stamp_keyed(self):
        db = make_db()
        db.execute("BEGIN TRANSACTION READ ONLY", session="old")
        db.execute("UPDATE t SET v = 99 WHERE id = 1")
        db.execute("BEGIN TRANSACTION READ ONLY", session="new")
        old = db.execute("SELECT SUM(v) FROM t", session="old").scalar()
        new = db.execute("SELECT SUM(v) FROM t", session="new").scalar()
        assert db.last_executor == "columnar"
        assert old == 60
        assert new == 149
        db.execute("COMMIT", session="old")
        db.execute("COMMIT", session="new")


OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("write"),
            st.integers(min_value=1, max_value=4),
            st.integers(min_value=0, max_value=50),
        ),
        st.tuples(st.just("delete"), st.integers(min_value=1, max_value=4)),
        st.tuples(st.just("open")),
        st.tuples(st.just("read")),
        st.tuples(st.just("close")),
    ),
    max_size=40,
)


class TestVisibilityProperty:
    @given(OPS)
    @settings(max_examples=60, deadline=None)
    def test_every_snapshot_always_reads_its_begin_state(self, ops):
        """Random writer/snapshot interleavings: at any point, every open
        snapshot must read exactly the committed state that existed when
        it began — the model is a plain dict copied at BEGIN."""
        db = Database(mvcc=True)
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        committed = {}
        snapshots = {}  # session -> expected {id: v}
        sequence = 0
        for op in ops:
            if op[0] == "write":
                __, key, value = op
                if key in committed:
                    db.execute(
                        "UPDATE t SET v = ? WHERE id = ?", [value, key]
                    )
                else:
                    db.execute("INSERT INTO t VALUES (?, ?)", [key, value])
                committed[key] = value
            elif op[0] == "delete":
                __, key = op
                db.execute("DELETE FROM t WHERE id = ?", [key])
                committed.pop(key, None)
            elif op[0] == "open":
                sequence += 1
                session = f"s{sequence}"
                db.execute("BEGIN TRANSACTION READ ONLY", session=session)
                snapshots[session] = dict(committed)
            elif op[0] == "read" and snapshots:
                for session, expected in snapshots.items():
                    rows = db.execute(
                        "SELECT id, v FROM t ORDER BY id", session=session
                    ).rows
                    assert rows == sorted(expected.items())
            elif op[0] == "close" and snapshots:
                session = next(iter(snapshots))
                rows = db.execute(
                    "SELECT id, v FROM t ORDER BY id", session=session
                ).rows
                assert rows == sorted(snapshots[session].items())
                db.execute("COMMIT", session=session)
                del snapshots[session]
        for session, expected in snapshots.items():
            rows = db.execute(
                "SELECT id, v FROM t ORDER BY id", session=session
            ).rows
            assert rows == sorted(expected.items())
            db.execute("COMMIT", session=session)
        # Every snapshot closed: GC must return to the chainless state.
        assert db.mvcc.chain_count() == 0
        assert db.execute("SELECT id, v FROM t ORDER BY id").rows == sorted(
            committed.items()
        )
