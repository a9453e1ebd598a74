"""MVCC snapshot reads: visibility, GC, differential and property tests.

The contract under test (DESIGN §14): a ``BEGIN TRANSACTION READ ONLY``
captures a snapshot at BEGIN and every statement inside it sees exactly
the committed state as of that stamp — regardless of what writers
commit, roll back, insert or delete before or afterwards — without
acquiring a single lock; a version exists only while a snapshot can
need it; and once the last snapshot closes every table is back on the
chainless fast path with every version created also collected.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError, IntegrityError
from repro.sqldb import Database
from repro.sqldb.executor import ExecutionEnv
from repro.sqldb.parser import parse_statement


def make_db():
    db = Database()
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
    db.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
    return db


#: ``id -> (k, v)`` of forty rows with a key each, none of them a key the
#: tests probe: they keep one probe of an index on ``k`` cheaper than a
#: scan of the table, so that index path stays a probe whatever the
#: writers did (on a handful of rows it would be priced out).
FILLER = {row_id: (row_id, 0) for row_id in range(100, 140)}


def snapshot_rows(db, session="reader"):
    return db.execute(
        "SELECT id, v FROM t ORDER BY id", session=session
    ).rows


def assert_quiescent(db):
    """No snapshot open: no chain left, and every version that entered
    one was counted out again."""
    assert db.mvcc.open_snapshots == 0
    assert db.mvcc.chain_count() == 0
    assert db.mvcc.dump()["tables"] == {}
    assert db.statistics["versions_created"] == db.statistics["versions_gc"]


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
        db = Database()
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


class TestGarbageCollection:
    def test_chains_drain_once_snapshots_close(self):
        db = make_db()
        db.execute("BEGIN TRANSACTION READ ONLY", session="reader")
        db.execute("UPDATE t SET v = 99 WHERE id = 1")
        db.execute("DELETE FROM t WHERE id = 2")
        assert db.mvcc.chain_count() > 0
        db.execute("COMMIT", session="reader")
        assert_quiescent(db)

    def test_commit_without_open_snapshots_leaves_no_chains(self):
        db = make_db()
        db.execute("UPDATE t SET v = 1 WHERE id = 1")
        db.execute("DELETE FROM t WHERE id = 3")
        db.execute("INSERT INTO t VALUES (5, 50)")
        assert db.mvcc.chain_count() == 0

    def test_rolled_back_update_is_counted_symmetrically(self):
        db = make_db()
        db.execute("BEGIN TRANSACTION READ ONLY", session="reader")
        db.execute("BEGIN", session="writer")
        db.execute("UPDATE t SET v = 0 WHERE id = 1", session="writer")
        db.execute("ROLLBACK", session="writer")
        # The captured pre-image was one version in, one version out.
        assert db.statistics["versions_created"] == 1
        assert db.statistics["versions_gc"] == 1
        db.execute("COMMIT", session="reader")
        assert_quiescent(db)

    def test_dropped_table_takes_its_versions_with_it(self):
        db = make_db()
        db.execute("BEGIN TRANSACTION READ ONLY", session="reader")
        db.execute("UPDATE t SET v = 0 WHERE id = 1")
        db.execute("DROP TABLE t")
        db.execute("COMMIT", session="reader")
        assert_quiescent(db)

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
        assert_quiescent(db)


class TestVersionsFollowReaders:
    """The capture rule: a pre-image is captured and a version installed
    only while an open snapshot could need them; writers in flight when a
    snapshot opens are captured from the undo entries they already logged."""

    def test_snapshot_opened_mid_transaction_then_writer_commits(self):
        db = make_db()
        db.execute("BEGIN", session="writer")
        db.execute("UPDATE t SET v = 77 WHERE id = 2", session="writer")
        db.execute("UPDATE t SET v = 78 WHERE id = 2", session="writer")
        db.execute("DELETE FROM t WHERE id = 3", session="writer")
        db.execute("INSERT INTO t VALUES (4, 40)", session="writer")
        assert db.mvcc.chain_count() == 0  # nobody to shield them from
        db.execute("BEGIN TRANSACTION READ ONLY", session="reader")
        assert db.mvcc.chain_count() == 3  # slots 2, 3 and the insert marker
        assert snapshot_rows(db) == [(1, 10), (2, 20), (3, 30)]
        db.execute("UPDATE t SET v = 11 WHERE id = 1", session="writer")
        assert snapshot_rows(db) == [(1, 10), (2, 20), (3, 30)]
        db.execute("COMMIT", session="writer")
        # Committed after the snapshot's stamp: still invisible to it, and
        # the dirty intermediate value 77 never became a version.
        assert snapshot_rows(db) == [(1, 10), (2, 20), (3, 30)]
        assert db.mvcc.dump()["tables"]["t"][1] == [
            (0, 2, (2, 20)), (2, None, (2, 78))
        ]
        db.execute("BEGIN TRANSACTION READ ONLY", session="later")
        assert snapshot_rows(db, "later") == [(1, 11), (2, 78), (4, 40)]
        db.execute("COMMIT", session="later")
        db.execute("COMMIT", session="reader")
        assert_quiescent(db)

    def test_snapshot_opened_mid_transaction_then_writer_rolls_back(self):
        db = make_db()
        db.execute("BEGIN", session="writer")
        db.execute("UPDATE t SET v = 77 WHERE id = 2", session="writer")
        db.execute("DELETE FROM t WHERE id = 3", session="writer")
        db.execute("INSERT INTO t VALUES (4, 40)", session="writer")
        db.execute("BEGIN TRANSACTION READ ONLY", session="reader")
        assert snapshot_rows(db) == [(1, 10), (2, 20), (3, 30)]
        db.execute("ROLLBACK", session="writer")
        assert snapshot_rows(db) == [(1, 10), (2, 20), (3, 30)]
        # The heap is the pre-image again: nothing is left to keep.
        assert db.mvcc.chain_count() == 0
        assert db.mvcc.clock == 1  # make_db's INSERT; the rollback is no writer
        db.execute("COMMIT", session="reader")
        assert_quiescent(db)

    def test_writer_continues_after_the_last_snapshot_closed(self):
        db = make_db()
        db.execute("BEGIN TRANSACTION READ ONLY", session="reader")
        db.execute("BEGIN", session="writer")
        db.execute("UPDATE t SET v = 11 WHERE id = 1", session="writer")
        assert db.mvcc.chain_count() == 1
        db.execute("COMMIT", session="reader")
        # Nobody is left to read the chain, pending or not.
        assert_quiescent(db)
        db.execute("UPDATE t SET v = 21 WHERE id = 2", session="writer")
        assert db.mvcc.chain_count() == 0
        # A snapshot opening now finds both dirty slots in the undo log.
        db.execute("BEGIN TRANSACTION READ ONLY", session="reader")
        assert snapshot_rows(db) == [(1, 10), (2, 20), (3, 30)]
        db.execute("COMMIT", session="reader")
        db.execute("UPDATE t SET v = 31 WHERE id = 3", session="writer")
        db.execute("COMMIT", session="writer")
        assert_quiescent(db)
        assert db.execute("SELECT id, v FROM t ORDER BY id").rows == [
            (1, 11), (2, 21), (3, 31)
        ]

    def test_no_snapshot_ever_means_no_versions(self):
        """Autocommit, explicit commit, rollback, a failing multi-row
        INSERT and a statement that changes nothing: the clock counts the
        committing writers and nothing else moves."""
        db = make_db()  # one committing writer (the INSERT)
        db.execute("UPDATE t SET v = 1 WHERE id = 1")  # 2
        db.execute("UPDATE t SET v = 1 WHERE id = 99")  # matched nothing
        with db.transaction():  # 3
            db.execute("DELETE FROM t WHERE id = 3")
            db.execute("INSERT INTO t VALUES (5, 50)")
        with db.transaction():
            db.execute("SELECT * FROM t")  # wrote nothing
        db.begin()
        db.execute("DELETE FROM t")
        db.rollback()
        with pytest.raises(IntegrityError, match="unique"):  # 4: (6, 60) stays
            db.execute("INSERT INTO t VALUES (6, 60), (1, 0)")
        assert db.mvcc.clock == 4
        assert db.statistics["versions_created"] == 0
        assert db.statistics["versions_gc"] == 0
        assert_quiescent(db)

    def test_autocommit_write_under_an_open_snapshot_is_versioned(self):
        db = make_db()
        db.execute("BEGIN TRANSACTION READ ONLY", session="reader")
        with pytest.raises(IntegrityError, match="unique"):
            db.execute("INSERT INTO t VALUES (6, 60), (1, 0)")
        # The row the failed statement kept is committed — after the stamp.
        assert snapshot_rows(db) == [(1, 10), (2, 20), (3, 30)]
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 4
        db.execute("COMMIT", session="reader")
        assert_quiescent(db)

    def test_probe_order_is_bucket_order_then_chained_slots(self):
        """One rule for live and snapshot probes: the bucket's slots as
        the live probe yields them, then the slots whose visible version
        matches the key although their current value left it."""
        db = Database()
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER)")
        db.execute("CREATE INDEX t_k ON t (k)")
        db.execute("INSERT INTO t VALUES (1, 0), (2, 7), (3, 7), (4, 7)")
        # Keys of their own, so that one probe stays cheaper than the scan.
        db.execute(
            "INSERT INTO t VALUES "
            + ", ".join(f"({row_id}, {k})" for row_id, (k, __) in FILLER.items())
        )
        db.execute("UPDATE t SET k = 7 WHERE id = 1")  # bucket 7: 2, 3, 4, 1
        sql = "SELECT id FROM t WHERE k = ?"
        assert db.execute(sql, [7]).rows == [(2,), (3,), (4,), (1,)]
        assert db.last_counters["index_probes"] == 1
        db.execute("BEGIN TRANSACTION READ ONLY", session="reader")
        assert db.execute(sql, [7], session="reader").rows == [
            (2,), (3,), (4,), (1,)
        ]
        db.execute("UPDATE t SET k = 0 WHERE id = 3")  # leaves the bucket
        db.execute("UPDATE t SET k = 0 WHERE id = 2")
        db.execute("INSERT INTO t VALUES (5, 7)")  # joins it, after the stamp
        assert db.execute(sql, [7]).rows == [(4,), (1,), (5,)]
        assert db.execute(sql, [7], session="reader").rows == [
            (4,), (1,), (2,), (3,)
        ]
        assert db.last_counters["index_probes"] == 1
        db.execute("COMMIT", session="reader")
        assert_quiescent(db)


class TestRowColumnarDifferential:
    """Under a snapshot a plan returns what the table held at the
    snapshot's BEGIN, whether its rows are pulled in batches or a row at a
    time (the columnar chunk cache is keyed by snapshot stamp, so it may
    never leak live data in)."""

    QUERIES = [
        ("SELECT id, v FROM t ORDER BY id", []),
        ("SELECT SUM(v) FROM t", []),
        ("SELECT v FROM t WHERE v > ? ORDER BY v", [15]),
        ("SELECT COUNT(*) FROM t WHERE id <> ?", [2]),
    ]

    def test_row_and_columnar_agree_under_snapshot(self):
        db = make_db()
        begin_state = [db.execute(sql, params).rows for sql, params in self.QUERIES]
        db.execute("BEGIN TRANSACTION READ ONLY", session="reader")
        db.execute("UPDATE t SET v = 99 WHERE id = 1")
        db.execute("DELETE FROM t WHERE id = 2")
        db.execute("INSERT INTO t VALUES (4, 40)")
        snapshot = db._transactions["reader"].snapshot
        for (sql, params), expected in zip(self.QUERIES, begin_state):
            assert db.execute(sql, params, session="reader").rows == expected, sql
            plan = db.plan_statement(parse_statement(sql))
            env = ExecutionEnv(params=params, functions=db.functions)
            env.snapshot = snapshot
            assert [row for batch in plan.root.batches(env, 1) for row in batch] == expected
        # And the snapshot answer differs from the live answer, so the
        # comparison above actually exercised the version chains.
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
        assert old == 60
        assert new == 149
        db.execute("COMMIT", session="old")
        db.execute("COMMIT", session="new")

    def test_snapshot_chunks_never_evict_the_live_chunks(self):
        from repro.sqldb.columnar import table_batches

        db = make_db()
        storage = db.catalog.lookup("t").storage
        db.execute("BEGIN TRANSACTION READ ONLY", session="reader")
        snapshot = db._transactions["reader"].snapshot
        live = table_batches(storage)
        # No chain to resolve: the snapshot read is a live read.
        assert table_batches(storage, snapshot=snapshot) is live
        db.execute("UPDATE t SET v = 99 WHERE id = 1")
        live = table_batches(storage)
        old = table_batches(storage, snapshot=snapshot)
        assert [row for batch in old for row in batch][0] == (1, 10)
        assert [row for batch in live for row in batch][0] == (1, 99)
        assert table_batches(storage) is live
        assert table_batches(storage, snapshot=snapshot) is old
        db.execute("COMMIT", session="reader")


#: Ids the autocommit writer and the two transactional writers own: kept
#: disjoint, as strict 2PL would keep the rows two open writers touch.
AUTOCOMMIT_IDS = st.integers(min_value=1, max_value=4)
WRITERS = st.sampled_from(["w1", "w2"])
WRITER_BASE = {"w1": 10, "w2": 20}
OFFSETS = st.integers(min_value=0, max_value=3)
KEYS = st.integers(min_value=0, max_value=2)
VALUES = st.integers(min_value=0, max_value=50)

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("write"), AUTOCOMMIT_IDS, KEYS, VALUES),
        st.tuples(st.just("delete"), AUTOCOMMIT_IDS),
        st.tuples(st.just("begin"), WRITERS),
        st.tuples(st.just("txn-write"), WRITERS, OFFSETS, KEYS, VALUES),
        st.tuples(st.just("txn-delete"), WRITERS, OFFSETS),
        st.tuples(st.just("commit"), WRITERS),
        st.tuples(st.just("rollback"), WRITERS),
        st.tuples(st.just("open")),
        st.tuples(st.just("read")),
        st.tuples(st.just("close")),
    ),
    max_size=40,
)


#: The two index-nested-loop joins: a scan of ``t`` driving probes of
#: ``g``, and a scan of ``g`` driving probes of ``t``.
LABELLED = "SELECT t.id, g.w FROM t JOIN g ON g.k = t.k"
PROBED = "SELECT g.k, t.id, t.v FROM g JOIN t ON t.k = g.k"


def assert_reads_state(db, session, expected):
    """Every access path must show *session* exactly *expected*
    (``{id: (k, v)}``): scan and aggregate, index probe, scan driving an
    index-nested-loop join, and the join's probe side."""
    rows = sorted((i, k, v) for i, (k, v) in expected.items())

    def read(sql, params=()):
        return db.execute(sql, params, session=session).rows

    assert read("SELECT id, k, v FROM t ORDER BY id") == rows
    total = sum(v for __, __k, v in rows) if rows else None
    assert read("SELECT COUNT(*), SUM(v) FROM t") == [(len(rows), total)]
    for key in range(3):
        matching = [(i, v) for i, k, v in rows if k == key]
        assert sorted(read("SELECT id, v FROM t WHERE k = ?", [key])) == matching
        assert db.last_counters["index_probes"] == 1
    labelled = [(i, 10 * k) for i, k, __ in rows if k < 3]
    assert sorted(read(LABELLED)) == labelled
    probed = sorted((k, i, v) for i, k, v in rows if k < 3)
    assert sorted(read(PROBED)) == probed


#: A writer in flight around a snapshot's whole life, then finishing.
def _mid_transaction(finish):
    return [
        ("write", 1, 0, 5),
        ("begin", "w1"),
        ("txn-write", "w1", 0, 1, 7),
        ("open",),
        ("read",),
        ("txn-write", "w1", 0, 2, 8),
        ("txn-delete", "w1", 1),
        ("read",),
        (finish, "w1"),
        ("read",),
        ("open",),
        ("read",),
    ]


class TestVisibilityProperty:
    @given(OPS)
    @example(_mid_transaction("commit"))
    @example(_mid_transaction("rollback"))
    @example(
        # ... and a writer that outlives every snapshot, twice.
        [
            ("open",),
            ("begin", "w2"),
            ("txn-write", "w2", 0, 0, 1),
            ("close",),
            ("txn-write", "w2", 1, 1, 2),
            ("open",),
            ("read",),
            ("close",),
            ("txn-write", "w2", 0, 2, 3),
        ]
    )
    @settings(max_examples=60, deadline=None)
    def test_every_snapshot_always_reads_its_begin_state(self, ops):
        """Random interleavings of autocommit writes, two explicit write
        transactions (committing or rolling back) and snapshots opening
        and closing anywhere in between: at any point, every open
        snapshot must read exactly the committed state that existed when
        it began — the model is a plain dict copied at BEGIN."""
        db = Database()
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, v INTEGER)")
        db.execute("CREATE INDEX t_k ON t (k)")
        db.execute("CREATE TABLE g (k INTEGER PRIMARY KEY, w INTEGER)")
        db.execute("INSERT INTO g VALUES (0, 0), (1, 10), (2, 20)")
        db.execute(
            "INSERT INTO t VALUES "
            + ", ".join(f"({row_id}, {k}, {v})" for row_id, (k, v) in FILLER.items())
        )
        for join in (LABELLED, PROBED):
            plan = "\n".join(line for (line,) in db.execute(f"EXPLAIN {join}").rows)
            assert "IndexNestedLoopJoin" in plan
        committed = dict(FILLER)  # id -> (k, v)
        pending = {}  # open writer -> {id: (k, v) | None} not yet committed
        snapshots = {}  # session -> the committed state at its BEGIN
        sequence = 0
        writers_committed = 2  # the INSERTs above; DDL is not a writer

        def write(row_id, row, state, session=None):
            if row is None:
                db.execute("DELETE FROM t WHERE id = ?", [row_id], session=session)
            elif state.get(row_id) is not None:
                db.execute(
                    "UPDATE t SET k = ?, v = ? WHERE id = ?",
                    [*row, row_id],
                    session=session,
                )
            else:
                db.execute(
                    "INSERT INTO t VALUES (?, ?, ?)", [row_id, *row], session=session
                )
            return state.get(row_id) is not None or row is not None

        def finish(writer, commit):
            nonlocal writers_committed
            changes = pending.pop(writer)
            db.execute("COMMIT" if commit else "ROLLBACK", session=writer)
            if commit:
                writers_committed += bool(changes)
                for row_id, row in changes.items():
                    committed.pop(row_id, None)
                    if row is not None:
                        committed[row_id] = row

        for op in ops:
            kind = op[0]
            if kind in ("write", "delete"):
                row = op[2:] if kind == "write" else None
                writers_committed += write(op[1], row, committed)
                committed.pop(op[1], None)
                if row is not None:
                    committed[op[1]] = row
            elif kind == "begin" and op[1] not in pending:
                db.execute("BEGIN", session=op[1])
                pending[op[1]] = {}
            elif kind in ("txn-write", "txn-delete") and op[1] in pending:
                writer, row_id = op[1], WRITER_BASE[op[1]] + op[2]
                row = op[3:] if kind == "txn-write" else None
                changes = pending[writer]
                if write(row_id, row, {**committed, **changes}, session=writer):
                    changes[row_id] = row
            elif kind in ("commit", "rollback") and op[1] in pending:
                finish(op[1], commit=kind == "commit")
            elif kind == "open":
                sequence += 1
                session = f"s{sequence}"
                db.execute("BEGIN TRANSACTION READ ONLY", session=session)
                snapshots[session] = dict(committed)
            elif kind == "read":
                for session, expected in snapshots.items():
                    assert_reads_state(db, session, expected)
            elif kind == "close" and snapshots:
                session = next(iter(snapshots))
                assert_reads_state(db, session, snapshots.pop(session))
                db.execute("COMMIT", session=session)
        for session, expected in snapshots.items():
            assert_reads_state(db, session, expected)
            db.execute("COMMIT", session=session)
        # Every snapshot closed — some writers may still be in flight, and
        # finish with nobody watching.
        assert_quiescent(db)
        for writer in sorted(pending):
            finish(writer, commit=writer == "w1")
        assert_quiescent(db)
        assert db.mvcc.clock == writers_committed
        assert_reads_state(db, None, committed)
