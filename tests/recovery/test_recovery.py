"""End-to-end recovery: the replayed database equals the lost one."""

import pytest

from repro.errors import DiskCrashed, DurabilityError, WalCorruptError
from repro.recovery import (
    DiskFaultProfile,
    Durability,
    SimDisk,
    encode_record,
    scan_wal,
)
from repro.recovery.wal import checkpoint_record, embedded_records
from repro.sqldb import Database
from repro.sqldb.render import render_statement


def make_durability():
    durability = Durability(SimDisk())
    db = durability.open()
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
    db.execute("INSERT INTO t VALUES (1, 10), (2, 20)")
    return durability, db


class TestReplay:
    def test_committed_transactions_survive(self):
        durability, db = make_durability()
        with db.transaction():
            db.execute("UPDATE t SET v = 11 WHERE id = 1")
            db.execute("INSERT INTO t VALUES (3, 30)")
        recovered = durability.recover()
        assert recovered.execute(
            "SELECT id, v FROM t ORDER BY id"
        ).rows == [(1, 11), (2, 20), (3, 30)]
        assert durability.last_report.txns_discarded == 0

    def test_in_flight_transaction_is_discarded(self):
        durability, db = make_durability()
        db.begin()
        db.execute("UPDATE t SET v = 99 WHERE id = 1")
        db.execute("INSERT INTO t VALUES (3, 30)")
        # No commit: the crash eats the transaction.
        recovered = durability.recover()
        assert recovered.execute(
            "SELECT id, v FROM t ORDER BY id"
        ).rows == [(1, 10), (2, 20)]
        report = durability.last_report
        assert report.txns_discarded == 1
        assert report.fenced

    def test_rolled_back_transaction_stays_rolled_back(self):
        durability, db = make_durability()
        db.begin()
        db.execute("UPDATE t SET v = 99 WHERE id = 1")
        db.rollback()
        recovered = durability.recover()
        assert recovered.execute(
            "SELECT v FROM t WHERE id = 1"
        ).scalar() == 10
        assert durability.last_report.txns_discarded == 0

    def test_delete_and_reinsert_replay_in_commit_order(self):
        durability, db = make_durability()
        with db.transaction():
            db.execute("DELETE FROM t WHERE id = 1")
        with db.transaction():
            db.execute("INSERT INTO t VALUES (1, 111)")
        recovered = durability.recover()
        assert recovered.execute(
            "SELECT id, v FROM t ORDER BY id"
        ).rows == [(1, 111), (2, 20)]

    def test_ddl_and_views_replay(self):
        durability, db = make_durability()
        db.execute("CREATE VIEW big AS SELECT id FROM t WHERE v > 15")
        db.execute("CREATE INDEX t_v ON t (v)")
        recovered = durability.recover()
        assert recovered.execute("SELECT id FROM big").rows == [(2,)]
        assert durability.last_report.ddl_replayed >= 3

    def test_autocommit_statement_error_keeps_log_consistent(self):
        durability, db = make_durability()
        # Multi-row insert that fails midway: the engine applies the
        # leading rows (autocommit, no undo), so the log must agree.
        with pytest.raises(Exception):
            db.execute("INSERT INTO t VALUES (4, 40), (1, 99)")
        in_memory = db.execute("SELECT id, v FROM t ORDER BY id").rows
        recovered = durability.recover()
        assert recovered.execute(
            "SELECT id, v FROM t ORDER BY id"
        ).rows == in_memory

    def test_row_id_slots_survive_aborted_inserts(self):
        durability, db = make_durability()
        db.begin()
        db.execute("INSERT INTO t VALUES (3, 30)")  # consumes a slot
        db.rollback()
        db.execute("INSERT INTO t VALUES (4, 40)")
        with db.transaction():
            db.execute("UPDATE t SET v = 44 WHERE id = 4")
        recovered = durability.recover()
        assert recovered.execute(
            "SELECT id, v FROM t ORDER BY id"
        ).rows == [(1, 10), (2, 20), (4, 44)]

    def test_recovery_is_idempotent(self):
        durability, db = make_durability()
        with db.transaction():
            db.execute("UPDATE t SET v = 11 WHERE id = 1")
        first = durability.recover().execute(
            "SELECT id, v FROM t ORDER BY id"
        ).rows
        second = durability.recover().execute(
            "SELECT id, v FROM t ORDER BY id"
        ).rows
        assert first == second


class TestCheckpoint:
    def test_checkpoint_bounds_replay(self):
        durability, db = make_durability()
        for i in range(3, 10):
            db.execute("INSERT INTO t VALUES (?, ?)", [i, i * 10])
        durability.checkpoint()
        with db.transaction():
            db.execute("UPDATE t SET v = 0 WHERE id = 9")
        recovered = durability.recover()
        report = durability.last_report
        assert report.checkpoint_used
        # Only the post-checkpoint transaction replays as records.
        assert report.txns_committed == 1
        assert recovered.execute(
            "SELECT v FROM t WHERE id = 9"
        ).scalar() == 0
        assert recovered.execute(
            "SELECT COUNT(*) FROM t"
        ).scalar() == 9

    def test_checkpoint_requires_quiescence(self):
        durability, db = make_durability()
        db.begin()
        db.execute("UPDATE t SET v = 0 WHERE id = 1")
        with pytest.raises(DurabilityError):
            durability.checkpoint()
        db.rollback()
        durability.checkpoint()

    def test_checkpoint_restores_views_and_indexes(self):
        durability, db = make_durability()
        db.execute("CREATE VIEW big AS SELECT id FROM t WHERE v > 15")
        db.execute("CREATE INDEX t_v ON t (v)")
        durability.checkpoint()
        recovered = durability.recover()
        assert durability.last_report.checkpoint_used
        assert recovered.execute("SELECT id FROM big").rows == [(2,)]
        recovered.execute("INSERT INTO t VALUES (3, 16)")
        assert recovered.execute(
            "SELECT id FROM big ORDER BY id"
        ).rows == [(2,), (3,)]

    def test_successful_checkpoint_leaves_only_its_own_record(self):
        durability, db = make_durability()
        for i in range(3, 40):
            db.execute("INSERT INTO t VALUES (?, ?)", [i, i * 10])
        before = durability.disk.size
        durability.checkpoint()
        (record,) = scan_wal(durability.disk.read_all()).records
        assert record.kind == "K"
        assert durability.disk.size == len(encode_record(record)) < before
        db.execute("UPDATE t SET v = 0 WHERE id = 39")
        recovered = durability.recover()
        report = durability.last_report
        assert report.checkpoint_used
        assert (report.records_scanned, report.replayed_records) == (4, 1)
        assert recovered.execute("SELECT COUNT(*), MIN(v) FROM t").rows == [(39, 0)]

    @pytest.mark.parametrize("failure", ["clean", "torn", "corrupt"])
    def test_crash_during_the_checkpoint_append_keeps_the_old_log(self, failure):
        durability, db = make_durability()
        db.execute("UPDATE t SET v = 11 WHERE id = 1")
        before = durability.disk.read_all()
        durability.disk.arm(
            DiskFaultProfile(
                name="x",
                crash_at_append=1,
                torn=failure == "torn",
                corrupt=failure == "corrupt",
            ),
            seed=3,
        )
        with pytest.raises(DiskCrashed):
            durability.checkpoint()
        assert durability.disk.read_all()[: len(before)] == before
        recovered = durability.recover()
        report = durability.last_report
        assert not report.checkpoint_used
        assert report.tail_status == ("clean" if failure == "clean" else failure)
        assert recovered.execute("SELECT id, v FROM t ORDER BY id").rows == [
            (1, 11), (2, 20),
        ]
        assert durability.disk.read_all() == before  # the debris is cut off

    def test_recovered_database_equals_the_checkpointed_one(self):
        durability, db = make_durability()
        db.execute("CREATE TABLE u (k VARCHAR(8) NOT NULL, n DOUBLE, b BOOLEAN)")
        db.execute("CREATE UNIQUE INDEX u_k ON u (k)")
        db.execute("CREATE INDEX t_v ON t (v)")
        db.execute("INSERT INTO u VALUES ('x', 1.5, TRUE), ('y', NULL, NULL)")
        db.execute("INSERT INTO u VALUES ('z', -0.0, FALSE)")
        db.execute("DELETE FROM u WHERE k = 'z'")  # a dead trailing slot
        db.execute("DELETE FROM t WHERE id = 1")  # a dead leading slot
        db.execute("CREATE VIEW big AS SELECT id FROM t WHERE v > 15")
        with db.transaction():
            db.execute("UPDATE t SET v = 21 WHERE id = 2")
        durability.wal.hwm.update({7: 3, 2: 9})

        def image(database, durability):
            tables = {}
            for name in database.table_names():
                storage = database.catalog.lookup(name).storage
                tables[name] = (
                    storage.schema,
                    list(storage._rows),
                    [(i.name, i.column_positions, i.unique)
                     for i in storage._indexes.values()],
                )
            views = {
                key: render_statement(view)
                for key, view in database.views.items()
            }
            return tables, views, dict(durability.wal.hwm), database.mvcc.dump()

        before = image(db, durability)
        durability.checkpoint()
        recovered = durability.recover()
        assert durability.last_report.checkpoint_used
        assert image(recovered, durability) == before
        assert durability.last_report.replayed_records == 0

    def test_views_are_restored_after_the_views_they_read(self):
        durability, db = make_durability()
        db.execute("CREATE VIEW zz AS SELECT id, v FROM t")
        db.execute("CREATE VIEW aa AS SELECT id FROM zz WHERE v > 15")
        durability.checkpoint()
        recovered = durability.recover()
        assert recovered.execute("SELECT id FROM aa").rows == [(2,)]
        assert durability.recover().view_names() == ["aa", "zz"]

    def test_a_recreated_view_is_restored_before_its_older_reader(self):
        durability, db = make_durability()
        db.execute("CREATE VIEW b AS SELECT id, v FROM t")
        db.execute("CREATE VIEW a AS SELECT id FROM b WHERE v > 15")
        db.execute("DROP VIEW b")
        db.execute("CREATE VIEW b AS SELECT id, v FROM t WHERE id > 1")
        assert list(db.views) == ["a", "b"]  # creation order misleads
        durability.checkpoint()
        recovered = durability.recover()
        assert recovered.execute("SELECT id FROM a").rows == [(2,)]

    def test_a_view_over_a_dropped_table_refuses_the_checkpoint(self):
        durability, db = make_durability()
        db.execute("CREATE TABLE gone (id INTEGER)")
        db.execute("CREATE VIEW v AS SELECT id FROM gone")
        db.execute("DROP TABLE gone")
        before = durability.disk.read_all()
        with pytest.raises(DurabilityError, match="no longer exists"):
            durability.checkpoint()
        assert durability.disk.read_all() == before
        recovered = durability.recover()  # the log still replays
        assert recovered.view_names() == ["v"]

    def test_an_oversized_checkpoint_is_refused_and_the_log_kept(
        self, monkeypatch
    ):
        from repro.recovery import wal

        durability = Durability(SimDisk())
        db = durability.open()
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, pad VARCHAR(600))")
        db.executemany(
            "INSERT INTO t VALUES (?, ?)", [(i, "x" * 500) for i in range(200)]
        )
        before = durability.disk.read_all()
        monkeypatch.setattr(wal, "MAX_PAYLOAD", 50_000)
        with pytest.raises(DurabilityError, match="record limit"):
            durability.checkpoint()
        assert durability.disk.read_all() == before
        assert durability.wal.statistics["checkpoints"] == 0
        recovered = durability.recover()
        report = durability.last_report
        assert (report.tail_status, report.truncated_bytes) == ("clean", 0)
        assert not report.checkpoint_used
        assert recovered.table_rowcount("t") == 200

    def test_checkpoint_on_a_dead_disk_drops_nothing(self):
        durability, db = make_durability()
        durability.disk.arm(DiskFaultProfile(name="x", crash_at_append=1))
        with pytest.raises(DiskCrashed):
            db.execute("INSERT INTO t VALUES (3, 30)")
        before = durability.disk.read_all()
        durability.checkpoint()  # like every append after the crash: a no-op
        assert durability.disk.read_all() == before


def restore_row_at_a_time(checkpoint):
    """*checkpoint* restored one ``I`` record at a time: pad the heap to
    the slot, add the row to every index, place it — the yardstick the
    bulk load must equal."""
    database = Database()
    for record in embedded_records(checkpoint):
        if record.kind == "Q":
            database.execute(record.sql)
            continue
        storage = database.catalog.lookup(record.table).storage
        storage.pad_slots(record.row_id + 1)
        for index in storage._indexes.values():
            index.add(record.row_id, record.row)
        storage._rows[record.row_id] = record.row
        storage._live_count += 1
        storage.version += 1
    for table, count in checkpoint.slots:
        database.catalog.lookup(table).storage.pad_slots(count)
    return database


def heap_image(database):
    image = {}
    for name in database.table_names():
        storage = database.catalog.lookup(name).storage
        image[name] = (
            list(storage._rows),
            {key: list(i._buckets.items()) for key, i in storage._indexes.items()},
            storage._live_count,
            storage.version,
        )
    return image


class TestBulkRestore:
    """A checkpoint's rows are loaded per table and each index is built
    once, leaving exactly what one row at a time leaves."""

    def test_restore_equals_a_row_at_a_time_restore(self):
        durability = Durability(SimDisk())
        db = durability.open()
        db.execute(
            "CREATE TABLE p (id INTEGER PRIMARY KEY, k INTEGER, "
            "a VARCHAR(4), b INTEGER)"
        )
        db.execute("CREATE INDEX p_k ON p (k)")
        db.execute("CREATE INDEX p_ab ON p (a, b)")
        db.execute("CREATE UNIQUE INDEX p_b ON p (b)")
        db.execute("CREATE TABLE q (id INTEGER PRIMARY KEY, v INTEGER)")
        db.executemany(
            "INSERT INTO p VALUES (?, ?, ?, ?)",
            [
                (i, i % 3, None if i % 4 == 0 else "x", None if i % 5 == 0 else i)
                for i in range(20)
            ],
        )
        db.executemany("INSERT INTO q VALUES (?, ?)", [(i, i) for i in range(5)])
        db.execute("DELETE FROM p WHERE id IN (3, 4, 7)")  # dead slots mid-heap
        db.execute("DELETE FROM p WHERE id >= 17")  # and at the tail
        db.execute("DELETE FROM q WHERE id = 4")
        db.execute("UPDATE p SET k = 0 WHERE id = 1")  # bucket (0,) out of slot order
        before = {
            name: (list(storage._rows), storage._live_count)
            for name, storage in (
                (n, db.catalog.lookup(n).storage) for n in db.table_names()
            )
        }
        durability.checkpoint()
        (record,) = scan_wal(durability.disk.read_all()).records
        restored = durability.recover()  # a restart: only the disk survives
        reference = restore_row_at_a_time(record.checkpoint)
        assert heap_image(restored) == heap_image(reference)
        for name, (heap, live) in before.items():
            storage = restored.catalog.lookup(name).storage
            assert (storage._rows, storage._live_count) == (heap, live)
            expected = reference.catalog.lookup(name).storage
            for key, index in storage._indexes.items():
                twin = expected._indexes[key]
                for probe in list(twin._buckets) + [(None,) * len(index.column_positions)]:
                    assert storage.probe(index, probe) == expected.probe(twin, probe)

    @pytest.mark.parametrize(
        "rows, damage",
        [
            ([(0, (1, 10)), (0, (2, 20))], "occupied slot 0"),
            ([(0, (1, 10)), (1, (1, 20))], "unique index 't_pk'"),
        ],
        ids=["one-slot", "one-key"],
    )
    def test_two_rows_for_one_slot_or_one_key_are_a_damaged_log(self, rows, damage):
        ddl = ["CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)"]
        disk = SimDisk()
        disk.append(encode_record(checkpoint_record({}, 0, ddl, [("t", 2, rows)])))
        with pytest.raises(WalCorruptError, match=f"rows of 't'.*{damage}"):
            Durability(disk).recover()


class TestCrashTails:
    def crash_mid_commit(self, failure):
        durability, db = make_durability()
        profile = DiskFaultProfile(
            name="x",
            crash_at_append=3,  # BEGIN, UPDATE, then die on COMMIT
            torn=failure == "torn",
            corrupt=failure == "corrupt",
        )
        durability.disk.arm(profile, seed=5)
        db.begin()
        db.execute("UPDATE t SET v = 99 WHERE id = 1")
        with pytest.raises(DiskCrashed):
            db.commit()
        return durability

    @pytest.mark.parametrize("failure", ["clean", "torn", "corrupt"])
    def test_lost_commit_record_discards_the_transaction(self, failure):
        durability = self.crash_mid_commit(failure)
        recovered = durability.recover()
        report = durability.last_report
        assert recovered.execute(
            "SELECT v FROM t WHERE id = 1"
        ).scalar() == 10
        assert report.txns_discarded == 1
        if failure == "clean":
            assert report.tail_status == "clean"
        else:
            assert report.tail_status in ("torn", "corrupt")
            assert report.truncated_bytes > 0

    def test_tail_repair_truncates_the_disk(self):
        durability = self.crash_mid_commit("torn")
        before = durability.disk.size
        durability.recover()
        after = durability.disk.size
        # The torn commit prefix is gone; the fence was appended.
        assert after < before + 200
        scan = scan_wal(durability.disk.read_all())
        assert scan.tail_status == "clean"

    def test_post_recovery_commits_are_durable_again(self):
        durability = self.crash_mid_commit("torn")
        recovered = durability.recover()
        with recovered.transaction():
            recovered.execute("UPDATE t SET v = 77 WHERE id = 2")
        again = durability.recover()
        assert again.execute("SELECT v FROM t WHERE id = 2").scalar() == 77


class TestColumnarCacheAcrossRecovery:
    def test_no_pre_crash_chunks_served_after_recovery(self):
        durability = Durability(SimDisk())
        db = durability.open()
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        db.executemany(
            "INSERT INTO t VALUES (?, ?)", [(i, i) for i in range(50)]
        )
        # Populate the chunk cache with a columnar scan, then mutate
        # inside a committed transaction.
        assert db.execute("SELECT COUNT(*) FROM t WHERE v >= 0").scalar() == 50
        old_storage = db.catalog.lookup("t").storage
        assert getattr(old_storage, "_columnar_cache", None) is not None
        with db.transaction():
            db.execute("UPDATE t SET v = -1 WHERE id < 10")
        recovered = durability.recover()
        # Recovery builds fresh storages: the pre-crash cache object is
        # unreachable from the new database, so no stale batch can be
        # served.
        new_storage = recovered.catalog.lookup("t").storage
        assert new_storage is not old_storage
        assert getattr(new_storage, "_columnar_cache", None) is None
        result = recovered.execute("SELECT COUNT(*) FROM t WHERE v >= 0")
        assert result.scalar() == 40
