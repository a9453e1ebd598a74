"""End-to-end recovery: the replayed database equals the lost one."""

import pytest

from repro.errors import DiskCrashed, DurabilityError
from repro.recovery import (
    DiskFaultProfile,
    Durability,
    SimDisk,
    encode_record,
    scan_wal,
)


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

    def test_checkpoint_on_a_dead_disk_drops_nothing(self):
        durability, db = make_durability()
        durability.disk.arm(DiskFaultProfile(name="x", crash_at_append=1))
        with pytest.raises(DiskCrashed):
            db.execute("INSERT INTO t VALUES (3, 30)")
        before = durability.disk.read_all()
        durability.checkpoint()  # like every append after the crash: a no-op
        assert durability.disk.read_all() == before


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
        assert db.last_executor == "columnar"
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
        assert recovered.last_executor == "columnar"
