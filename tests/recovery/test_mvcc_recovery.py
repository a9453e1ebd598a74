"""Recovery and snapshots: version state rebuilds deterministically.

The commit clock is a pure function of the committed write history, so
replaying the log (or restoring a checkpoint and replaying the records
behind it) must reproduce ``MvccManager.dump()`` byte for byte — and a
snapshot opened on the recovered database must see exactly the committed
pre-crash state.
"""

from repro.recovery import Durability, SimDisk


def make_durability():
    durability = Durability(SimDisk())
    db = durability.open()
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
    db.execute("INSERT INTO t VALUES (1, 10), (2, 20)")
    return durability, db


class TestMvccRecovery:
    def test_clock_and_chains_rebuild_identically(self):
        durability, db = make_durability()
        with db.transaction():
            db.execute("UPDATE t SET v = 11 WHERE id = 1")
            db.execute("INSERT INTO t VALUES (3, 30)")
        db.execute("DELETE FROM t WHERE id = 2")
        before = db.mvcc.dump()
        recovered = durability.recover()
        assert recovered.mvcc.dump() == before
        # Recovery is a fixpoint: recovering again changes nothing.
        again = durability.recover()
        assert again.mvcc.dump() == before

    def test_in_flight_writes_leave_no_version_state(self):
        durability, db = make_durability()
        db.begin()
        db.execute("UPDATE t SET v = 99 WHERE id = 1")
        # No commit: the crash eats the transaction — and its versions.
        recovered = durability.recover()
        assert recovered.mvcc.chain_count() == 0
        recovered.execute("BEGIN TRANSACTION READ ONLY", session="r")
        rows = recovered.execute(
            "SELECT id, v FROM t ORDER BY id", session="r"
        ).rows
        assert rows == [(1, 10), (2, 20)]
        recovered.execute("COMMIT", session="r")

    def test_checkpoint_preserves_the_commit_clock(self):
        durability, db = make_durability()
        with db.transaction():
            db.execute("UPDATE t SET v = 11 WHERE id = 1")
        durability.checkpoint()
        with db.transaction():
            db.execute("UPDATE t SET v = 12 WHERE id = 1")
        before = db.mvcc.dump()
        recovered = durability.recover()
        assert durability.last_report.checkpoint_used
        assert recovered.mvcc.dump() == before
        assert recovered.mvcc.clock == db.mvcc.clock

    def test_snapshot_on_recovered_database_reads_committed_state(self):
        durability, db = make_durability()
        with db.transaction():
            db.execute("UPDATE t SET v = 42 WHERE id = 2")
        recovered = durability.recover()
        recovered.execute("BEGIN TRANSACTION READ ONLY", session="r")
        recovered.execute("UPDATE t SET v = 43 WHERE id = 2")
        rows = recovered.execute(
            "SELECT v FROM t WHERE id = 2", session="r"
        ).rows
        assert rows == [(42,)]
        recovered.execute("COMMIT", session="r")
        assert recovered.mvcc.chain_count() == 0

    def test_seeded_crash_chaos_rebuilds_versions(self):
        """A torn-tail crash mid-workload: the recovered version store
        must match a second recovery of the same log exactly (the
        dump-equality yardstick under actual crash damage)."""
        from repro.recovery import DiskFaultProfile

        durability, db = make_durability()
        durability.disk.arm(
            DiskFaultProfile("torn-tail", crash_at_append=9, torn=True),
            seed=3,
        )
        from repro.errors import DiskCrashed

        try:
            for value in range(100, 130):
                with db.transaction():
                    db.execute(
                        "UPDATE t SET v = ? WHERE id = 1", [value]
                    )
        except DiskCrashed:
            pass
        first = durability.recover()
        first_dump = first.mvcc.dump()
        second = durability.recover()
        assert second.mvcc.dump() == first_dump
        assert second.mvcc.chain_count() == 0
