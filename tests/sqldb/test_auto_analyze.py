"""Auto-ANALYZE: statistics refresh when a table drifts past threshold.

A table that has been ANALYZEd once keeps its statistics fresh by
itself: when ``TableStorage.version`` has advanced at least
``auto_analyze_threshold`` ticks past the version the stats were
collected at, the next planning pass re-collects before planning.
Never-ANALYZEd tables are deliberately left alone (rule-based planning
stays byte-identical for workloads that never opt into statistics).
"""

import pytest

from repro.sqldb import Database


def plan_text(db, sql, params=()):
    return "\n".join(
        line for (line,) in db.execute(f"EXPLAIN {sql}", params).rows
    )


@pytest.fixture
def db():
    database = Database(auto_analyze_threshold=100)
    database.execute("CREATE TABLE tiny (x INTEGER)")
    database.execute("CREATE INDEX tiny_x ON tiny (x)")
    database.executemany(
        "INSERT INTO tiny VALUES (?)", [(i,) for i in range(3)]
    )
    return database


class TestAutoAnalyze:
    def test_bulk_insert_flips_plan_without_manual_analyze(self, db):
        """The regression scenario: ANALYZE at 3 rows prices the seq scan
        cheapest; a bulk insert grows the table 300x; the next SELECT
        must re-collect by itself and flip back to the index path."""
        db.execute("ANALYZE tiny")
        assert "SeqScan(tiny)" in plan_text(
            db, "SELECT * FROM tiny WHERE x = ?", (1,)
        )
        db.executemany(
            "INSERT INTO tiny VALUES (?)", [(i,) for i in range(3, 1000)]
        )
        after = plan_text(db, "SELECT * FROM tiny WHERE x = ?", (1,))
        assert "IndexLookup(tiny via tiny_x)" in after
        assert db.statistics["auto_analyze"] == 1
        rows = db.execute("SELECT * FROM tiny WHERE x = ?", (1,)).rows
        assert rows == [(1,)]

    def test_never_analyzed_table_is_left_alone(self, db):
        db.executemany(
            "INSERT INTO tiny VALUES (?)", [(i,) for i in range(3, 1000)]
        )
        db.execute("SELECT * FROM tiny WHERE x = ?", (1,))
        assert db.statistics["auto_analyze"] == 0
        assert db.stats.get("tiny") is None

    def test_small_drift_does_not_retrigger(self, db):
        db.execute("ANALYZE tiny")
        db.executemany(
            "INSERT INTO tiny VALUES (?)", [(i,) for i in range(3, 50)]
        )
        db.execute("SELECT * FROM tiny WHERE x = ?", (1,))
        assert db.statistics["auto_analyze"] == 0

    def test_threshold_zero_disables_the_trigger(self):
        db = Database(auto_analyze_threshold=0)
        db.execute("CREATE TABLE t (x INTEGER)")
        db.execute("ANALYZE t")
        db.executemany("INSERT INTO t VALUES (?)", [(i,) for i in range(500)])
        db.execute("SELECT * FROM t WHERE x = ?", (1,))
        assert db.statistics["auto_analyze"] == 0

    def test_refresh_updates_the_stored_statistics(self, db):
        db.execute("ANALYZE tiny")
        assert db.stats.get("tiny").row_count == 3
        db.executemany(
            "INSERT INTO tiny VALUES (?)", [(i,) for i in range(3, 500)]
        )
        db.execute("SELECT * FROM tiny WHERE x = ?", (1,))
        assert db.stats.get("tiny").row_count == 500

    def test_snapshot_reads_never_trigger_auto_analyze(self):
        """A READ ONLY snapshot read is lock-free by contract, and an
        auto-ANALYZE would take shared locks mid-transaction — the
        trigger must sit the snapshot out (and catch up afterwards)."""
        db = Database(auto_analyze_threshold=100)
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, x INTEGER)")
        db.execute("CREATE INDEX t_x ON t (x)")
        db.execute("INSERT INTO t VALUES (1, 1)")
        db.execute("ANALYZE t")
        db.executemany(
            "INSERT INTO t VALUES (?, ?)",
            [(i, i) for i in range(2, 500)],
        )
        db.execute("BEGIN TRANSACTION READ ONLY", session="reader")
        db.execute("SELECT * FROM t WHERE x = ?", (1,), session="reader")
        assert db.statistics["auto_analyze"] == 0
        db.execute("COMMIT", session="reader")
        db.execute("SELECT * FROM t WHERE x = ?", (1,))
        assert db.statistics["auto_analyze"] == 1
