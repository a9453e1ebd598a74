"""Cost-based access-path and join-order decisions, plus the regression
tests for the planner bugfix sweep:

* ``_try_index_scan`` no longer grabs the first matching index — without
  statistics it deterministically prefers unique indexes, with
  statistics it prices every candidate against the sequential scan;
* ``_access_paths`` deduplicates repeated IN-list literals at
  plan time (repeated *parameters* were already deduplicated at run
  time by the operator itself);
* the greedy comma-join reordering starts from the smallest filtered
  table and restores the written column order with a projection.
"""

from __future__ import annotations

import pytest

from repro.sqldb import Database


def plan_text(db, sql, params=()):
    return "\n".join(
        line for (line,) in db.execute(f"EXPLAIN {sql}", params).rows
    )


@pytest.fixture
def two_index_db():
    """a keeps 10% of the rows per value, b is unique-ish (1000 values);
    index discovery order (s_a first) is the trap the old first-match
    planner fell into."""
    db = Database()
    db.execute("CREATE TABLE s (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER)")
    db.execute("CREATE INDEX s_a ON s (a)")
    db.execute("CREATE INDEX s_b ON s (b)")
    db.executemany(
        "INSERT INTO s VALUES (?, ?, ?)",
        [(i, i % 10, i) for i in range(1000)],
    )
    return db


class TestIndexChoice:
    def test_without_stats_unique_index_wins_over_discovery_order(self):
        """The old planner took whichever access path it found first;
        the fallback now deterministically prefers the unique index."""
        db = Database()
        db.execute("CREATE TABLE u (id INTEGER PRIMARY KEY, grp INTEGER)")
        db.execute("CREATE INDEX u_grp ON u (grp)")
        db.executemany(
            "INSERT INTO u VALUES (?, ?)", [(i, i % 5) for i in range(100)]
        )
        text = plan_text(db, "SELECT * FROM u WHERE grp = ? AND id = ?", (1, 7))
        assert "IndexLookup(u via u_pk)" in text

    def test_with_stats_selective_index_wins(self, two_index_db):
        db = two_index_db
        sql = "SELECT * FROM s WHERE a = ? AND b = ?"
        # Without statistics: both candidates non-unique except the pk is
        # not applicable here, so discovery order (s_a) applies.
        assert "IndexLookup(s via s_a)" in plan_text(db, sql, (1, 500))
        db.execute("ANALYZE s")
        # With statistics: probing s_b returns ~1 row, s_a ~100.
        text = plan_text(db, sql, (1, 500))
        assert "IndexLookup(s via s_b) (est_rows=1)" in text
        rows = db.execute(sql, (1, 500)).rows
        assert rows == [(500, 0, 500)] or rows == []
        assert db.execute(sql, (0, 500)).rows == [(500, 0, 500)]

    def test_tiny_table_flips_to_seq_scan(self):
        """A 3-row table is cheaper to scan than to probe (scan cost 3
        beats probe cost 4+1) — ANALYZE flips index -> seq."""
        db = Database()
        db.execute("CREATE TABLE tiny (x INTEGER)")
        db.execute("CREATE INDEX tiny_x ON tiny (x)")
        db.executemany("INSERT INTO tiny VALUES (?)", [(i,) for i in range(3)])
        before = plan_text(db, "SELECT * FROM tiny WHERE x = ?", (1,))
        assert "IndexLookup(tiny via tiny_x)" in before
        db.execute("ANALYZE tiny")
        after = plan_text(db, "SELECT * FROM tiny WHERE x = ?", (1,))
        assert "SeqScan(tiny)" in after
        assert db.execute("SELECT * FROM tiny WHERE x = ?", (1,)).rows == [(1,)]

    def test_large_table_keeps_the_index_after_analyze(self, two_index_db):
        two_index_db.execute("ANALYZE s")
        text = plan_text(two_index_db, "SELECT * FROM s WHERE b = ?", (42,))
        assert "IndexLookup(s via s_b)" in text


class TestInListDedup:
    @pytest.fixture
    def db(self, two_index_db):
        return two_index_db

    def test_duplicate_literals_deduplicated_at_plan_time(self, db):
        text = plan_text(db, "SELECT id FROM s WHERE id IN (1, 1, 2)")
        assert "MultiKeyIndexLookup(s via s_pk, 2 keys)" in text

    def test_deduped_plan_returns_each_row_once(self, db):
        sql = "SELECT id FROM s WHERE id IN (1, 1, 2) ORDER BY id"
        assert db.execute(sql).rows == [(1,), (2,)]

    def test_duplicate_parameters_still_runtime_deduplicated(self, db):
        text = plan_text(db, "SELECT id FROM s WHERE id IN (?, ?)", (2, 2))
        # Parameters cannot be deduplicated at plan time...
        assert "MultiKeyIndexLookup(s via s_pk, 2 keys)" in text
        # ...but the operator still returns each row once.
        assert db.execute(
            "SELECT id FROM s WHERE id IN (?, ?)", (2, 2)
        ).rows == [(2,)]

    def test_mixed_bool_int_literals_share_a_key(self, db):
        # 1 == True in Python and in the hash index's buckets, so the
        # pair is one key, not two.
        text = plan_text(db, "SELECT id FROM s WHERE id IN (1, TRUE)")
        assert "1 keys" in text
        assert db.execute("SELECT id FROM s WHERE id IN (1, TRUE)").rows == [
            (1,)
        ]


class TestJoinReordering:
    @pytest.fixture
    def db(self):
        db = Database()
        db.execute("CREATE TABLE big (k INTEGER, ref INTEGER)")
        db.execute("CREATE TABLE u (id INTEGER PRIMARY KEY, grp INTEGER)")
        db.executemany(
            "INSERT INTO big VALUES (?, ?)", [(i, i % 100) for i in range(200)]
        )
        db.executemany(
            "INSERT INTO u VALUES (?, ?)", [(i, i % 5) for i in range(100)]
        )
        return db

    SQL = "SELECT big.k, u.id FROM big, u WHERE u.id = ? AND u.grp = big.ref"

    def test_analyze_flips_scan_to_index_probe(self, db):
        """The written order starts with the unconstrained big table;
        after ANALYZE the greedy order plans the point-constrained u
        first through its primary key."""
        before = plan_text(db, self.SQL, (3,))
        assert "SeqScan(big)" in before
        assert "IndexLookup" not in before
        db.execute("ANALYZE")
        after = plan_text(db, self.SQL, (3,))
        assert "IndexLookup(u via u_pk)" in after

    def test_reordered_plan_restores_written_column_order(self, db):
        db.execute("ANALYZE")
        text = plan_text(db, self.SQL, (3,))
        # The permuting projection re-establishes big-then-u slots.
        assert "Project(k, ref, id, grp)" in text

    def test_reordering_preserves_results(self, db):
        before = sorted(db.execute(self.SQL, (3,)).rows)
        db.execute("ANALYZE")
        after = sorted(db.execute(self.SQL, (3,)).rows)
        assert after == before == [(3, 3), (103, 3)]

    def test_join_estimate_tracks_actuals(self, db):
        db.execute("ANALYZE")
        text = "\n".join(
            line
            for (line,) in db.execute(
                "EXPLAIN ANALYZE " + self.SQL.replace("?", "3")
            ).rows
        )
        # The filter is fused into its pipeline: the top operator reports
        # the rows the filter kept.
        assert "Filter (est_rows=2 fused)" in text
        assert "Project(k, id) (est_rows=2 loops=1 rows=2)" in text
