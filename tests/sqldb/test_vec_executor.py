"""Unit tests for the batch executor: statement accounting, chunk-cache
invalidation, batch boundaries, EXPLAIN ANALYZE labelling, the batch
primitives, and the aggregate fold over groups and DISTINCT values that
span chunks.

Semantics are checked against SQLite (``test_sqlite_oracle.py``) and
against the same plan pulled a row at a time (``test_differential.py``);
these tests pin the machinery *around* the batch pipeline.
"""

from __future__ import annotations

import re

import pytest

from repro.obs import TraceRecorder
from repro.sqldb.columnar import BATCH_SIZE, Batch, Columns, table_batches
from repro.sqldb.database import Database
from tests.sqldb.test_differential import run_differential
from tests.sqldb.test_sqlite_oracle import sqlite_twin


@pytest.fixture
def db() -> Database:
    database = Database()
    database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
    database.executemany(
        "INSERT INTO t VALUES (?, ?)", [(i, i % 10) for i in range(100)]
    )
    return database


#: A one-row answer from a set difference.
EXCEPT = "SELECT v FROM t WHERE id = 7 EXCEPT SELECT v FROM t WHERE id = 8"


class TestExecutionModes:
    def test_statistics_track_columnar_runs_and_fallbacks(self, db):
        """Every SELECT runs on the batch operators — a set difference
        too — so every one counts as columnar and none as a fallback."""
        before = dict(db.statistics)
        db.execute("SELECT v FROM t WHERE v < 3")
        assert db.execute(EXCEPT).rows == [(7,)]
        after = db.statistics
        assert after["columnar_statements"] == before["columnar_statements"] + 2
        assert after["columnar_fallbacks"] == before["columnar_fallbacks"] == 0


class TestIndexProbeBodies:
    """An index probe answers the same pulled whole and a row at a time,
    and probes each key once (a unique index is never priced against the
    scan)."""

    PROBES = {
        "index lookup": ("SELECT v FROM t WHERE id = 7", 1),
        "multi-key lookup": ("SELECT v FROM t WHERE id IN (1, 2, 3)", 3),
    }

    @pytest.mark.parametrize("family", sorted(PROBES))
    def test_both_bodies_probe_and_agree(self, db, family):
        sql, probes = self.PROBES[family]
        before = dict(db.statistics)
        assert run_differential(db, sql)
        assert db.statistics["columnar_statements"] == before["columnar_statements"] + 1
        assert db.last_counters["index_probes"] == probes


class TestChunkCacheInvalidation:
    def test_insert_invalidates_cached_chunks(self, db):
        first = db.execute("SELECT COUNT(*) FROM t")
        db.execute("INSERT INTO t VALUES (100, 42)")
        second = db.execute("SELECT COUNT(*) FROM t")
        assert (first.rows[0][0], second.rows[0][0]) == (100, 101)

    def test_update_invalidates_cached_chunks(self, db):
        db.execute("SELECT v FROM t WHERE v = 42")
        db.execute("UPDATE t SET v = 42 WHERE id = 3")
        result = db.execute("SELECT id FROM t WHERE v = 42")
        assert result.rows == [(3,)]

    def test_delete_invalidates_cached_chunks(self, db):
        db.execute("SELECT COUNT(*) FROM t")
        db.execute("DELETE FROM t WHERE v < 5")
        result = db.execute("SELECT COUNT(*) FROM t")
        assert result.rows == [(50,)]

    def test_rollback_invalidates_cached_chunks(self, db):
        db.execute("BEGIN")
        db.execute("INSERT INTO t VALUES (100, 42)")
        inside = db.execute("SELECT COUNT(*) FROM t")
        db.execute("ROLLBACK")
        after = db.execute("SELECT COUNT(*) FROM t")
        assert (inside.rows[0][0], after.rows[0][0]) == (101, 100)

    def test_unchanged_table_reuses_cached_chunks(self, db):
        db.execute("SELECT COUNT(*) FROM t")
        storage = db.catalog.lookup("t").storage
        first = table_batches(storage)
        db.execute("SELECT SUM(v) FROM t")
        assert table_batches(storage) is first


class TestBatchBoundaries:
    @pytest.fixture
    def big_db(self) -> Database:
        database = Database()
        database.execute("CREATE TABLE big (id INTEGER, v INTEGER)")
        database.executemany(
            "INSERT INTO big VALUES (?, ?)",
            [(i, i % 7) for i in range(2 * BATCH_SIZE + 100)],
        )
        return database

    def test_multi_batch_scan_sees_every_row(self, big_db):
        result = big_db.execute("SELECT COUNT(*) FROM big")
        assert result.rows == [(2 * BATCH_SIZE + 100,)]
        assert len(table_batches(big_db.catalog.lookup("big").storage)) == 3

    def test_offset_and_limit_across_batch_boundary(self, big_db):
        sql = "SELECT id FROM big LIMIT 10 OFFSET ?"
        for offset in (BATCH_SIZE - 5, BATCH_SIZE, 2 * BATCH_SIZE + 95):
            expected = [(i,) for i in range(offset, min(offset + 10, 2 * BATCH_SIZE + 100))]
            assert big_db.execute(sql, (offset,)).rows == expected
            assert run_differential(big_db, sql, (offset,)) == expected

    def test_limit_stops_consuming_batches_early(self, big_db):
        big_db.execute("SELECT id FROM big LIMIT 5")
        assert big_db.last_counters["rows_scanned"] == 5


class TestAggregateFoldAcrossChunks:
    """``Aggregate.batches`` folds each group's column slice per batch;
    SQLite adds value by value.  Over three chunks both must give the
    same rows, and the engine the same (first-seen) order however it is
    pulled."""

    AGGREGATES = [
        # groups 5 and 6 are first seen in the second chunk; every x of
        # group 6 is NULL
        "SELECT g, COUNT(*), COUNT(x), SUM(x), AVG(x), MIN(x), MAX(x) FROM agg GROUP BY g",
        # DISTINCT values recur in every chunk
        "SELECT COUNT(DISTINCT d), SUM(DISTINCT d), AVG(DISTINCT x), MIN(s), MAX(s) FROM agg",
        "SELECT g, COUNT(DISTINCT d), SUM(DISTINCT x), AVG(d) FROM agg GROUP BY g",
        "SELECT g, d, COUNT(*), SUM(x) FROM agg GROUP BY g, d",
        # a filter leaves each chunk's groups uneven
        "SELECT g, SUM(x), MAX(s) FROM agg WHERE d < 5 GROUP BY g",
        "SELECT g, SUM(x) FROM agg GROUP BY g HAVING COUNT(x) > 0",
        "SELECT g, COUNT(*) FROM agg GROUP BY g HAVING SUM(d) > 3000",
        # empty input: one row for a scalar aggregate, none for a grouped one
        "SELECT COUNT(*), COUNT(x), SUM(x), MIN(s) FROM agg WHERE id < 0",
        "SELECT g, COUNT(*), SUM(x) FROM agg WHERE id < 0 GROUP BY g",
    ]

    @pytest.fixture(scope="class")
    def agg_db(self) -> Database:
        database = Database()
        database.execute(
            "CREATE TABLE agg (id INTEGER PRIMARY KEY, g INTEGER, d INTEGER,"
            " x DOUBLE, s VARCHAR(10))"
        )
        rows = []
        for i in range(2 * BATCH_SIZE + 300):
            g = i % 5 if i < BATCH_SIZE else i % 7
            x = None if g == 6 or i % 11 == 0 else i * 0.1
            rows.append((i, g, i % 13, x, f"s{i % 97}"))
        database.executemany("INSERT INTO agg VALUES (?, ?, ?, ?, ?)", rows)
        return database

    @pytest.mark.parametrize("sql", AGGREGATES)
    def test_batch_fold_equals_row_adds(self, agg_db, sql):
        rows = run_differential(agg_db, sql)
        assert rows is not None
        oracle = sqlite_twin(
            {"agg": (["id", "g", "d", "x", "s"], agg_db.execute("SELECT * FROM agg").rows)}
        )
        try:
            theirs = oracle.execute(sql).fetchall()
        finally:
            oracle.close()
        assert sorted(map(rounded, rows), key=repr) == sorted(map(rounded, theirs), key=repr)
        assert len(table_batches(agg_db.catalog.lookup("agg").storage)) == 3

    def test_the_edge_cases_are_in_the_data(self, agg_db):
        rows = agg_db.execute(self.AGGREGATES[0]).rows
        assert [row[0] for row in rows] == [0, 1, 2, 3, 4, 5, 6]
        assert rows[-1][2:] == (0, None, None, None, None)
        assert agg_db.execute(self.AGGREGATES[-2]).rows == [(0, 0, None, None)]
        assert agg_db.execute(self.AGGREGATES[-1]).rows == []


def rounded(row):
    """*row* with floats to 9 places: the two engines sum in row order, but
    an average may differ in its last bit."""
    return tuple(round(value, 9) if isinstance(value, float) else value for value in row)


class TestExplainAnalyze:
    SQL = "SELECT v FROM t WHERE v < 3"

    def plan_text(self, db, sql, prefix="EXPLAIN ANALYZE"):
        return "\n".join(line for (line,) in db.execute(f"{prefix} {sql}").rows)

    def test_columnar_plan_labels_operators_and_executor(self, db):
        text = self.plan_text(db, self.SQL)
        assert "-> SeqScan(t) (loops=1 rows=100) (batches=1)" in text
        assert "-> Filter (fused)" in text
        assert "-> Project(v) (loops=1 rows=30) (batches=1)" in text

    def test_one_rendering_for_both_operator_sets(self, db):
        """Same operator names as plain EXPLAIN; estimates on every
        operator line, loops, rows and batches on every line but a stage
        fused into its pipeline; then the footer."""
        db.execute("ANALYZE")
        plain = self.plan_text(db, self.SQL, "EXPLAIN").splitlines()
        analyzed = self.plan_text(db, self.SQL).splitlines()
        counts = re.compile(r" (loops=1 rows=\d+\) \(batches=\d+\)|fused\))$")
        for plain_line, analyzed_line in zip(plain, analyzed):
            assert "est_rows=" in plain_line
            assert counts.sub(")", analyzed_line) == plain_line
        fused = [line.endswith(" fused)") for line in analyzed[: len(plain)]]
        assert fused == [False, True, False]  # Project, Filter, SeqScan
        footer = len(plain)
        assert analyzed[footer:] == [
            "Execution: 30 row(s) returned",
            "  rows_scanned: 100",
            "  index_probes: 0",
            "  subquery_executions: 0",
        ]

    def test_batch_counts_follow_the_tree_through_joins_and_unions(self, db):
        db.execute("CREATE TABLE dim (k INTEGER)")
        db.executemany("INSERT INTO dim VALUES (?)", [(k,) for k in range(5)])
        text = self.plan_text(
            db,
            "SELECT t.id FROM t JOIN dim ON t.v = dim.k"
            " UNION ALL SELECT k FROM dim WHERE k < 2",
        )
        assert "-> SeqScan(t) (loops=1 rows=100) (batches=1)" in text
        assert text.count("-> SeqScan(dim) (loops=1 rows=5) (batches=1)") == 2
        assert "-> HashJoin(1 key(s)) (loops=1 rows=50) (batches=1)" in text
        assert "-> UnionAll (loops=1 rows=52) (batches=2)" in text


class TestObservability:
    def test_columnar_metrics_counters(self, db):
        """One home: the cumulative run / fallback counts in
        ``statistics`` — with or without a recorder attached."""
        db.recorder = TraceRecorder()
        before = dict(db.statistics)
        db.execute("SELECT v FROM t WHERE v < 3")
        db.execute(EXCEPT)
        assert db.statistics["columnar_statements"] == (
            before["columnar_statements"] + 2
        )
        assert db.statistics["columnar_fallbacks"] == before["columnar_fallbacks"]


class TestBatchPrimitives:
    def test_from_rows_pivots_and_memoises_rows(self):
        batch = Batch([(1, "a"), (2, "b")])
        assert batch == [(1, "a"), (2, "b")]
        assert batch.columns is None  # a small batch is never pivoted
        columns = Columns(batch)
        assert columns[0] == [1, 2]
        assert columns[1] == ["a", "b"]
        assert columns[0] is columns[0]

    def test_zero_arity_rows(self):
        batch = Batch([()] * 3)
        assert len(batch) == 3 and list(batch) == [(), (), ()]
