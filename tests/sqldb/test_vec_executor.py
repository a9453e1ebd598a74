"""Unit tests for the vectorized executor: executor selection, whole-plan
fallback, chunk-cache invalidation, batch boundaries, counters, EXPLAIN
ANALYZE labelling, and the observability hooks.

Semantic equivalence with the row executor is covered separately by the
differential harness (``test_differential.py``); these tests pin the
machinery *around* the batch pipeline, and the aggregate fold over
groups and DISTINCT values that span chunks.
"""

from __future__ import annotations

import re

import pytest

from repro.obs import TraceRecorder
from repro.sqldb.columnar import BATCH_SIZE, Batch, table_batches
from repro.sqldb.database import Database
from tests.sqldb.test_differential import run_differential


@pytest.fixture
def db() -> Database:
    database = Database()
    database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
    database.executemany(
        "INSERT INTO t VALUES (?, ?)", [(i, i % 10) for i in range(100)]
    )
    return database


#: A one-row answer from a plan with no batch body (set difference).
EXCEPT = "SELECT v FROM t WHERE id = 7 EXCEPT SELECT v FROM t WHERE id = 8"


class TestExecutionModes:
    def test_the_plan_picks_the_executor(self, db):
        db.execute("SELECT v FROM t WHERE v < 3")
        assert db.last_executor == "columnar"
        db.execute("SELECT v FROM t WHERE id = 1")  # index path
        assert db.last_executor == "columnar"
        db.execute(EXCEPT)
        assert db.last_executor.startswith("row (columnar fallback:")

    def test_statistics_track_columnar_runs_and_fallbacks(self, db):
        before = dict(db.statistics)
        db.execute("SELECT v FROM t WHERE v < 3")
        db.execute(EXCEPT)
        after = db.statistics
        assert after["columnar_statements"] == before["columnar_statements"] + 1
        assert after["columnar_fallbacks"] == before["columnar_fallbacks"] + 1


class TestWholePlanFallback:
    def test_index_join_falls_back(self, db):
        db.execute("CREATE TABLE u (t_id INTEGER)")
        db.execute("INSERT INTO u VALUES (7)")
        db.execute("SELECT t.v FROM u JOIN t ON t.id = u.t_id")
        assert db.last_executor is not None
        assert db.last_executor.startswith(
            "row (columnar fallback: operator IndexNestedLoopJoin"
        )

    def test_recursive_cte_falls_back(self, db):
        db.execute(
            "WITH RECURSIVE c (n) AS (SELECT 1 UNION ALL SELECT n + 1 FROM c"
            " WHERE n < 5) SELECT n FROM c"
        )
        assert db.last_executor is not None
        assert "columnar fallback" in db.last_executor

    def test_derived_table_falls_back(self, db):
        db.execute("SELECT x.v FROM (SELECT v FROM t WHERE v < 5) AS x")
        assert db.last_executor is not None
        assert "columnar fallback" in db.last_executor

    #: One statement per family of plan that runs on the row bodies, with
    #: the first operator (in EXPLAIN order) that has no batch body.
    FAMILIES = {
        "index-nested-loop": (
            "SELECT c.x FROM c JOIN u ON u.t_id = c.x",
            "operator IndexNestedLoopJoin has no vectorized implementation",
        ),
        "nested loop": (
            "SELECT l.x FROM c AS l JOIN c AS r ON l.x < r.x",
            "operator NestedLoopJoin has no vectorized implementation",
        ),
        # The join is named, not the index lookup below it: EXPLAIN order.
        "nested loop over index lookup": (
            "SELECT l.x FROM c AS l, t WHERE t.id = 3 AND l.x < t.v",
            "operator NestedLoopJoin has no vectorized implementation",
        ),
        "cte": (
            "WITH w (n) AS (SELECT x FROM c) SELECT n FROM w",
            "plan materialises CTEs",
        ),
        "set difference": (
            "SELECT x FROM c EXCEPT SELECT v FROM t",
            "operator SetDifference has no vectorized implementation",
        ),
        "set intersection": (
            "SELECT x FROM c INTERSECT SELECT v FROM t",
            "operator SetIntersection has no vectorized implementation",
        ),
        "derived table": (
            "SELECT d.v FROM (SELECT v FROM t WHERE v < 5) AS d",
            "derived-table subplan runs row-at-a-time",
        ),
    }

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_every_fallback_family_says_why_and_is_counted(self, db, family):
        sql, reason = self.FAMILIES[family]
        db.execute_script(
            "CREATE TABLE u (id INTEGER PRIMARY KEY, t_id INTEGER);"
            "CREATE INDEX u_t ON u (t_id);"
            "CREATE TABLE c (x INTEGER)"
        )
        db.executemany("INSERT INTO c VALUES (?)", [(i,) for i in range(5)])
        before = dict(db.statistics)
        db.execute(sql)
        assert db.last_executor == f"row (columnar fallback: {reason})"
        assert db.statistics["columnar_fallbacks"] == before["columnar_fallbacks"] + 1
        assert db.statistics["columnar_statements"] == before["columnar_statements"]
        assert db.last_counters["vec_batches"] == 0
        assert db.last_counters["vec_rows"] == 0
        footer = [line for (line,) in db.execute(f"EXPLAIN ANALYZE {sql}").rows]
        assert f"Executor: row (columnar fallback: {reason})" in footer

    def test_a_plan_runs_whole_on_one_kind_of_body(self, db):
        """The hash join has a batch body and so has everything below it,
        but the EXCEPT above it has none: nothing in the plan emits a
        batch."""
        db.execute("CREATE TABLE dim (k INTEGER)")
        db.executemany("INSERT INTO dim VALUES (?)", [(k,) for k in range(5)])
        join = "SELECT t.id FROM t JOIN dim ON t.v = dim.k"
        db.execute(join)
        assert db.last_executor == "columnar"
        assert db.last_counters["vec_batches"] > 0
        db.execute(f"{join} EXCEPT SELECT k FROM dim")
        assert db.last_executor.startswith("row (columnar fallback: operator SetDiff")
        assert db.last_counters["vec_batches"] == 0

    def test_columnar_counts_are_what_they_were(self, db):
        before = dict(db.statistics)
        db.execute("SELECT v FROM t WHERE v < 3")
        assert db.last_executor == "columnar"
        assert db.statistics["columnar_statements"] == before["columnar_statements"] + 1
        assert db.statistics["columnar_fallbacks"] == before["columnar_fallbacks"]
        # scan, filter and project each emit one batch: 100 + 30 + 30 rows
        assert db.last_counters["vec_batches"] == 3
        assert db.last_counters["vec_rows"] == 160

    def test_fallback_result_matches_row_mode(self, db, row_operators):
        fallback = db.execute(EXCEPT)
        assert db.last_executor.startswith("row (columnar fallback:")
        with row_operators():
            row = db.execute(EXCEPT)
        assert fallback.rows == row.rows == [(7,)]


class TestIndexProbeBodies:
    """An index probe has both bodies: the engine runs its batch body, the
    oracle its row body, and both probe (a unique index is never priced
    against the scan)."""

    PROBES = {
        "index lookup": ("SELECT v FROM t WHERE id = 7", 1),
        "multi-key lookup": ("SELECT v FROM t WHERE id IN (1, 2, 3)", 3),
    }

    @pytest.mark.parametrize("family", sorted(PROBES))
    def test_both_bodies_probe_and_agree(self, db, row_operators, family):
        sql, probes = self.PROBES[family]
        before = dict(db.statistics)
        columnar = db.execute(sql)
        assert db.last_executor == "columnar"
        assert db.statistics["columnar_statements"] == before["columnar_statements"] + 1
        assert db.last_counters["index_probes"] == probes
        assert db.last_counters["vec_batches"] > 0
        with row_operators():
            row = db.execute(sql)
        assert db.last_counters["index_probes"] == probes
        assert db.last_counters["vec_batches"] == 0
        assert columnar.rows == row.rows


class TestCounters:
    def test_vec_counters_populated_in_columnar_mode(self, db):
        db.execute("SELECT v FROM t WHERE v < 3")
        assert db.last_counters["vec_batches"] > 0
        assert db.last_counters["vec_rows"] > 0
        assert db.last_counters["rows_scanned"] == 100

    def test_vec_counters_stay_zero_in_row_mode(self, db, row_operators):
        with row_operators():
            db.execute("SELECT v FROM t WHERE v < 3")
        assert db.last_counters["vec_batches"] == 0
        assert db.last_counters["vec_rows"] == 0


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
        assert big_db.last_counters["vec_batches"] >= 3

    def test_offset_and_limit_across_batch_boundary(self, big_db, row_operators):
        sql = "SELECT id FROM big LIMIT 10 OFFSET ?"
        for offset in (BATCH_SIZE - 5, BATCH_SIZE, 2 * BATCH_SIZE + 95):
            columnar = big_db.execute(sql, (offset,))
            assert big_db.last_executor == "columnar"
            with row_operators():
                row = big_db.execute(sql, (offset,))
            assert columnar.rows == row.rows

    def test_limit_stops_consuming_batches_early(self, big_db):
        big_db.execute("SELECT id FROM big LIMIT 5")
        assert big_db.last_counters["vec_batches"] <= 4


class TestAggregateFoldAcrossChunks:
    """``Aggregate.batches`` folds each group's column slice per batch;
    the row body adds value by value.  Over three chunks both must give
    the same rows in the same (first-seen) order."""

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
    def test_batch_fold_equals_row_adds(self, agg_db, row_operators, sql):
        rows = run_differential(agg_db, sql, oracle=row_operators, vectorizes=True)
        assert rows is not None
        if "id < 0" not in sql:
            assert agg_db.last_counters["vec_batches"] >= 3

    def test_the_edge_cases_are_in_the_data(self, agg_db):
        rows = agg_db.execute(self.AGGREGATES[0]).rows
        assert [row[0] for row in rows] == [0, 1, 2, 3, 4, 5, 6]
        assert rows[-1][2:] == (0, None, None, None, None)
        assert agg_db.execute(self.AGGREGATES[-2]).rows == [(0, 0, None, None)]
        assert agg_db.execute(self.AGGREGATES[-1]).rows == []


class TestExplainAnalyze:
    SQL = "SELECT v FROM t WHERE v < 3"

    def plan_text(self, db, sql, prefix="EXPLAIN ANALYZE"):
        return "\n".join(line for (line,) in db.execute(f"{prefix} {sql}").rows)

    def test_columnar_plan_labels_operators_and_executor(self, db):
        text = self.plan_text(db, self.SQL)
        assert "-> SeqScan(t) (loops=1 rows=100) (batches=1)" in text
        assert "-> Filter (loops=1 rows=30) (batches=1)" in text
        assert "Executor: columnar" in text
        assert "vec_batches:" in text and "vec_rows:" in text

    def test_row_plan_labels_executor(self, db, row_operators):
        with row_operators():
            text = self.plan_text(db, self.SQL)
        assert "Executor: row" in text
        assert "batches" not in text

    def test_fallback_plan_names_the_reason(self, db):
        text = self.plan_text(db, EXCEPT)
        assert "Executor: row (columnar fallback: operator SetDifference" in text

    def test_one_rendering_for_both_operator_sets(self, db, row_operators):
        """Same operator names as plain EXPLAIN; estimates, loops and rows
        on every operator line either way; the batch operators add only
        their batch counts and their own footer."""
        db.execute("ANALYZE")
        plain = self.plan_text(db, self.SQL, "EXPLAIN").splitlines()
        vectorized = self.plan_text(db, self.SQL).splitlines()
        with row_operators():
            rows = self.plan_text(db, self.SQL).splitlines()
        counts = re.compile(r" loops=1 rows=\d+\)( \(batches=\d+\))?$")
        for plain_line, vec_line, row_line in zip(plain, vectorized, rows):
            assert "est_rows=" in plain_line
            assert counts.sub(")", vec_line) == plain_line
            assert vec_line.startswith(row_line + " (batches=")
        footer = len(plain)
        assert vectorized[footer : footer + 2] == [
            "Execution: 30 row(s) returned",
            "Executor: columnar",
        ]
        assert rows[footer : footer + 2] == [
            "Execution: 30 row(s) returned",
            "Executor: row (columnar fallback: row oracle)",
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
        assert "Executor: columnar" in text


class TestObservability:
    def test_span_meta_carries_executor(self, db):
        db.recorder = TraceRecorder()
        db.execute("SELECT v FROM t WHERE v < 3")
        spans = list(db.recorder.iter_spans())
        assert any(span.meta.get("executor") == "columnar" for span in spans)

    def test_columnar_metrics_counters(self, db):
        """One home each: the cumulative run / fallback counts in
        ``statistics``, the batch counts per statement in
        ``last_counters`` — with or without a recorder attached."""
        db.recorder = TraceRecorder()
        before = dict(db.statistics)
        db.execute("SELECT v FROM t WHERE v < 3")
        assert db.last_counters["vec_rows"] >= 100
        db.execute(EXCEPT)
        assert db.last_counters["vec_rows"] == 0
        assert db.statistics["columnar_statements"] == (
            before["columnar_statements"] + 1
        )
        assert db.statistics["columnar_fallbacks"] == (
            before["columnar_fallbacks"] + 1
        )


class TestBatchPrimitives:
    def test_from_rows_pivots_and_memoises_rows(self):
        batch = Batch.from_rows([(1, "a"), (2, "b")], arity=2)
        assert list(batch.columns[0]) == [1, 2]
        assert list(batch.columns[1]) == ["a", "b"]
        assert batch.rows() == [(1, "a"), (2, "b")]

    def test_zero_arity_rows(self):
        batch = Batch([], 3)
        assert batch.rows() == [(), (), ()]

    def test_gather_is_lazy_and_ordered(self):
        batch = Batch([[10, 20, 30, 40], ["a", "b", "c", "d"]], 4)
        picked = batch.gather([3, 1])
        assert picked.length == 2
        assert picked.columns[0] == [40, 20]
        # Only the accessed column is materialised; the other stays lazy
        # until first read, then matches an eager gather.
        assert picked.columns[1] == ["d", "b"]
        assert picked.rows() == [(40, "d"), (20, "b")]
