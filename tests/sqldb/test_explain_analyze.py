"""EXPLAIN ANALYZE: plans annotated with actual loop and row counts."""

import pytest

from repro.sqldb import Database


@pytest.fixture
def db():
    db = Database()
    db.execute_script(
        """
        CREATE TABLE t (a INTEGER PRIMARY KEY, b INTEGER);
        CREATE INDEX t_b ON t (b)
        """
    )
    db.executemany(
        "INSERT INTO t VALUES (?, ?)", [(i, i % 3) for i in range(9)]
    )
    return db


def analyze_text(db, sql):
    return "\n".join(
        line for (line,) in db.execute(f"EXPLAIN ANALYZE {sql}").rows
    )


class TestExplainAnalyze:
    def test_operators_carry_loops_and_rows(self, db):
        text = analyze_text(db, "SELECT a FROM t WHERE a > 5")
        assert "-> Project(a) (loops=1 rows=3)" in text
        assert "(loops=1 rows=9)" in text  # the scan saw every row

    def test_execution_footer_reports_counters(self, db):
        text = analyze_text(db, "SELECT a FROM t WHERE a > 5")
        assert "Execution: 3 row(s) returned" in text
        assert "rows_scanned: 9" in text

    def test_index_lookup_probes_counted(self, db):
        text = analyze_text(db, "SELECT b FROM t WHERE a = 3")
        assert "IndexLookup(t via t_pk) (loops=1 rows=1)" in text
        assert "index_probes: 1" in text

    def test_subquery_keyed_lookup_reports_keys_and_access_method(self, db):
        db.execute("CREATE TABLE s (x INTEGER)")
        db.execute("INSERT INTO s VALUES (1), (1)")
        sql = "SELECT a FROM t WHERE b IN (SELECT x FROM s)"
        lookup = "MultiKeyIndexLookup(t via t_b, keys from subquery)"
        # One distinct key, 3 rows per key: 4 + 3 probing beats 9 scanning.
        assert f"{lookup} (loops=1 rows=3 keys=1 probed)" in analyze_text(db, sql)
        db.execute("INSERT INTO s VALUES (0), (2)")
        # Three keys would cost 12 + 9: the operator scans instead.
        text = analyze_text(db, sql)
        assert f"{lookup} (loops=1 rows=9 keys=3 scanned)" in text
        assert "Execution: 9 row(s) returned" in text
        assert "index_probes: 0" in text

    def test_plain_explain_has_no_counts(self, db):
        text = "\n".join(
            line
            for (line,) in db.execute("EXPLAIN SELECT a FROM t").rows
        )
        assert "loops=" not in text
        assert "Execution:" not in text

    def test_recursive_cte_branch_loop_counts(self, db):
        text = analyze_text(
            db,
            "WITH RECURSIVE s (n) AS "
            "(SELECT 1 UNION ALL SELECT n + 1 FROM s WHERE n < 4) "
            "SELECT COUNT(*) FROM s",
        )
        # Four fixpoint rounds ran the recursive branch four times
        # (the last one produced the empty delta that ends the loop).
        assert "recursive branch" in text
        assert "(loops=4 rows=3)" in text

    def test_short_circuited_operator_marked_never_executed(self, db):
        text = analyze_text(db, "SELECT a FROM t WHERE 1 = 0 AND b = 1")
        assert "(never executed)" in text or "rows=0" in text

    def test_analyze_still_usable_as_identifier(self, db):
        db.execute("CREATE TABLE analyze (v INTEGER)")
        db.execute("INSERT INTO analyze VALUES (7)")
        assert db.execute("SELECT v FROM analyze").rows == [(7,)]

    def test_analyze_does_not_pollute_plan_cache(self, db):
        sql = "SELECT a FROM t WHERE a > 5"
        db.execute(f"EXPLAIN ANALYZE {sql}")
        # The analyzed (instrumented) plan instances must not be reused
        # by the normal execution path.
        assert db.execute(sql).rows == [(6,), (7,), (8,)]
        text = analyze_text(db, sql)
        assert "(loops=1 rows=3)" in text  # fresh counts, not accumulated
