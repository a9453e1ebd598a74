"""Subquery semantics: EXISTS, IN, scalar; correlation; caching."""

import pytest

from repro.errors import ExecutionError
from repro.sqldb import Database


@pytest.fixture
def db():
    db = Database()
    db.execute_script(
        """
        CREATE TABLE node (obid INTEGER PRIMARY KEY, kind VARCHAR(8), val INTEGER);
        CREATE TABLE rel (l INTEGER, r INTEGER)
        """
    )
    nodes = [(1, "a", 10), (2, "a", 20), (3, "b", 30), (4, "b", None)]
    for row in nodes:
        db.execute("INSERT INTO node VALUES (?, ?, ?)", row)
    for row in [(1, 3), (2, 3), (2, 4)]:
        db.execute("INSERT INTO rel VALUES (?, ?)", row)
    return db


class TestExists:
    def test_correlated_exists(self, db):
        result = db.execute(
            "SELECT obid FROM node WHERE EXISTS "
            "(SELECT * FROM rel WHERE rel.l = node.obid) ORDER BY 1"
        )
        assert result.column("obid") == [1, 2]

    def test_not_exists(self, db):
        result = db.execute(
            "SELECT obid FROM node WHERE NOT EXISTS "
            "(SELECT * FROM rel WHERE rel.l = node.obid) ORDER BY 1"
        )
        assert result.column("obid") == [3, 4]

    def test_uncorrelated_exists_all_or_nothing(self, db):
        # The paper's 5.3.1 pattern: empty because a 'b' row exists.
        result = db.execute(
            "SELECT * FROM node WHERE NOT EXISTS "
            "(SELECT * FROM node WHERE kind = 'b')"
        )
        assert len(result) == 0

    def test_uncorrelated_exists_passes_when_no_violation(self, db):
        result = db.execute(
            "SELECT * FROM node WHERE NOT EXISTS "
            "(SELECT * FROM node WHERE kind = 'z')"
        )
        assert len(result) == 4

    def test_uncorrelated_subquery_cached(self, db):
        # With caching on, the inner SELECT runs once, not once per row.
        from repro.sqldb.parser import parse_statement
        from repro.sqldb.planner import Planner
        from repro.sqldb.recursive import run_plan
        from repro.sqldb.executor import ExecutionEnv

        plan = Planner(db.catalog, db.functions).plan_select(
            parse_statement(
                "SELECT * FROM node WHERE NOT EXISTS "
                "(SELECT * FROM node WHERE kind = 'z')"
            )
        )
        env = ExecutionEnv(functions=db.functions)
        run_plan(plan, env)
        assert env.counters["subquery_executions"] == 1

        env2 = ExecutionEnv(functions=db.functions)
        env2.enable_subquery_cache = False
        run_plan(plan, env2)
        assert env2.counters["subquery_executions"] == 4  # once per row

    def test_correlated_subquery_not_cached(self, db):
        from repro.sqldb.parser import parse_statement
        from repro.sqldb.planner import Planner
        from repro.sqldb.recursive import run_plan
        from repro.sqldb.executor import ExecutionEnv

        plan = Planner(db.catalog, db.functions).plan_select(
            parse_statement(
                "SELECT obid FROM node WHERE EXISTS "
                "(SELECT * FROM rel WHERE rel.l = node.obid)"
            )
        )
        env = ExecutionEnv(functions=db.functions)
        run_plan(plan, env)
        assert env.counters["subquery_executions"] == 4


class TestInSubquery:
    def test_in(self, db):
        result = db.execute(
            "SELECT obid FROM node WHERE obid IN (SELECT r FROM rel) ORDER BY 1"
        )
        assert result.column("obid") == [3, 4]

    def test_not_in(self, db):
        result = db.execute(
            "SELECT obid FROM node WHERE obid NOT IN (SELECT r FROM rel) "
            "ORDER BY 1"
        )
        assert result.column("obid") == [1, 2]

    def test_not_in_with_null_in_set_matches_nothing(self, db):
        db.execute("INSERT INTO rel VALUES (9, NULL)")
        result = db.execute(
            "SELECT obid FROM node WHERE obid NOT IN (SELECT r FROM rel)"
        )
        assert len(result) == 0  # NULL in the set makes NOT IN unknown

    def test_in_requires_single_column(self, db):
        with pytest.raises(ExecutionError):
            db.execute("SELECT * FROM node WHERE obid IN (SELECT l, r FROM rel)")

    def test_correlated_in(self, db):
        result = db.execute(
            "SELECT obid FROM node AS n WHERE 3 IN "
            "(SELECT r FROM rel WHERE rel.l = n.obid) ORDER BY 1"
        )
        assert result.column("obid") == [1, 2]


class TestScalarSubquery:
    def test_scalar_aggregate(self, db):
        result = db.execute(
            "SELECT * FROM node WHERE (SELECT COUNT(*) FROM node) <= 10"
        )
        assert len(result) == 4

    def test_scalar_over_threshold_filters_all(self, db):
        result = db.execute(
            "SELECT * FROM node WHERE (SELECT COUNT(*) FROM node) <= 3"
        )
        assert len(result) == 0

    def test_scalar_in_select_list(self, db):
        result = db.execute("SELECT (SELECT MAX(val) FROM node)")
        assert result.scalar() == 30

    def test_empty_scalar_is_null(self, db):
        result = db.execute(
            "SELECT (SELECT val FROM node WHERE obid = 99) IS NULL"
        )
        assert result.scalar() is True

    def test_multirow_scalar_raises(self, db):
        with pytest.raises(ExecutionError):
            db.execute("SELECT (SELECT val FROM node)")

    def test_correlated_scalar(self, db):
        result = db.execute(
            "SELECT obid, (SELECT COUNT(*) FROM rel WHERE rel.l = node.obid) "
            "FROM node ORDER BY 1"
        )
        assert [row[1] for row in result.rows] == [1, 2, 0, 0]


class TestNestedSubqueries:
    def test_two_levels_of_correlation(self, db):
        # Inner subquery references the middle table AND the outer table.
        result = db.execute(
            "SELECT obid FROM node AS outer_n WHERE EXISTS ("
            "  SELECT * FROM rel WHERE rel.l = outer_n.obid AND EXISTS ("
            "    SELECT * FROM node AS inner_n "
            "    WHERE inner_n.obid = rel.r AND inner_n.kind = 'b'))"
            " ORDER BY 1"
        )
        assert result.column("obid") == [1, 2]

    def test_subquery_in_derived_table(self, db):
        result = db.execute(
            "SELECT kind, total FROM "
            "(SELECT kind, COUNT(*) AS total FROM node GROUP BY kind) AS g "
            "ORDER BY kind"
        )
        assert result.rows == [("a", 2), ("b", 2)]
