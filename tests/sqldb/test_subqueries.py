"""Subquery semantics: EXISTS, IN, scalar; correlation; caching."""

import pytest

from repro.errors import ExecutionError, TypeMismatchError
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
        # The inner SELECT runs once, not once per row.  The same test
        # made correlated by a no-op outer reference runs once per row.
        from repro.sqldb.parser import parse_statement
        from repro.sqldb.planner import Planner
        from repro.sqldb.recursive import run_plan
        from repro.sqldb.executor import ExecutionEnv

        def executions(sql):
            plan = Planner(db.catalog, db.functions).plan_select(parse_statement(sql))
            env = ExecutionEnv(functions=db.functions)
            rows = run_plan(plan, env)
            return rows, env.counters["subquery_executions"]

        cached = executions(
            "SELECT * FROM node WHERE NOT EXISTS "
            "(SELECT * FROM node WHERE kind = 'z')"
        )
        uncached = executions(
            "SELECT * FROM node o WHERE NOT EXISTS "
            "(SELECT * FROM node WHERE kind = 'z' AND o.obid = o.obid)"
        )
        assert cached[1] == 1
        assert uncached[1] == 4  # once per row
        assert cached[0] == uncached[0]

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


class TestInIsMembership:
    """``IN`` is membership in each of its forms — a list of constants, a
    list of expressions, a subquery: NULL as SQL has it, and an item of
    the other kind is no match rather than an error (SQLite agrees; ``=``
    still raises).  The three forms agree on every row."""

    LISTS = [
        ("1", "'x'"),
        ("2", "'x'"),
        ("'x'", "'y'"),
        ("1", "NULL"),
        ("'x'", "NULL"),
        ("NULL", "NULL"),
    ]

    @pytest.mark.parametrize("negated", [False, True], ids=["in", "not-in"])
    @pytest.mark.parametrize("items", LISTS, ids=lambda items: ",".join(items))
    def test_the_three_forms_agree_on_every_row(self, items, negated):
        first, second = items
        # Columns i1 / i2 hold the items, for the list-of-expressions form.
        kinds = ["VARCHAR(4)" if item.startswith("'") else "INTEGER" for item in items]
        db = Database()
        db.execute(
            f"CREATE TABLE t (a INTEGER, s VARCHAR(4), i1 {kinds[0]}, i2 {kinds[1]})"
        )
        rows = [(2, "x"), (1, "y"), (None, "x"), (1, None)]
        for a, s in rows:
            db.execute(f"INSERT INTO t VALUES (?, ?, {first}, {second})", [a, s])
        keyword = "NOT IN" if negated else "IN"
        for operand in ("a", "s"):
            literal = f"{operand} {keyword} ({first}, {second})"
            expression = f"{operand} {keyword} (i1, i2)"
            subquery = (
                f"{operand} {keyword} (SELECT {first} UNION ALL SELECT {second})"
            )
            result = db.execute(f"SELECT {literal}, {expression}, {subquery} FROM t").rows
            assert len(result) == len(rows)
            for literal_value, expression_value, subquery_value in result:
                assert literal_value == expression_value == subquery_value
                assert literal_value is None or isinstance(literal_value, bool)

    def test_an_item_of_the_other_kind_is_no_match(self):
        mixed = Database()
        mixed.execute("CREATE TABLE t (a INTEGER, s VARCHAR(4))")
        mixed.execute("INSERT INTO t VALUES (2, 'x')")
        assert mixed.execute(
            "SELECT a IN (1, 'x'), a IN (a, 'x'), a IN (a + 5, 'x'), "
            "a IN (SELECT s FROM t) FROM t"
        ).rows == [(False, True, False, False)]
        with pytest.raises(TypeMismatchError):
            mixed.execute("SELECT a = 'x' FROM t")
