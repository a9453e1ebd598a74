"""WITH RECURSIVE: fixpoint semantics, cycles, guards, CTE plumbing."""

import pytest

from repro.errors import ExecutionError, ParseError
from repro.sqldb import Database


@pytest.fixture
def graph_db():
    db = Database()
    db.execute_script(
        """
        CREATE TABLE edge (src INTEGER, dst INTEGER);
        CREATE INDEX edge_src ON edge (src)
        """
    )
    # 1 -> 2 -> 4, 1 -> 3, 3 -> 5
    for row in [(1, 2), (1, 3), (2, 4), (3, 5)]:
        db.execute("INSERT INTO edge VALUES (?, ?)", row)
    return db


class TestNonRecursiveCTE:
    def test_simple_cte(self, graph_db):
        result = graph_db.execute(
            "WITH big AS (SELECT * FROM edge WHERE src > 1) "
            "SELECT COUNT(*) FROM big"
        )
        assert result.scalar() == 2

    def test_cte_referenced_twice(self, graph_db):
        result = graph_db.execute(
            "WITH e AS (SELECT * FROM edge) "
            "SELECT COUNT(*) FROM e AS a JOIN e AS b ON a.dst = b.src"
        )
        assert result.scalar() == 2  # (1,2)->(2,4) and (1,3)->(3,5)

    def test_multiple_ctes_later_sees_earlier(self, graph_db):
        result = graph_db.execute(
            "WITH roots AS (SELECT src FROM edge WHERE src = 1), "
            "children AS (SELECT dst FROM edge WHERE src IN (SELECT src FROM roots)) "
            "SELECT COUNT(*) FROM children"
        )
        assert result.scalar() == 2

    def test_cte_column_rename(self, graph_db):
        result = graph_db.execute(
            "WITH pairs (a, b) AS (SELECT src, dst FROM edge) "
            "SELECT a FROM pairs WHERE b = 4"
        )
        assert result.scalar() == 2

    def test_cte_shadowing_in_subquery(self, graph_db):
        result = graph_db.execute(
            "WITH x AS (SELECT 1 AS v) "
            "SELECT (SELECT v FROM x), v FROM x"
        )
        assert result.rows == [(1, 1)]


class TestRecursion:
    def test_transitive_closure(self, graph_db):
        result = graph_db.execute(
            "WITH RECURSIVE reach (node) AS "
            "(SELECT 1 UNION SELECT dst FROM reach JOIN edge ON reach.node = edge.src) "
            "SELECT node FROM reach ORDER BY 1"
        )
        assert result.column("node") == [1, 2, 3, 4, 5]

    def test_recursion_from_middle(self, graph_db):
        result = graph_db.execute(
            "WITH RECURSIVE reach (node) AS "
            "(SELECT 3 UNION SELECT dst FROM reach JOIN edge ON reach.node = edge.src) "
            "SELECT node FROM reach ORDER BY 1"
        )
        assert result.column("node") == [3, 5]

    def test_counting_recursion(self, graph_db):
        result = graph_db.execute(
            "WITH RECURSIVE seq (n) AS "
            "(SELECT 1 UNION ALL SELECT n + 1 FROM seq WHERE n < 10) "
            "SELECT COUNT(*), MAX(n) FROM seq"
        )
        assert result.fetchone() == (10, 10)

    def test_union_terminates_on_cycles(self, graph_db):
        graph_db.execute("INSERT INTO edge VALUES (4, 1)")  # cycle 1-2-4-1
        result = graph_db.execute(
            "WITH RECURSIVE reach (node) AS "
            "(SELECT 1 UNION SELECT dst FROM reach JOIN edge ON reach.node = edge.src) "
            "SELECT COUNT(*) FROM reach"
        )
        assert result.scalar() == 5

    def test_union_all_on_cycle_hits_guard(self, graph_db):
        graph_db.execute("INSERT INTO edge VALUES (4, 1)")
        graph_db.recursion_limit = 10_000
        with pytest.raises(ExecutionError):
            graph_db.execute(
                "WITH RECURSIVE reach (node) AS "
                "(SELECT 1 UNION ALL "
                " SELECT dst FROM reach JOIN edge ON reach.node = edge.src) "
                "SELECT COUNT(*) FROM reach"
            )

    def test_multiple_recursive_branches(self, graph_db):
        # Walk edges in both directions from node 4.
        result = graph_db.execute(
            "WITH RECURSIVE touch (node) AS "
            "(SELECT 4 "
            " UNION SELECT dst FROM touch JOIN edge ON touch.node = edge.src "
            " UNION SELECT src FROM touch JOIN edge ON touch.node = edge.dst) "
            "SELECT node FROM touch ORDER BY 1"
        )
        assert result.column("node") == [1, 2, 3, 4, 5]

    def test_self_reference_without_recursive_keyword_rejected(self, graph_db):
        with pytest.raises(ParseError):
            graph_db.execute(
                "WITH reach (node) AS "
                "(SELECT 1 UNION SELECT dst FROM reach JOIN edge "
                "ON reach.node = edge.src) SELECT * FROM reach"
            )

    def test_recursive_cte_without_seed_rejected(self, graph_db):
        with pytest.raises(ParseError):
            graph_db.execute(
                "WITH RECURSIVE r (n) AS (SELECT n FROM r) SELECT * FROM r"
            )

    def test_arity_mismatch_between_branches_rejected(self, graph_db):
        with pytest.raises(ParseError):
            graph_db.execute(
                "WITH RECURSIVE r (n) AS "
                "(SELECT 1 UNION SELECT src, dst FROM edge) SELECT * FROM r"
            )

    def test_computed_columns_in_recursion(self, graph_db):
        result = graph_db.execute(
            "WITH RECURSIVE walk (node, depth) AS "
            "(SELECT 1, 0 UNION "
            " SELECT edge.dst, walk.depth + 1 FROM walk "
            " JOIN edge ON walk.node = edge.src) "
            "SELECT node, depth FROM walk ORDER BY 1"
        )
        assert dict(result.rows) == {1: 0, 2: 1, 3: 1, 4: 2, 5: 2}

    def test_outer_query_sees_final_result(self, graph_db):
        # Aggregates and IN-subqueries over the CTE read the fixpoint.
        result = graph_db.execute(
            "WITH RECURSIVE reach (node) AS "
            "(SELECT 1 UNION SELECT dst FROM reach JOIN edge ON reach.node = edge.src) "
            "SELECT src, dst FROM edge "
            "WHERE src IN (SELECT node FROM reach) "
            "  AND dst IN (SELECT node FROM reach) ORDER BY 1, 2"
        )
        assert len(result) == 4

    def test_delta_semantics_row_count(self, graph_db):
        """Semi-naive evaluation: rows_scanned stays linear because each
        iteration joins only the delta, not the accumulated result."""
        from repro.sqldb.parser import parse_statement
        from repro.sqldb.planner import Planner
        from repro.sqldb.recursive import run_plan
        from repro.sqldb.executor import ExecutionEnv

        db = Database()
        db.execute_script(
            "CREATE TABLE chain (src INTEGER, dst INTEGER); "
            "CREATE INDEX chain_src ON chain (src)"
        )
        for i in range(100):
            db.execute("INSERT INTO chain VALUES (?, ?)", [i, i + 1])
        plan = Planner(db.catalog, db.functions).plan_select(
            parse_statement(
                "WITH RECURSIVE r (n) AS "
                "(SELECT 0 UNION SELECT dst FROM r JOIN chain ON r.n = chain.src) "
                "SELECT COUNT(*) FROM r"
            )
        )
        env = ExecutionEnv(functions=db.functions)
        rows = run_plan(plan, env)
        assert rows[0][0] == 101
        # Naive evaluation would rescan the accumulated set every round
        # (~100*100/2 = 5000 probes); semi-naive needs ~100.
        assert env.counters["index_probes"] < 1000


class TestNaiveFixpointAblation:
    """Correctness parity of the semi-naive and naive evaluation modes."""

    def test_results_identical_on_tree(self, graph_db):
        sql = (
            "WITH RECURSIVE reach (node) AS "
            "(SELECT 1 UNION SELECT dst FROM reach JOIN edge "
            "ON reach.node = edge.src) SELECT node FROM reach ORDER BY 1"
        )
        fast = graph_db.execute(sql).rows
        graph_db.enable_seminaive = False
        graph_db._plan_cache.clear()
        slow = graph_db.execute(sql).rows
        graph_db.enable_seminaive = True
        assert fast == slow

    def test_results_identical_on_cycle(self, graph_db):
        graph_db.execute("INSERT INTO edge VALUES (4, 1)")
        sql = (
            "WITH RECURSIVE reach (node) AS "
            "(SELECT 1 UNION SELECT dst FROM reach JOIN edge "
            "ON reach.node = edge.src) SELECT COUNT(*) FROM reach"
        )
        graph_db.enable_seminaive = False
        assert graph_db.execute(sql).scalar() == 5
        graph_db.enable_seminaive = True

    def test_naive_requires_union_distinct(self, graph_db):
        from repro.errors import ExecutionError

        graph_db.enable_seminaive = False
        with pytest.raises(ExecutionError):
            graph_db.execute(
                "WITH RECURSIVE s (n) AS "
                "(SELECT 1 UNION ALL SELECT n + 1 FROM s WHERE n < 3) "
                "SELECT COUNT(*) FROM s"
            )
        graph_db.enable_seminaive = True


class TestRecursionLimitMidRound:
    """Regression: the guard used to run only *between* rounds, so a
    single explosive round materialised every row (doing all its work —
    function calls, scans) before the limit fired. It must now abort
    inside the row-append loop."""

    WIDE = 38  # one parent with this many children: one huge round

    @pytest.fixture
    def wide_db(self):
        db = Database()
        db.execute("CREATE TABLE e (p INTEGER, c INTEGER)")
        db.executemany(
            "INSERT INTO e VALUES (?, ?)",
            [(1, 100 + i) for i in range(self.WIDE)],
        )
        return db

    def test_limit_enforced_inside_a_round(self, wide_db):
        calls = []

        def tick(value):
            calls.append(value)
            return value

        wide_db.register_function("tick", tick)
        wide_db.recursion_limit = 10
        with pytest.raises(ExecutionError, match="produced more than"):
            wide_db.execute(
                "WITH RECURSIVE r (n) AS "
                "(SELECT 1 UNION ALL "
                " SELECT tick(e.c) FROM r JOIN e ON e.p = r.n) "
                "SELECT * FROM r"
            )
        # Lazy enforcement: the round stops as soon as the accumulator
        # crosses the limit, instead of evaluating all WIDE rows first.
        assert 0 < len(calls) <= wide_db.recursion_limit + 1
        assert len(calls) < self.WIDE

    def test_limit_enforced_on_explosive_seed(self, wide_db):
        wide_db.recursion_limit = 5
        with pytest.raises(ExecutionError, match="produced more than"):
            wide_db.execute(
                "WITH RECURSIVE r (n) AS "
                "(SELECT c FROM e UNION ALL "
                " SELECT n FROM r WHERE n < 0) "
                "SELECT * FROM r"
            )

    def test_queries_under_the_limit_unaffected(self, wide_db):
        wide_db.recursion_limit = 50
        result = wide_db.execute(
            "WITH RECURSIVE r (n) AS "
            "(SELECT 1 UNION ALL SELECT e.c FROM r JOIN e ON e.p = r.n) "
            "SELECT COUNT(*) FROM r"
        )
        assert result.scalar() == 1 + self.WIDE
