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


@pytest.fixture
def chain_db():
    """The chain 1 -> 2 -> 3 -> 4 -> 5: its transitive closure has 10 pairs."""
    db = Database()
    db.execute("CREATE TABLE e (a INTEGER, b INTEGER)")
    db.executemany("INSERT INTO e VALUES (?, ?)", [(1, 2), (2, 3), (3, 4), (4, 5)])
    return db


#: Recursion whose fixpoint is undefined, with what evaluating it anyway
#: returned before the planner refused it.  SQLite refuses them all.
NO_FIXPOINT = {
    # R002: EXCEPT between the branches (refused by the planner before).
    "except": (
        "WITH RECURSIVE r(b) AS (SELECT 1 EXCEPT SELECT b FROM r) "
        "SELECT b FROM r"
    ),
    # R001: two references in one branch; 8 of the 10 closure pairs,
    # (1, 4) and (2, 5) missing.
    "non-linear": (
        "WITH RECURSIVE r(a, b) AS (SELECT a, b FROM e "
        "UNION SELECT r1.a, r2.b FROM r r1 JOIN r r2 ON r1.b = r2.a) "
        "SELECT a, b FROM r"
    ),
    # R002: an aggregate over the recursive member; [(1, 0), (1, 1)].
    "aggregate": (
        "WITH RECURSIVE r(a, n) AS (SELECT 1, 0 "
        "UNION SELECT a, COUNT(*) FROM r GROUP BY a) SELECT a, n FROM r"
    ),
    # R002: the recursive member under NOT IN; 4 rows.
    "negated": (
        "WITH RECURSIVE r(b) AS (SELECT b FROM e WHERE a = 1 "
        "UNION SELECT e.b FROM e WHERE e.b NOT IN (SELECT b FROM r)) "
        "SELECT b FROM r"
    ),
}

#: The linear closure over the same chain.
LINEAR_CLOSURE = (
    "WITH RECURSIVE r(a, b) AS (SELECT a, b FROM e "
    "UNION SELECT r.a, e.b FROM r JOIN e ON r.b = e.a) SELECT a, b FROM r"
)


class TestNoFixpointRefused:
    """Semi-naive evaluation joins each round's delta against one
    reference to the CTE, so it only computes linear, monotonic
    recursion; the planner refuses anything else instead of answering
    wrong."""

    @pytest.mark.parametrize("shape", sorted(NO_FIXPOINT))
    def test_refused_naming_the_cte(self, chain_db, shape):
        with pytest.raises(ParseError, match="'r'"):
            chain_db.execute(NO_FIXPOINT[shape])

    def test_not_exists_over_the_cte_is_refused(self, chain_db):
        with pytest.raises(ParseError, match="NOT EXISTS / NOT IN"):
            chain_db.execute(
                "WITH RECURSIVE r(b) AS (SELECT 2 UNION SELECT e.b FROM e "
                "WHERE NOT EXISTS (SELECT 1 FROM r WHERE r.b = e.b)) "
                "SELECT b FROM r"
            )

    def test_linear_closure_is_complete(self, chain_db):
        rows = chain_db.execute(LINEAR_CLOSURE).rows
        assert sorted(rows) == [(a, b) for a in range(1, 6) for b in range(a + 1, 6)]

    def test_remote_client_gets_a_typed_sql_error(self, chain_db):
        from repro.errors import SQLError
        from repro.network.profiles import WAN_256
        from repro.server.client import RemoteConnection
        from repro.server.server import DatabaseServer

        server = DatabaseServer(chain_db)
        connection = RemoteConnection(server, WAN_256.create_link())
        with pytest.raises(SQLError, match="ParseError: .*'r'"):
            connection.execute(NO_FIXPOINT["non-linear"])
        assert server.statistics["errors"] == 1

    def test_planner_and_analyzer_share_one_detector(self):
        from repro.analysis import rules_recursion
        from repro.sqldb import ast_walk, planner

        assert planner._branch_aggregates is ast_walk.branch_aggregates
        assert planner._negates_cte is ast_walk.negates_cte
        assert rules_recursion.branch_aggregates is ast_walk.branch_aggregates
        assert rules_recursion.negates_cte is ast_walk.negates_cte


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
