"""SQL rendering: every parsed statement must re-parse to the same result
(round-trip property), and expression keys must be stable."""

import pytest

from repro.sqldb import Database
from repro.sqldb.expressions import UnresolvedColumnError
from repro.sqldb.parser import parse_expression, parse_statement
from repro.sqldb.render import (
    expression_key,
    render_expression,
    render_statement,
)

ROUNDTRIP_STATEMENTS = [
    "SELECT * FROM t",
    "SELECT a AS x, b FROM t WHERE a = 1 AND b <> 'q'",
    "SELECT DISTINCT a FROM t ORDER BY a DESC LIMIT 3",
    "SELECT t.a, u.b FROM t JOIN u ON t.id = u.id LEFT JOIN v ON v.id = u.id",
    "SELECT a FROM t WHERE a IN (1, 2, 3) OR b NOT IN (SELECT b FROM u)",
    "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.x = t.x)",
    "SELECT a FROM t WHERE x BETWEEN 1 AND 2 AND name LIKE 'A%'",
    "SELECT COUNT(*), SUM(a), g FROM t GROUP BY g HAVING COUNT(*) > 1",
    "SELECT CAST(NULL AS INTEGER) AS n, CASE WHEN a = 1 THEN 'x' ELSE 'y' END FROM t",
    "SELECT 1 UNION SELECT 2 UNION ALL SELECT 3",
    "WITH RECURSIVE r (n) AS (SELECT 1 UNION SELECT n + 1 FROM r WHERE n < 5) "
    "SELECT n FROM r ORDER BY 1",
    "INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)",
    "UPDATE t SET a = a + 1 WHERE b IS NOT NULL",
    "DELETE FROM t WHERE a < 0",
    "CREATE TABLE t (id INTEGER PRIMARY KEY, name VARCHAR(20) NOT NULL)",
    "CREATE UNIQUE INDEX i ON t (a, b)",
    "SELECT a FROM t WHERE f(a, 1) AND -a < +b",
    "SELECT a || 'it''s' FROM t",
]


class TestRoundTrip:
    @pytest.mark.parametrize("sql", ROUNDTRIP_STATEMENTS)
    def test_render_reparses_identically(self, sql):
        first = parse_statement(sql)
        rendered = render_statement(first)
        second = parse_statement(rendered)
        # A second render of the re-parsed AST must be a fixpoint.
        assert render_statement(second) == rendered

    def test_rendered_sql_executes_identically(self):
        db = Database()
        db.execute("CREATE TABLE t (a INTEGER, b VARCHAR(5))")
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, NULL)")
        sql = "SELECT a, b FROM t WHERE a > 1 OR b = 'x' ORDER BY 1"
        rendered = render_statement(parse_statement(sql))
        assert db.execute(rendered).rows == db.execute(sql).rows


class TestExpressionRendering:
    def test_parentheses_preserve_precedence(self):
        expr = parse_expression("(1 + 2) * 3")
        rendered = render_expression(expr)
        reparsed = parse_expression(rendered)
        assert render_expression(reparsed) == rendered

    def test_string_escaping(self):
        expr = parse_expression("'it''s'")
        assert render_expression(expr) == "'it''s'"

    def test_null_true_false(self):
        assert render_expression(parse_expression("NULL")) == "NULL"
        assert render_expression(parse_expression("TRUE")) == "TRUE"

    def test_parameter_renders_as_question_mark(self):
        assert "?" in render_expression(parse_expression("a = ?"))


class TestExpressionKey:
    def test_key_case_insensitive(self):
        assert expression_key(parse_expression("Foo + 1")) == expression_key(
            parse_expression("foo + 1")
        )

    def test_key_distinguishes_structure(self):
        assert expression_key(parse_expression("a + b")) != expression_key(
            parse_expression("a - b")
        )

    def test_group_by_matching_use_case(self):
        # The planner matches select-list items against GROUP BY keys.
        assert expression_key(
            parse_expression("val % 2")
        ) == expression_key(parse_expression("VAL % 2"))

    def test_string_literals_keep_their_case(self):
        assert expression_key(parse_expression("s = 'A'")) != expression_key(
            parse_expression("s = 'a'")
        )
        assert expression_key(parse_expression("S = 'it''s'")) == expression_key(
            parse_expression("s = 'it''s'")
        )

    def test_group_by_matches_a_literal_only_as_written(self):
        db = Database()
        db.execute("CREATE TABLE t (s VARCHAR(4))")
        db.executemany("INSERT INTO t VALUES (?)", [("a",), ("A",), ("b",)])
        for literal in ("A", "b"):
            with pytest.raises(UnresolvedColumnError):
                db.execute(f"SELECT s = '{literal}', COUNT(*) FROM t GROUP BY s = 'a'")
        found = db.execute("SELECT S = 'a', COUNT(*) FROM t GROUP BY s = 'a'").rows
        assert found == [(True, 1), (False, 2)]
