"""Parser tests: statement shapes, precedence, error reporting."""

import pytest

from repro.errors import ParseError
from repro.sqldb import ast_nodes as ast
from repro.sqldb.parser import parse_expression, parse_script, parse_statement


class TestSelectBasics:
    def test_select_star(self):
        stmt = parse_statement("SELECT * FROM t")
        assert isinstance(stmt, ast.SelectStatement)
        assert isinstance(stmt.body.items[0], ast.Star)
        assert stmt.body.from_items[0].name == "t"

    def test_qualified_star(self):
        stmt = parse_statement("SELECT t.* FROM t")
        assert stmt.body.items[0].qualifier == "t"

    def test_select_without_from(self):
        stmt = parse_statement("SELECT 1 + 1")
        assert stmt.body.from_items == []

    def test_alias_with_and_without_as(self):
        stmt = parse_statement("SELECT a AS x, b y FROM t")
        assert stmt.body.items[0].alias == "x"
        assert stmt.body.items[1].alias == "y"

    def test_quoted_alias(self):
        stmt = parse_statement('SELECT dec AS "DEC" FROM assy')
        assert stmt.body.items[0].alias == "DEC"

    def test_distinct(self):
        assert parse_statement("SELECT DISTINCT a FROM t").body.distinct

    def test_where_clause(self):
        stmt = parse_statement("SELECT a FROM t WHERE a = 1")
        assert isinstance(stmt.body.where, ast.BinaryOp)

    def test_group_by_having(self):
        stmt = parse_statement(
            "SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 2"
        )
        assert len(stmt.body.group_by) == 1
        assert stmt.body.having is not None

    def test_order_by_positions_and_direction(self):
        stmt = parse_statement("SELECT a, b FROM t ORDER BY 1, b DESC")
        assert stmt.order_by[0].expression.value == 1
        assert stmt.order_by[1].descending

    def test_limit(self):
        stmt = parse_statement("SELECT a FROM t LIMIT 5")
        assert stmt.limit.value == 5

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_statement("SELECT 1 FROM t banana nonsense")

    def test_trailing_semicolon_accepted(self):
        parse_statement("SELECT 1;")


class TestJoins:
    def test_inner_join_chain(self):
        stmt = parse_statement(
            "SELECT * FROM a JOIN b ON a.x = b.x JOIN c ON b.y = c.y"
        )
        outer = stmt.body.from_items[0]
        assert isinstance(outer, ast.Join)
        assert isinstance(outer.left, ast.Join)

    def test_left_join(self):
        stmt = parse_statement("SELECT * FROM a LEFT JOIN b ON a.x = b.x")
        assert stmt.body.from_items[0].kind == "LEFT"

    def test_left_outer_join(self):
        stmt = parse_statement("SELECT * FROM a LEFT OUTER JOIN b ON a.x = b.x")
        assert stmt.body.from_items[0].kind == "LEFT"

    def test_cross_join(self):
        stmt = parse_statement("SELECT * FROM a CROSS JOIN b")
        assert stmt.body.from_items[0].kind == "CROSS"

    def test_comma_join(self):
        stmt = parse_statement("SELECT * FROM a, b WHERE a.x = b.x")
        assert len(stmt.body.from_items) == 2

    def test_table_alias(self):
        stmt = parse_statement("SELECT * FROM specified_by AS s")
        assert stmt.body.from_items[0].alias == "s"

    def test_derived_table(self):
        stmt = parse_statement("SELECT * FROM (SELECT 1 AS one) AS d")
        assert isinstance(stmt.body.from_items[0], ast.SubqueryRef)

    def test_join_missing_on_rejected(self):
        with pytest.raises(ParseError):
            parse_statement("SELECT * FROM a JOIN b")

    def test_left_as_column_name(self):
        # The paper's schema: "left" is a column of the link table.
        stmt = parse_statement("SELECT left, right FROM link WHERE left = 1")
        assert stmt.body.items[0].expression.name == "left"


class TestExpressions:
    def test_precedence_or_and(self):
        expr = parse_expression("a OR b AND c")
        assert expr.operator == "OR"
        assert expr.right.operator == "AND"

    def test_precedence_arithmetic(self):
        expr = parse_expression("1 + 2 * 3")
        assert expr.operator == "+"
        assert expr.right.operator == "*"

    def test_parentheses_override(self):
        expr = parse_expression("(1 + 2) * 3")
        assert expr.operator == "*"

    def test_not_precedence(self):
        expr = parse_expression("NOT a = 1")
        # NOT binds looser than comparison: NOT (a = 1).
        assert isinstance(expr, ast.UnaryOp)
        assert isinstance(expr.operand, ast.BinaryOp)

    def test_bang_equals_normalised(self):
        expr = parse_expression("a != 1")
        assert expr.operator == "<>"

    def test_is_null_and_is_not_null(self):
        assert parse_expression("a IS NULL").negated is False
        assert parse_expression("a IS NOT NULL").negated is True

    def test_between(self):
        expr = parse_expression("x BETWEEN 1 AND 10")
        assert isinstance(expr, ast.Between)

    def test_not_between(self):
        assert parse_expression("x NOT BETWEEN 1 AND 10").negated

    def test_like(self):
        expr = parse_expression("name LIKE 'Assy%'")
        assert isinstance(expr, ast.Like)

    def test_in_list(self):
        expr = parse_expression("x IN (1, 2, 3)")
        assert isinstance(expr, ast.InList)
        assert len(expr.items) == 3

    def test_in_subquery(self):
        expr = parse_expression("x IN (SELECT y FROM t)")
        assert isinstance(expr, ast.InSubquery)

    def test_exists(self):
        expr = parse_expression("EXISTS (SELECT 1 FROM t)")
        assert isinstance(expr, ast.ExistsTest)
        assert not expr.negated

    def test_not_exists(self):
        expr = parse_expression("NOT EXISTS (SELECT 1 FROM t)")
        assert isinstance(expr, ast.ExistsTest)
        assert expr.negated

    def test_scalar_subquery(self):
        expr = parse_expression("(SELECT COUNT(*) FROM t) <= 10")
        assert isinstance(expr.left, ast.ScalarSubquery)

    def test_cast_with_length(self):
        expr = parse_expression("CAST(x AS VARCHAR(10))")
        assert expr.target.name == "VARCHAR"
        assert expr.target.length == 10

    def test_cast_null_as_integer(self):
        expr = parse_expression("CAST(NULL AS integer)")
        assert expr.operand.value is None
        assert expr.target.name == "INTEGER"

    def test_case_when(self):
        expr = parse_expression("CASE WHEN a = 1 THEN 'x' ELSE 'y' END")
        assert isinstance(expr, ast.CaseWhen)
        assert len(expr.branches) == 1
        assert expr.default is not None

    def test_case_requires_when(self):
        with pytest.raises(ParseError):
            parse_expression("CASE ELSE 1 END")

    def test_function_call(self):
        expr = parse_expression("options_overlap(strc_opt, 3)")
        assert isinstance(expr, ast.FunctionCall)
        assert expr.name == "options_overlap"  # case preserved (registry is case-insensitive)

    def test_count_star(self):
        expr = parse_expression("COUNT(*)")
        assert expr.star

    def test_count_distinct(self):
        expr = parse_expression("COUNT(DISTINCT x)")
        assert expr.distinct

    def test_parameters_numbered_in_order(self):
        stmt = parse_statement("SELECT * FROM t WHERE a = ? AND b = ?")
        params = [
            node
            for node in ast.walk_expression(stmt.body.where)
            if isinstance(node, ast.Parameter)
        ]
        assert sorted(p.index for p in params) == [0, 1]

    def test_unary_minus(self):
        expr = parse_expression("-x + 1")
        assert expr.operator == "+"
        assert isinstance(expr.left, ast.UnaryOp)

    def test_string_concat(self):
        assert parse_expression("a || b").operator == "||"


class TestSetOperationsAndCTEs:
    def test_union(self):
        stmt = parse_statement("SELECT 1 UNION SELECT 2")
        assert isinstance(stmt.body, ast.SetOperation)
        assert stmt.body.operator == "UNION"

    def test_union_all(self):
        stmt = parse_statement("SELECT 1 UNION ALL SELECT 2")
        assert stmt.body.operator == "UNION ALL"

    def test_intersect_and_except(self):
        assert parse_statement("SELECT 1 INTERSECT SELECT 2").body.operator == "INTERSECT"
        assert parse_statement("SELECT 1 EXCEPT SELECT 2").body.operator == "EXCEPT"

    def test_union_left_associative(self):
        stmt = parse_statement("SELECT 1 UNION SELECT 2 UNION ALL SELECT 3")
        assert stmt.body.operator == "UNION ALL"
        assert stmt.body.left.operator == "UNION"

    def test_with_clause(self):
        stmt = parse_statement("WITH x AS (SELECT 1 AS a) SELECT a FROM x")
        assert not stmt.with_clause.recursive
        assert stmt.with_clause.ctes[0].name == "x"

    def test_with_recursive_column_list(self):
        stmt = parse_statement(
            "WITH RECURSIVE r (n) AS (SELECT 1 UNION SELECT n + 1 FROM r) "
            "SELECT n FROM r"
        )
        assert stmt.with_clause.recursive
        assert stmt.with_clause.ctes[0].columns == ["n"]

    def test_multiple_ctes(self):
        stmt = parse_statement(
            "WITH a AS (SELECT 1 AS x), b AS (SELECT 2 AS y) "
            "SELECT * FROM a, b"
        )
        assert len(stmt.with_clause.ctes) == 2

    def test_paper_recursive_query_parses(self):
        sql = """
        WITH RECURSIVE rtbl (type, obid, name, dec) AS
        (SELECT type, obid, name, dec FROM assy WHERE assy.obid = 1
         UNION
         SELECT assy.type, assy.obid, assy.name, assy.dec
         FROM rtbl JOIN link ON rtbl.obid=link.left
                   JOIN assy ON link.right=assy.obid
         UNION
         SELECT comp.type, comp.obid, comp.name, ''
         FROM rtbl JOIN link ON rtbl.obid=link.left
                   JOIN comp ON link.right=comp.obid)
        SELECT type, obid, name, dec AS "DEC",
               cast (NULL AS integer) AS "LEFT",
               cast (NULL AS integer) AS "RIGHT",
               cast (NULL AS integer) AS "EFF_FROM",
               cast (NULL AS integer) AS "EFF_TO"
        FROM rtbl
        UNION
        SELECT type, obid, '' AS "NAME", '' AS "DEC",
               left, right, eff_from, eff_to
        FROM link
        WHERE (left IN (SELECT obid FROM rtbl)
               AND right IN (SELECT obid FROM rtbl))
        ORDER BY 1,2
        """
        stmt = parse_statement(sql)
        assert stmt.with_clause.recursive
        assert len(stmt.order_by) == 2


class TestDDLAndDML:
    def test_create_table(self):
        stmt = parse_statement(
            "CREATE TABLE t (id INTEGER PRIMARY KEY, name VARCHAR(20) NOT NULL)"
        )
        assert isinstance(stmt, ast.CreateTable)
        assert stmt.columns[0].primary_key
        assert stmt.columns[1].not_null
        assert stmt.columns[1].sql_type.length == 20

    def test_create_index(self):
        stmt = parse_statement("CREATE INDEX i ON t (a, b)")
        assert isinstance(stmt, ast.CreateIndex)
        assert stmt.columns == ["a", "b"]

    def test_create_unique_index(self):
        assert parse_statement("CREATE UNIQUE INDEX i ON t (a)").unique

    def test_drop_table(self):
        stmt = parse_statement("DROP TABLE t")
        assert isinstance(stmt, ast.DropTable)

    def test_insert_values_multi_row(self):
        stmt = parse_statement("INSERT INTO t (a, b) VALUES (1, 2), (3, 4)")
        assert stmt.columns == ["a", "b"]
        assert len(stmt.rows) == 2

    def test_insert_select(self):
        stmt = parse_statement("INSERT INTO t SELECT * FROM s")
        assert stmt.select is not None

    def test_update(self):
        stmt = parse_statement("UPDATE t SET a = 1, b = b + 1 WHERE id = 3")
        assert len(stmt.assignments) == 2
        assert stmt.where is not None

    def test_delete(self):
        stmt = parse_statement("DELETE FROM t WHERE a < 0")
        assert isinstance(stmt, ast.Delete)

    def test_script_splits_statements(self):
        statements = parse_script("SELECT 1; SELECT 2; SELECT 3")
        assert len(statements) == 3

    def test_empty_statement_rejected(self):
        with pytest.raises(ParseError):
            parse_statement("")


class TestLintIsAnOrdinaryName:
    """``lint`` is no statement keyword: static analysis is
    :func:`repro.analysis.analyze_sql`, not SQL."""

    def test_lint_names_a_table_and_a_column(self):
        from repro.sqldb import Database

        db = Database()
        db.execute("CREATE TABLE lint (lint INTEGER PRIMARY KEY)")
        db.execute("INSERT INTO lint (lint) VALUES (1)")
        assert db.execute("SELECT lint FROM lint WHERE lint = 1").rows == [(1,)]

    @pytest.mark.parametrize(
        "sql", ["LINT SELECT 1", "LINT TRANSACTION 'SELECT 1'"]
    )
    def test_lint_statements_are_parse_errors(self, sql):
        with pytest.raises(ParseError):
            parse_statement(sql)
