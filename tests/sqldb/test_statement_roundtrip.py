"""Statement-level round trip: ``parse(render(statement))`` must return
the *same AST* — not merely the same text.

This is the property that caught a real bug: set operations associate
left, so ``a UNION (b EXCEPT c)`` must render with parentheses or it
re-parses as ``(a UNION b) EXCEPT c`` — different semantics, silently.
The generator therefore builds arbitrarily-shaped (left- AND
right-nested) set-operation trees, plus the other shapes the analyzer
leans on: NOT EXISTS, IN-lists, recursive CTEs.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sqldb import ast_nodes as ast
from repro.sqldb.parser import parse_statement
from repro.sqldb.render import render_statement


def core(table: str, column: str = "a") -> ast.SelectCore:
    return ast.SelectCore(
        items=[ast.SelectItem(expression=ast.ColumnRef(name=column))],
        from_items=[ast.TableRef(name=table)],
    )


tables = st.sampled_from(["t1", "t2", "t3", "t4"])
operators = st.sampled_from(["UNION", "UNION ALL", "EXCEPT", "INTERSECT"])

set_op_bodies = st.recursive(
    tables.map(core),
    lambda children: st.builds(
        lambda op, left, right: ast.SetOperation(
            operator=op, left=left, right=right
        ),
        operators,
        children,
        children,
    ),
    max_leaves=8,
)


@st.composite
def statements(draw):
    return ast.SelectStatement(body=draw(set_op_bodies))


@settings(max_examples=200, deadline=None)
@given(statements())
def test_set_operation_tree_roundtrip(statement):
    rendered = render_statement(statement)
    assert parse_statement(rendered) == statement


def roundtrip(sql: str) -> None:
    first = parse_statement(sql)
    rendered = render_statement(first)
    assert parse_statement(rendered) == first


class TestRegression:
    def test_right_nested_except_under_union(self):
        # The original bug: without parentheses this re-parsed
        # left-associated and changed which rows are removed.
        statement = ast.SelectStatement(
            body=ast.SetOperation(
                operator="UNION",
                left=core("t1"),
                right=ast.SetOperation(
                    operator="EXCEPT", left=core("t2"), right=core("t3")
                ),
            )
        )
        rendered = render_statement(statement)
        assert "(" in rendered
        assert parse_statement(rendered) == statement

    def test_left_nested_stays_unparenthesised(self):
        statement = ast.SelectStatement(
            body=ast.SetOperation(
                operator="EXCEPT",
                left=ast.SetOperation(
                    operator="UNION", left=core("t1"), right=core("t2")
                ),
                right=core("t3"),
            )
        )
        rendered = render_statement(statement)
        assert rendered == (
            "SELECT a FROM t1 UNION SELECT a FROM t2 EXCEPT SELECT a FROM t3"
        )
        assert parse_statement(rendered) == statement

    def test_parenthesised_set_operation_parses(self):
        left_first = parse_statement(
            "SELECT a FROM t1 UNION SELECT a FROM t2 EXCEPT SELECT a FROM t3"
        )
        right_first = parse_statement(
            "SELECT a FROM t1 UNION (SELECT a FROM t2 EXCEPT SELECT a FROM t3)"
        )
        assert left_first != right_first
        assert isinstance(right_first.body.right, ast.SetOperation)

    def test_not_exists_roundtrip(self):
        roundtrip(
            "SELECT a FROM t1 WHERE NOT EXISTS "
            "(SELECT b FROM t2 WHERE t2.b = t1.a)"
        )

    def test_in_list_roundtrip(self):
        roundtrip("SELECT a FROM t1 WHERE a IN (?, ?, ?)")
        roundtrip("SELECT a FROM t1 WHERE a NOT IN (1, 2, 3)")

    def test_recursive_cte_roundtrip(self):
        roundtrip(
            "WITH RECURSIVE r(obid, depth) AS ("
            "SELECT obid, 0 FROM part WHERE obid = ? "
            "UNION ALL SELECT l.right, r.depth + 1 "
            "FROM r JOIN link l ON l.left = r.obid WHERE r.depth < ?"
            ") SELECT obid FROM r ORDER BY depth"
        )

    def test_explain_of_a_write_roundtrip(self):
        roundtrip("EXPLAIN UPDATE t1 SET a = a + 1 WHERE a IN (1, 2)")
        roundtrip("EXPLAIN DELETE FROM t1 WHERE a = ?")
        assert isinstance(
            parse_statement("EXPLAIN DELETE FROM t1").statement, ast.Delete
        )

    def test_set_operation_semantics_differ(self):
        # Execution-level proof that the parenthesisation matters.
        from repro.sqldb import Database

        db = Database()
        db.execute("CREATE TABLE t1 (a INTEGER)")
        db.execute("CREATE TABLE t2 (a INTEGER)")
        db.execute("CREATE TABLE t3 (a INTEGER)")
        db.execute("INSERT INTO t1 VALUES (1)")
        db.execute("INSERT INTO t2 VALUES (1)")
        db.execute("INSERT INTO t3 VALUES (1)")
        left_first = db.execute(
            "SELECT a FROM t1 UNION SELECT a FROM t2 EXCEPT SELECT a FROM t3"
        )
        right_first = db.execute(
            "SELECT a FROM t1 UNION (SELECT a FROM t2 EXCEPT SELECT a FROM t3)"
        )
        assert left_first.rows == []
        assert right_first.rows == [(1,)]
