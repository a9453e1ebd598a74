"""Render SQL AST nodes back to SQL text.

Used in three places: the aggregate planner needs a canonical textual key
to match GROUP BY expressions against select-list subexpressions; the rule
query-modificator builds queries structurally and renders them at the end;
and the client ships query *text* over the simulated network, so rendering
determines the request byte counts the experiments measure.
"""

from __future__ import annotations

import re
from typing import List, Union

from repro.sqldb import ast_nodes as ast


def render_statement(statement: ast.Statement) -> str:
    """Render any supported statement to SQL text."""
    if isinstance(statement, ast.SelectStatement):
        return render_select(statement)
    if isinstance(statement, ast.CreateTable):
        columns = ", ".join(_render_column_def(col) for col in statement.columns)
        return f"CREATE TABLE {statement.name} ({columns})"
    if isinstance(statement, ast.CreateIndex):
        unique = "UNIQUE " if statement.unique else ""
        columns = ", ".join(statement.columns)
        return (
            f"CREATE {unique}INDEX {statement.name} "
            f"ON {statement.table} ({columns})"
        )
    if isinstance(statement, ast.DropTable):
        return f"DROP TABLE {statement.name}"
    if isinstance(statement, ast.Insert):
        return _render_insert(statement)
    if isinstance(statement, ast.Update):
        assignments = ", ".join(
            f"{column} = {render_expression(value)}"
            for column, value in statement.assignments
        )
        text = f"UPDATE {statement.table} SET {assignments}"
        if statement.where is not None:
            text += f" WHERE {render_expression(statement.where)}"
        return text
    if isinstance(statement, ast.Delete):
        text = f"DELETE FROM {statement.table}"
        if statement.where is not None:
            text += f" WHERE {render_expression(statement.where)}"
        return text
    if isinstance(statement, ast.CreateView):
        columns = f" ({', '.join(statement.columns)})" if statement.columns else ""
        return (
            f"CREATE VIEW {statement.name}{columns} AS "
            f"{render_select(statement.select)}"
        )
    if isinstance(statement, ast.DropView):
        return f"DROP VIEW {statement.name}"
    if isinstance(statement, ast.BeginTransaction):
        if statement.read_only:
            return "BEGIN TRANSACTION READ ONLY"
        return "BEGIN TRANSACTION"
    if isinstance(statement, ast.CommitTransaction):
        return "COMMIT"
    if isinstance(statement, ast.RollbackTransaction):
        return "ROLLBACK"
    if isinstance(statement, ast.Explain):
        return f"EXPLAIN {render_statement(statement.statement)}"
    if isinstance(statement, ast.Analyze):
        if statement.table is not None:
            return f"ANALYZE {statement.table}"
        return "ANALYZE"
    raise TypeError(f"cannot render {type(statement).__name__}")


def _render_column_def(column: ast.ColumnDef) -> str:
    text = f"{column.name} {column.sql_type}"
    if column.primary_key:
        text += " PRIMARY KEY"
    elif column.not_null:
        text += " NOT NULL"
    return text


def _render_insert(statement: ast.Insert) -> str:
    text = f"INSERT INTO {statement.table}"
    if statement.columns:
        text += " (" + ", ".join(statement.columns) + ")"
    if statement.rows is not None:
        rows = ", ".join(
            "(" + ", ".join(render_expression(value) for value in row) + ")"
            for row in statement.rows
        )
        return f"{text} VALUES {rows}"
    return f"{text} {render_select(statement.select)}"


def render_select(statement: ast.SelectStatement) -> str:
    parts: List[str] = []
    if statement.with_clause is not None:
        keyword = "WITH RECURSIVE" if statement.with_clause.recursive else "WITH"
        ctes = []
        for cte in statement.with_clause.ctes:
            columns = f" ({', '.join(cte.columns)})" if cte.columns else ""
            ctes.append(f"{cte.name}{columns} AS ({render_body(cte.body)})")
        parts.append(f"{keyword} " + ", ".join(ctes))
    parts.append(render_body(statement.body))
    if statement.order_by:
        keys = ", ".join(
            render_expression(item.expression) + (" DESC" if item.descending else "")
            for item in statement.order_by
        )
        parts.append(f"ORDER BY {keys}")
    if statement.limit is not None:
        parts.append(f"LIMIT {render_expression(statement.limit)}")
    if statement.offset is not None:
        parts.append(f"OFFSET {render_expression(statement.offset)}")
    return " ".join(parts)


def render_body(body: Union[ast.SelectCore, ast.SetOperation]) -> str:
    if isinstance(body, ast.SetOperation):
        # Set operators associate left in this dialect, so a right-nested
        # operand must keep its parentheses: rendering
        # ``a UNION (b EXCEPT c)`` without them would re-parse as
        # ``(a UNION b) EXCEPT c`` — a different query.
        right = render_body(body.right)
        if isinstance(body.right, ast.SetOperation):
            right = f"({right})"
        return f"{render_body(body.left)} {body.operator} {right}"
    return _render_core(body)


def _render_core(core: ast.SelectCore) -> str:
    items = []
    for item in core.items:
        if isinstance(item, ast.Star):
            items.append(f"{item.qualifier}.*" if item.qualifier else "*")
        else:
            rendered = render_expression(item.expression)
            if item.alias:
                rendered += f' AS "{item.alias}"'
            items.append(rendered)
    distinct = "DISTINCT " if core.distinct else ""
    text = f"SELECT {distinct}" + ", ".join(items)
    if core.from_items:
        text += " FROM " + ", ".join(
            _render_from_item(item) for item in core.from_items
        )
    if core.where is not None:
        text += f" WHERE {render_expression(core.where)}"
    if core.group_by:
        text += " GROUP BY " + ", ".join(
            render_expression(expr) for expr in core.group_by
        )
    if core.having is not None:
        text += f" HAVING {render_expression(core.having)}"
    return text


def _render_from_item(item: ast.FromItem) -> str:
    if isinstance(item, ast.TableRef):
        if item.alias:
            return f"{item.name} AS {item.alias}"
        return item.name
    if isinstance(item, ast.SubqueryRef):
        return f"({render_select(item.subquery)}) AS {item.alias}"
    if isinstance(item, ast.Join):
        left = _render_from_item(item.left)
        right = _render_from_item(item.right)
        if item.kind == "CROSS":
            return f"{left} CROSS JOIN {right}"
        keyword = "JOIN" if item.kind == "INNER" else f"{item.kind} JOIN"
        return f"{left} {keyword} {right} ON {render_expression(item.condition)}"
    raise TypeError(f"cannot render {type(item).__name__}")


def render_expression(expression: ast.Expression) -> str:
    """Render an expression with conservative (fully explicit) parentheses
    around binary operations, so precedence never changes on re-parse."""
    if isinstance(expression, ast.Literal):
        return _render_literal(expression.value)
    if isinstance(expression, ast.ColumnRef):
        return str(expression)
    if isinstance(expression, ast.Parameter):
        return "?"
    if isinstance(expression, ast.UnaryOp):
        if expression.operator == "NOT":
            # Self-parenthesised so NOT can appear anywhere an operand can.
            return f"(NOT ({render_expression(expression.operand)}))"
        # Fold sign into numeric literals ("-(-1)" re-parses as a nested
        # negation; "1" is a fixpoint) and parenthesise everything else —
        # "-" followed by a negative literal must not become a "--" line
        # comment.
        if expression.operator == "-" and isinstance(
            expression.operand, ast.Literal
        ):
            value = expression.operand.value
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                return _render_literal(-value)
        operand = render_expression(expression.operand)
        return f"{expression.operator}({operand})"
    if isinstance(expression, ast.BinaryOp):
        left = render_expression(expression.left)
        right = render_expression(expression.right)
        if expression.operator in ("AND", "OR"):
            return f"({left} {expression.operator} {right})"
        return f"({left} {expression.operator} {right})"
    if isinstance(expression, ast.FunctionCall):
        if expression.star:
            return f"{expression.name}(*)"
        args = ", ".join(render_expression(arg) for arg in expression.args)
        distinct = "DISTINCT " if expression.distinct else ""
        return f"{expression.name}({distinct}{args})"
    if isinstance(expression, ast.Cast):
        return (
            f"CAST({render_expression(expression.operand)} AS {expression.target})"
        )
    if isinstance(expression, ast.IsNullTest):
        suffix = "IS NOT NULL" if expression.negated else "IS NULL"
        return f"({render_expression(expression.operand)} {suffix})"
    if isinstance(expression, ast.InList):
        items = ", ".join(render_expression(item) for item in expression.items)
        keyword = "NOT IN" if expression.negated else "IN"
        return f"({render_expression(expression.operand)} {keyword} ({items}))"
    if isinstance(expression, ast.InSubquery):
        keyword = "NOT IN" if expression.negated else "IN"
        return (
            f"({render_expression(expression.operand)} {keyword} "
            f"({render_select(expression.subquery)}))"
        )
    if isinstance(expression, ast.ExistsTest):
        keyword = "NOT EXISTS" if expression.negated else "EXISTS"
        return f"{keyword} ({render_select(expression.subquery)})"
    if isinstance(expression, ast.ScalarSubquery):
        return f"({render_select(expression.subquery)})"
    if isinstance(expression, ast.Between):
        keyword = "NOT BETWEEN" if expression.negated else "BETWEEN"
        return (
            f"({render_expression(expression.operand)} {keyword} "
            f"{render_expression(expression.low)} AND "
            f"{render_expression(expression.high)})"
        )
    if isinstance(expression, ast.Like):
        keyword = "NOT LIKE" if expression.negated else "LIKE"
        return (
            f"({render_expression(expression.operand)} {keyword} "
            f"{render_expression(expression.pattern)})"
        )
    if isinstance(expression, ast.CaseWhen):
        parts = ["CASE"]
        for condition, value in expression.branches:
            parts.append(
                f"WHEN {render_expression(condition)} "
                f"THEN {render_expression(value)}"
            )
        if expression.default is not None:
            parts.append(f"ELSE {render_expression(expression.default)}")
        parts.append("END")
        return " ".join(parts)
    raise TypeError(f"cannot render {type(expression).__name__}")


def _render_literal(value: object) -> str:
    if value is None:
        return "NULL"
    if value is True:
        return "TRUE"
    if value is False:
        return "FALSE"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    return repr(value)


#: A rendered string literal (``''`` is a quote inside one).
_STRING = re.compile(r"('(?:[^']|'')*')")


def expression_key(expression: ast.Expression) -> str:
    """Canonical key for structural expression equality (GROUP BY
    matching): identifiers and keywords match in any case, string
    literals only as written."""
    parts = _STRING.split(render_expression(expression))
    return "".join(part if index % 2 else part.lower() for index, part in enumerate(parts))
