"""The analyzer entry points: run every statement rule over a statement.

The analyzer is *purely static*: it parses and walks the AST, and never
plans, executes or mutates anything.  Every statement rule reads the
query text alone — what a plan would show, ``EXPLAIN`` already shows.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Tuple

from repro.analysis import rules_pushdown, rules_recursion, rules_wan
from repro.analysis.findings import Finding
from repro.sqldb import ast_nodes as ast
from repro.sqldb.ast_walk import (
    core_expressions,
    flatten_set_operations,
    iter_from_leaves,
    iter_subqueries,
)
from repro.sqldb.parser import parse_statement


def analyze_sql(sql: str) -> List[Finding]:
    """Parse *sql* and analyze it (see :func:`analyze_statement`)."""
    return analyze_statement(parse_statement(sql))


def analyze_statement(statement: Any) -> List[Finding]:
    """All findings for one statement, deterministically ordered.

    A SELECT is analyzed with every SELECT nested in it; INSERT ...
    SELECT and CREATE VIEW through their query.  Only the SELECT the
    client ships is judged as a navigational fetch (W001).  Other
    statements have no findings.
    """
    if isinstance(statement, ast.Explain):
        statement = statement.statement
    select, is_root = _selectable(statement)
    if select is None:
        return []
    findings: List[Finding] = []
    if is_root:
        findings.extend(rules_wan.check(select))
    for nested, path in _iter_select_statements(select, ""):
        findings.extend(rules_recursion.check(nested, path))
        findings.extend(rules_pushdown.check(nested, path))
    return sorted(findings, key=lambda f: (f.node_path, f.rule_id))


def _selectable(statement: Any) -> Tuple[Optional[ast.SelectStatement], bool]:
    """The SELECT statement to analyze, plus whether it is the query the
    client would actually ship (root shapes count for W001)."""
    if isinstance(statement, ast.SelectStatement):
        return statement, True
    if isinstance(statement, ast.Insert) and statement.select is not None:
        return statement.select, False
    if isinstance(statement, ast.CreateView):
        return statement.select, False
    return None, False


def _iter_select_statements(
    statement: ast.SelectStatement, path: str
) -> Iterator[Tuple[ast.SelectStatement, str]]:
    """Yield *statement* and every nested SELECT (subqueries in any clause,
    derived tables), with a node path."""
    yield statement, path
    cores: List[Tuple[ast.SelectCore, str]] = []
    if statement.with_clause is not None:
        for cte in statement.with_clause.ctes:
            branches, __ = flatten_set_operations(cte.body)
            for position, branch in enumerate(branches):
                cores.append(
                    (branch, f"{path}cte[{cte.name}].branch[{position}]")
                )
    branches, __ = flatten_set_operations(statement.body)
    for position, branch in enumerate(branches):
        branch_path = (
            f"{path}body"
            if len(branches) == 1
            else f"{path}body.branch[{position}]"
        )
        cores.append((branch, branch_path))
    for core, core_path in cores:
        counter = 0
        for expression in core_expressions(core):
            for __, subquery in iter_subqueries(expression):
                yield from _iter_select_statements(
                    subquery, f"{core_path}.subquery[{counter}]."
                )
                counter += 1
        for item in core.from_items:
            for leaf in iter_from_leaves(item):
                if isinstance(leaf, ast.SubqueryRef):
                    yield from _iter_select_statements(
                        leaf.subquery, f"{core_path}.derived[{leaf.alias}]."
                    )
