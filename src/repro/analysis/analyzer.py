"""The analyzer entry points: run every rule family over a statement.

The analyzer is *purely static*: it parses, walks the AST, and (when a
database is supplied) asks the planner for a plan — but it never executes
anything and never mutates the statement, the catalog, or any table.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Tuple

from repro.analysis import rules_pushdown, rules_recursion, rules_wan
from repro.analysis.findings import Finding
from repro.errors import SQLError
from repro.sqldb import ast_nodes as ast
from repro.sqldb.ast_walk import (
    core_expressions,
    flatten_set_operations,
    iter_from_leaves,
    iter_subqueries,
)
from repro.sqldb.parser import parse_statement


def analyze_sql(sql: str, database: Optional[Any] = None) -> List[Finding]:
    """Parse *sql* and analyze it (see :func:`analyze_statement`)."""
    return analyze_statement(parse_statement(sql), database=database)


def analyze_statement(
    statement: Any, database: Optional[Any] = None
) -> List[Finding]:
    """All findings for one statement, deterministically ordered.

    *database* (a :class:`repro.sqldb.database.Database`) is optional; with
    it the analyzer resolves indexes for severity decisions and runs the
    plan-level rules (W002).  Non-SELECT statements are analyzed where it
    makes sense: INSERT ... SELECT through its query, UPDATE/DELETE through
    their WHERE clause and the plan that locates their target rows; DDL
    has no findings.
    """
    if isinstance(statement, ast.Explain):
        statement = statement.statement
    catalog = database.catalog if database is not None else None
    stats = getattr(database, "stats", None) if database is not None else None
    findings: List[Finding] = []
    select, is_root = _selectable(statement)
    if select is not None:
        for nested, path, nested_root in _iter_select_statements(
            select, "", is_root
        ):
            findings.extend(rules_recursion.check(nested, path))
            findings.extend(
                rules_pushdown.check(nested, path, catalog, stats=stats)
            )
            findings.extend(
                rules_wan.check_statement(nested, path, is_root=nested_root)
            )
        if database is not None:
            plan = _try_plan(select, database)
            if plan is not None:
                findings.extend(rules_wan.check_plan(plan, select, database))
    elif isinstance(statement, (ast.Update, ast.Delete)):
        findings.extend(_analyze_dml_where(statement, catalog, stats, database))
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


def _analyze_dml_where(
    statement: Any,
    catalog: Optional[Any],
    stats: Optional[Any],
    database: Optional[Any],
) -> List[Finding]:
    """UPDATE/DELETE predicates get the predicate-shape rules by wrapping
    them in a synthetic single-table SELECT core.  The plan-level rule
    (W002) reads that core for the predicates too, but judges the plan the
    statement will really locate its rows with."""
    if statement.where is None:
        return []
    synthetic = ast.SelectStatement(
        body=ast.SelectCore(
            items=[ast.Star()],
            from_items=[ast.TableRef(name=statement.table)],
            where=statement.where,
        )
    )
    findings = rules_pushdown.check(synthetic, "", catalog, stats=stats)
    plan = _try_plan(statement, database) if database is not None else None
    if plan is not None:
        findings.extend(rules_wan.check_plan(plan, synthetic, database))
    return findings


def _try_plan(statement: Any, database: Any) -> Optional[Any]:
    """Plan without executing; linting never fails on unplannable SQL —
    execution will report the real error with full context."""
    try:
        return database.plan_statement(statement)
    except SQLError:
        return None


def _iter_select_statements(
    statement: ast.SelectStatement, path: str, is_root: bool
) -> Iterator[Tuple[ast.SelectStatement, str, bool]]:
    """Yield *statement* and every nested SELECT (subqueries in any clause,
    derived tables), with a node path and a root flag."""
    yield statement, path, is_root
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
                    subquery, f"{core_path}.subquery[{counter}].", False
                )
                counter += 1
        for item in core.from_items:
            for leaf in iter_from_leaves(item):
                if isinstance(leaf, ast.SubqueryRef):
                    yield from _iter_select_statements(
                        leaf.subquery,
                        f"{core_path}.derived[{leaf.alias}].",
                        False,
                    )
