"""Pushdown-safety rule (P001).

The paper's Section 5.5 places each translated rule condition at the one
level of the recursive query where it is semantically safe: row
conditions anywhere their table occurs (step D), ∃structure probes in the
recursive part (step C), but ∀rows and tree-aggregate conditions only in
the *outer* SELECTs (steps A-B) — inside the recursion they would judge a
half-built tree.  P001 flags predicates over the whole recursion result
that ended up inside the recursive part.
"""

from __future__ import annotations

from typing import List

from repro.analysis.findings import Finding, Severity
from repro.sqldb import ast_nodes as ast
from repro.sqldb.ast_walk import (
    core_predicates,
    core_references,
    flatten_set_operations,
    iter_subqueries,
    statement_references,
)
from repro.sqldb.expressions import contains_aggregate


def check(statement: ast.SelectStatement, path: str = "") -> List[Finding]:
    """Run P001 over every branch of every recursive CTE of *statement*."""
    findings: List[Finding] = []
    with_clause = statement.with_clause
    if with_clause is None or not with_clause.recursive:
        return findings
    for cte in with_clause.ctes:
        branches, __ = flatten_set_operations(cte.body)
        if not any(core_references(branch, cte.name) for branch in branches):
            continue
        for position, branch in enumerate(branches):
            findings.extend(
                _check_placement(
                    branch, cte.name, f"{path}cte[{cte.name}].branch[{position}]"
                )
            )
    return findings


def _check_placement(
    branch: ast.SelectCore, cte_name: str, branch_path: str
) -> List[Finding]:
    findings: List[Finding] = []
    for clause, conjunct in core_predicates(branch):
        for wrapper, subquery in iter_subqueries(conjunct):
            if not statement_references(subquery, cte_name):
                continue
            shape = _condition_shape(wrapper, subquery)
            findings.append(
                Finding(
                    "P001",
                    Severity.ERROR,
                    f"a {shape} condition over the whole recursion result "
                    f"({cte_name!r}) is placed inside the recursive part; "
                    f"it would judge a partially built tree — move it to "
                    f"the outer SELECT (Section 5.5 steps A-B)",
                    f"{branch_path}.{clause}",
                )
            )
            break  # one finding per conjunct is enough
    return findings


def _condition_shape(
    wrapper: ast.Expression, subquery: ast.SelectStatement
) -> str:
    if isinstance(wrapper, ast.ScalarSubquery):
        branches, __ = flatten_set_operations(subquery.body)
        for branch in branches:
            for item in branch.items:
                if isinstance(item, ast.SelectItem) and contains_aggregate(
                    item.expression
                ):
                    return "tree-aggregate"
        return "scalar"
    if isinstance(wrapper, (ast.ExistsTest, ast.InSubquery)) and wrapper.negated:
        return "∀rows"
    return "membership"
