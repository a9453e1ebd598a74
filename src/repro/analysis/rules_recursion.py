"""Recursion-termination rule (R003).

The paper's Section 5.6 partial expand shows why unguarded UNION ALL
recursion is dangerous on real PDM data: UNION ALL deduplicates nothing,
so a single cycle in the structure relation makes the fixpoint loop
forever unless a recursive branch bounds the depth.  The engine cannot
decide this — whether the data holds a cycle is not in the query — so it
stays a lint.

Recursion without a fixpoint (non-linear, aggregating or negated
branches, or branches combined by anything but UNION / UNION ALL) is not
a lint: the planner refuses it with a ``ParseError`` naming the CTE.
"""

from __future__ import annotations

from typing import List, Optional

from repro.analysis.findings import Finding, Severity
from repro.sqldb import ast_nodes as ast
from repro.sqldb.ast_walk import (
    constantish as _constantish,
    core_predicates,
    core_references,
    flatten_set_operations,
)

#: Comparison operators that can bound a depth column.
_BOUND_OPERATORS = frozenset({"<", "<=", ">", ">="})


def check(statement: ast.SelectStatement, path: str = "") -> List[Finding]:
    """Run R003 over every recursive CTE of *statement*."""
    findings: List[Finding] = []
    with_clause = statement.with_clause
    if with_clause is None or not with_clause.recursive:
        return findings
    for cte in with_clause.ctes:
        findings.extend(_check_cte(cte, path))
    return findings


def _check_cte(cte: ast.CommonTableExpr, path: str) -> List[Finding]:
    branches, operators = flatten_set_operations(cte.body)
    recursive = [
        branch for branch in branches if core_references(branch, cte.name)
    ]
    if not recursive or any(op != "UNION ALL" for op in operators):
        return []
    if any(_has_depth_guard(branch, cte) for branch in recursive):
        return []
    return [
        Finding(
            "R003",
            Severity.WARNING,
            f"recursive CTE {cte.name!r} uses UNION ALL (no cycle "
            f"protection) and no recursive branch bounds the "
            f"depth; a cycle in the data would loop forever — use "
            f"UNION or add a depth guard",
            f"{path}cte[{cte.name}]",
        )
    ]


def _has_depth_guard(branch: ast.SelectCore, cte: ast.CommonTableExpr) -> bool:
    """True if a WHERE conjunct compares a CTE column against a constant
    or parameter with an ordering operator — the shape of the paper's
    Section 5.6 partial-expand bound (``rtbl.depth < ?``)."""
    for clause, conjunct in core_predicates(branch):
        if clause != "where":
            continue
        if not isinstance(conjunct, ast.BinaryOp):
            continue
        if conjunct.operator not in _BOUND_OPERATORS:
            continue
        sides = (conjunct.left, conjunct.right)
        for column_side, bound_side in (sides, sides[::-1]):
            if _references_cte_column(column_side, cte) and _constantish(
                bound_side
            ):
                return True
    return False


def _references_cte_column(
    expression: ast.Expression, cte: ast.CommonTableExpr
) -> bool:
    columns = {column.lower() for column in cte.columns}
    wanted = cte.name.lower()
    for node in ast.walk_expression(expression):
        if not isinstance(node, ast.ColumnRef):
            continue
        qualifier: Optional[str] = node.qualifier
        if qualifier is not None and qualifier.lower() == wanted:
            return True
        if qualifier is None and node.name.lower() in columns:
            return True
    return False
