"""Recursion-safety rules (R001-R003).

A recursive CTE only has well-defined fixpoint semantics when the
recursion is *linear* (the recursive relation appears at most once per
recursive branch) and *monotonic* (no branch shrinks the accumulated
result: no EXCEPT/INTERSECT across branches, no aggregation over the
recursive member, no negated membership test against it).  On top of
semantics, the paper's Section 5.6 partial expand shows why unguarded
UNION ALL recursion is dangerous on real PDM data: a single cycle in the
structure relation makes the fixpoint loop forever.

The planner refuses every R001/R002 shape with a ``ParseError``, using
the same predicates from :mod:`repro.sqldb.ast_walk`; these rules report
them with node paths before anything reaches an engine.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.analysis.findings import Finding, Severity
from repro.sqldb import ast_nodes as ast
from repro.sqldb.ast_walk import (
    branch_aggregates,
    constantish as _constantish,
    core_predicates,
    core_references,
    count_table_refs,
    flatten_set_operations,
    negates_cte,
)

#: Set operators with monotonic fixpoint semantics.
_MONOTONIC_OPERATORS = frozenset({"UNION", "UNION ALL"})

#: Comparison operators that can bound a depth column.
_BOUND_OPERATORS = frozenset({"<", "<=", ">", ">="})


def check(statement: ast.SelectStatement, path: str = "") -> List[Finding]:
    """Run R001-R003 over every recursive CTE of *statement*."""
    findings: List[Finding] = []
    with_clause = statement.with_clause
    if with_clause is None or not with_clause.recursive:
        return findings
    for cte in with_clause.ctes:
        findings.extend(_check_cte(cte, path))
    return findings


def _check_cte(cte: ast.CommonTableExpr, path: str) -> List[Finding]:
    branches, operators = flatten_set_operations(cte.body)
    recursive_ids: Set[int] = {
        id(branch)
        for branch in branches
        if core_references(branch, cte.name)
    }
    if not recursive_ids:
        return []
    cte_path = f"{path}cte[{cte.name}]"
    findings: List[Finding] = []

    # R001 — linear recursion: the recursive relation may be referenced at
    # most once per recursive branch.
    for position, branch in enumerate(branches):
        if id(branch) not in recursive_ids:
            continue
        references = count_table_refs(branch, cte.name)
        if references > 1:
            findings.append(
                Finding(
                    "R001",
                    Severity.ERROR,
                    f"recursive relation {cte.name!r} is referenced "
                    f"{references} times in one recursive branch; SQL:1999 "
                    f"recursion must be linear (one reference per branch)",
                    f"{cte_path}.branch[{position}]",
                )
            )

    # R002a — only UNION / UNION ALL combine branches monotonically.
    for operator in operators:
        if operator not in _MONOTONIC_OPERATORS:
            findings.append(
                Finding(
                    "R002",
                    Severity.ERROR,
                    f"{operator} combines the branches of recursive CTE "
                    f"{cte.name!r}; only UNION / UNION ALL are monotonic, "
                    f"so this recursion has no guaranteed fixpoint",
                    cte_path,
                )
            )
            break

    for position, branch in enumerate(branches):
        branch_path = f"{cte_path}.branch[{position}]"
        # R002b — aggregation over the recursive member.
        if id(branch) in recursive_ids and branch_aggregates(branch):
            findings.append(
                Finding(
                    "R002",
                    Severity.ERROR,
                    f"a recursive branch of {cte.name!r} aggregates or "
                    f"groups over the recursive member; aggregation is "
                    f"non-monotonic and must move to the outer SELECT",
                    branch_path,
                )
            )
        # R002c — the recursive member under negation inside its own body.
        for clause, conjunct in core_predicates(branch):
            if negates_cte(conjunct, cte.name):
                findings.append(
                    Finding(
                        "R002",
                        Severity.ERROR,
                        f"the recursive member {cte.name!r} appears under "
                        f"negation (NOT EXISTS / NOT IN) inside its own "
                        f"definition; negated membership is non-monotonic",
                        f"{branch_path}.{clause}",
                    )
                )

    # R003 — termination: UNION ALL recursion deduplicates nothing, so on
    # cyclic data the fixpoint never converges unless a branch carries an
    # explicit depth bound.
    if all(operator == "UNION ALL" for operator in operators):
        guarded = any(
            _has_depth_guard(branch, cte)
            for branch in branches
            if id(branch) in recursive_ids
        )
        if not guarded:
            findings.append(
                Finding(
                    "R003",
                    Severity.WARNING,
                    f"recursive CTE {cte.name!r} uses UNION ALL (no cycle "
                    f"protection) and no recursive branch bounds the "
                    f"depth; a cycle in the data would loop forever — use "
                    f"UNION or add a depth guard",
                    cte_path,
                )
            )
    return findings


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


