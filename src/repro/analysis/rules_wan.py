"""WAN anti-pattern rule (W001).

W001 is the paper's core observation (Section 2, Table 2): a navigational
client issues one point-SELECT per visited node, so a 1000-node tree
costs 1000 round trips — minutes over a WAN.  The statement itself is
innocent; the *shape* is the tell, and a workload that repeats it per
node escalates the finding to a warning (:mod:`repro.analysis.workload`).
"""

from __future__ import annotations

from typing import List

from repro.analysis.findings import Finding, Severity
from repro.sqldb import ast_nodes as ast
from repro.sqldb.ast_walk import core_predicates, flatten_set_operations


def check(statement: ast.SelectStatement, path: str = "") -> List[Finding]:
    """W001 over the statement the client ships (the analyzer does not
    call it for nested SELECTs, which are not shipped once per node)."""
    if statement.with_clause is not None:
        return []  # recursive / CTE queries are the fix, not the problem
    branches, __ = flatten_set_operations(statement.body)
    for branch in branches:
        if not branch.from_items:
            return []
        pinned = False
        for __unused, conjunct in core_predicates(branch):
            if _is_batched_in_list(conjunct):
                return []  # already a frontier fetch
            if _is_parameter_equality(conjunct):
                pinned = True
        if not pinned:
            return []
    return [
        Finding(
            "W001",
            Severity.INFO,
            "parameterised point-SELECT; issued once per visited node, "
            "this is the navigational anti-pattern of Table 2 — batch "
            "keys into an IN (...) list or use a recursive query",
            f"{path}body",
        )
    ]


def _is_parameter_equality(conjunct: ast.Expression) -> bool:
    if not isinstance(conjunct, ast.BinaryOp) or conjunct.operator != "=":
        return False
    sides = (conjunct.left, conjunct.right)
    for column_side, param_side in (sides, sides[::-1]):
        if isinstance(column_side, ast.ColumnRef) and isinstance(
            param_side, ast.Parameter
        ):
            return True
    return False


def _is_batched_in_list(conjunct: ast.Expression) -> bool:
    for node in ast.walk_expression(conjunct):
        if (
            isinstance(node, ast.InList)
            and not node.negated
            and len(node.items) >= 2
            and all(isinstance(item, ast.Parameter) for item in node.items)
        ):
            return True
    return False
