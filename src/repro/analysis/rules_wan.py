"""WAN anti-pattern rules (W001-W003).

W001 is the paper's core observation (Section 2, Table 2): a navigational
client issues one point-SELECT per visited node, so a 1000-node tree
costs 1000 round trips — minutes over a WAN.  The statement itself is
innocent; the *shape* is the tell, and a workload that repeats it per
node escalates the finding to a warning (:mod:`repro.analysis.workload`).

W002 and W003 are plan-level: a full scan on a table whose predicate
column carries an index, and FROM relations not connected by any join
predicate (a cartesian product multiplies the rows shipped over the
link — and "transmission costs are the dominating limitation factor",
Section 6).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.analysis.findings import Finding, Severity
from repro.errors import SQLError
from repro.sqldb import ast_nodes as ast
from repro.sqldb.ast_walk import (
    constantish as _constantish,
    core_predicates,
    flatten_set_operations,
    iter_from_leaves,
)


def check_statement(
    statement: ast.SelectStatement, path: str = "", is_root: bool = True
) -> List[Finding]:
    """AST-level WAN rules: W001 (root statements only) and W003."""
    findings: List[Finding] = []
    if is_root:
        findings.extend(_check_point_select(statement, path))
    findings.extend(_check_cartesian(statement, path))
    return findings


# -- W001: navigational point-SELECT ---------------------------------------


def _check_point_select(
    statement: ast.SelectStatement, path: str
) -> List[Finding]:
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


# -- W003: cartesian product -----------------------------------------------


def _check_cartesian(
    statement: ast.SelectStatement, path: str
) -> List[Finding]:
    findings: List[Finding] = []
    for core, core_path in _all_cores(statement, path):
        finding = _core_cartesian(core, core_path)
        if finding is not None:
            findings.append(finding)
    return findings


def _all_cores(
    statement: ast.SelectStatement, path: str
) -> List[Tuple[ast.SelectCore, str]]:
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
    return cores


def _core_cartesian(core: ast.SelectCore, core_path: str) -> Optional[Finding]:
    """Union-find over FROM bindings: join trees connect structurally
    (an explicit CROSS JOIN is intent, not an accident); comma-separated
    items only connect through predicates mentioning both sides."""
    parent: Dict[str, str] = {}

    def find(name: str) -> str:
        while parent[name] != name:
            parent[name] = parent[parent[name]]
            name = parent[name]
        return name

    def union(a: str, b: str) -> None:
        parent[find(a)] = find(b)

    groups: List[List[str]] = []
    for item in core.from_items:
        names: List[str] = []
        for leaf in iter_from_leaves(item):
            name = _binding_name(leaf)
            if name is None:
                return None  # unnameable binding: stay silent
            parent.setdefault(name, name)
            names.append(name)
        groups.append(names)
    if len(parent) < 2:
        return None
    # Structural edges: everything inside one join tree is connected.
    for names in groups:
        for name in names[1:]:
            union(names[0], name)
    # Predicate edges: a conjunct mentioning several bindings connects
    # them; one with unqualified column references could belong to any
    # binding, so conservatively connect everything it touches.
    for __, conjunct in core_predicates(core):
        qualifiers, has_unqualified = _conjunct_bindings(conjunct, parent)
        if has_unqualified:
            qualifiers = set(parent)
        qualifiers = {name for name in qualifiers if name in parent}
        names_list = sorted(qualifiers)
        for name in names_list[1:]:
            union(names_list[0], name)
    components = {find(name) for name in parent}
    if len(components) < 2:
        return None
    disconnected = sorted(parent)
    return Finding(
        "W003",
        Severity.WARNING,
        f"FROM relations {', '.join(disconnected)} form "
        f"{len(components)} groups not connected by any join predicate; "
        f"the cartesian product multiplies the rows shipped over the link",
        core_path,
    )


def _binding_name(leaf: ast.FromItem) -> Optional[str]:
    if isinstance(leaf, ast.TableRef):
        return (leaf.alias or leaf.name).lower()
    if isinstance(leaf, ast.SubqueryRef):
        return leaf.alias.lower()
    return None


def _conjunct_bindings(
    conjunct: ast.Expression, known: Dict[str, str]
) -> Tuple[Set[str], bool]:
    qualifiers: Set[str] = set()
    has_unqualified = False
    for node in ast.walk_expression(conjunct):
        if isinstance(node, ast.ColumnRef):
            if node.qualifier is None:
                has_unqualified = True
            else:
                qualifiers.add(node.qualifier.lower())
    return qualifiers, has_unqualified


# -- W002: full scan on an indexed column (plan-level) ---------------------


def check_plan(
    plan: Any, statement: ast.SelectStatement, database: Any
) -> List[Finding]:
    """W002: the plan sequentially scans a table although the statement
    constrains an indexed column of it with an index-friendly predicate:
    an equality, an ``IN``-list, or a non-negated ``IN (subquery)`` whose
    subquery is uncorrelated (the planner probes the index once per
    distinct subquery value).  For an UPDATE/DELETE, *plan* is the one
    that locates the target rows and *statement* its WHERE clause as a
    one-table SELECT.

    With the database's ANALYZE statistics the rule is keyed off the
    measured selectivity: when the cost model itself prices the
    sequential scan below a one-key index probe — the column is so
    non-selective that the probe would walk most of the table anyway —
    the finding is only an INFO, because the scan is the *right* plan,
    not a missed index.  Without statistics the original WARNING stands
    (the analyzer cannot tell a justified scan from a planner miss)."""
    from repro.sqldb.executor import SeqScan
    from repro.sqldb.explain import plan_operators

    catalog = database.catalog
    stats = getattr(database, "stats", None)
    scanned: Set[str] = set()
    for operator in plan_operators(plan):
        if isinstance(operator, SeqScan):
            scanned.add(operator.storage.schema.name.lower())
    if not scanned:
        return []
    findings: List[Finding] = []
    seen: Set[Tuple[str, str]] = set()
    for core, core_path in _all_cores(statement, ""):
        bindings = _core_bindings(core)
        for __, conjunct in core_predicates(core):
            for table, column, subquery in _index_candidates(
                conjunct, bindings
            ):
                if table not in scanned or (table, column) in seen:
                    continue
                if not catalog.exists(table):
                    continue
                entry = catalog.lookup(table)
                if entry.storage.find_index([column]) is None:
                    continue
                keys = 1
                if subquery is not None:
                    estimate = _uncorrelated_keys(subquery, statement, database)
                    if estimate is None:
                        continue
                    keys = estimate
                seen.add((table, column))
                severity, justified = _scan_severity(
                    stats, table, column, keys
                )
                note = (
                    "; statistics show the scan is cost-justified — the "
                    "column is not selective enough for the index to win"
                    if justified
                    else "; rewrite the predicate so the index applies"
                )
                findings.append(
                    Finding(
                        "W002",
                        severity,
                        f"the plan scans table {table!r} sequentially "
                        f"although column {column!r} is indexed and "
                        f"constrained by an equality/IN predicate"
                        f"{note}",
                        f"{core_path}",
                    )
                )
    return findings


def _scan_severity(
    stats: Optional[Any], table: str, column: str, keys: int
) -> Tuple[Severity, bool]:
    """WARNING unless collected statistics prove the scan cost-justified
    against a probe with *keys* keys."""
    from repro.sqldb.stats import (
        SELECTIVE_FRACTION,
        index_probe_cost,
        seq_scan_cost,
    )

    if stats is None:
        return Severity.WARNING, False
    table_stats = stats.get(table)
    if table_stats is None:
        return Severity.WARNING, False
    column_stats = table_stats.column(column)
    if column_stats is None:
        return Severity.WARNING, False
    selectivity = column_stats.eq_selectivity()
    rows_out = table_stats.row_count * min(1.0, keys * selectivity)
    probe_loses = index_probe_cost(keys, rows_out) >= seq_scan_cost(
        table_stats.row_count
    )
    if probe_loses or selectivity > SELECTIVE_FRACTION:
        return Severity.INFO, True
    return Severity.WARNING, False


def _core_bindings(core: ast.SelectCore) -> Dict[str, str]:
    bindings: Dict[str, str] = {}
    for item in core.from_items:
        for leaf in iter_from_leaves(item):
            if isinstance(leaf, ast.TableRef):
                bindings[(leaf.alias or leaf.name).lower()] = leaf.name.lower()
    return bindings


def _uncorrelated_keys(
    subquery: ast.SelectStatement,
    statement: ast.SelectStatement,
    database: Any,
) -> Optional[int]:
    """The planner's own test for an ``IN``-subquery access path: the
    subquery plans with every enclosing scope hidden — only the CTEs of
    *statement* stay visible — and yields one column.  Returns the number
    of probe keys the planner would price (its cardinality estimate, 1
    when it has none), or None when the subquery does not qualify."""
    if subquery.with_clause is not None and statement.with_clause is not None:
        return None  # two WITH clauses to merge: stay silent
    standalone = replace(
        subquery, with_clause=subquery.with_clause or statement.with_clause
    )
    try:
        plan = database.plan_statement(standalone)
    except SQLError:
        return None
    if len(plan.output_names) != 1:
        return None
    estimate = getattr(plan.root, "est_rows", None)
    return 1 if estimate is None else max(1, round(estimate))


def _index_candidates(
    conjunct: ast.Expression, bindings: Dict[str, str]
) -> List[Tuple[str, str, Optional[ast.SelectStatement]]]:
    """(table, column, subquery) triples an index could serve: equality or
    IN against constants/parameters on a bare column (subquery None), or
    IN against a subquery the caller must still show to be uncorrelated —
    anywhere in the predicate (OR branches included — that is exactly
    where planners give up)."""
    candidates: List[Tuple[str, str, Optional[ast.SelectStatement]]] = []
    single_table = (
        next(iter(bindings.values())) if len(bindings) == 1 else None
    )

    def resolve(column: ast.ColumnRef) -> Optional[str]:
        if column.qualifier is not None:
            return bindings.get(column.qualifier.lower())
        return single_table

    for node in ast.walk_expression(conjunct):
        column: Optional[ast.ColumnRef] = None
        subquery: Optional[ast.SelectStatement] = None
        if isinstance(node, ast.BinaryOp) and node.operator == "=":
            sides = (node.left, node.right)
            for column_side, constant_side in (sides, sides[::-1]):
                if isinstance(
                    column_side, ast.ColumnRef
                ) and _constantish(constant_side):
                    column = column_side
                    break
        elif isinstance(node, ast.InList) and not node.negated:
            if isinstance(node.operand, ast.ColumnRef) and all(
                _constantish(item) for item in node.items
            ):
                column = node.operand
        elif isinstance(node, ast.InSubquery) and not node.negated:
            if isinstance(node.operand, ast.ColumnRef):
                column = node.operand
                subquery = node.subquery
        if column is None:
            continue
        table = resolve(column)
        if table is not None:
            candidates.append((table, column.name.lower(), subquery))
    return candidates
