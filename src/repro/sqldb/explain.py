"""Render physical plans as indented text (the ``EXPLAIN`` statement).

Useful for verifying the planner's access-path decisions — e.g. that the
recursive multi-level expand probes the ``link`` table through its hash
index instead of rescanning it per fixpoint iteration.
"""

from __future__ import annotations

from typing import List, Optional

from repro.sqldb.executor import (
    Aggregate,
    CTEScan,
    Distinct,
    Filter,
    HashJoin,
    IndexLookup,
    IndexNestedLoopJoin,
    Limit,
    MultiKeyIndexLookup,
    NestedLoopJoin,
    Operator,
    Project,
    RowsSource,
    SeqScan,
    SetDifference,
    SetIntersection,
    Sort,
    UnionAll,
)
from repro.sqldb.planner import Plan, PlannedCTE, SubplanOperator
from repro.sqldb.vec_executor import VecOperator, VecUnionAll, vec_execute


def explain_plan(plan: Plan) -> List[str]:
    """Flatten a plan (CTE materialisations first, then the root tree)."""
    lines: List[str] = []
    for cte in plan.ctes:
        lines.extend(_explain_cte(cte))
    lines.extend(_explain_operator(plan.root, 0))
    return lines


def explain_analyze_plan(
    plan: Plan, env, vec_root: Optional[VecOperator], fallback_reason: str
) -> List[str]:
    """Execute *plan* in *env* and render it with runtime statistics.

    *vec_root* and *fallback_reason* are what
    :func:`~repro.sqldb.vec_executor.vectorized_root` answers for the
    plan: it runs on its batch operators when it has them, on the row
    operators otherwise, exactly as a plain execution would.  Either way
    the tree rendered is the one ``EXPLAIN`` shows.

    Every operator's ``rows`` (or ``batches``) generator is wrapped with a
    per-instance counting shim before execution, so each rendered line
    carries the operator's invocation count (``loops``) and the total rows
    it produced — plus, on a vectorized plan, the ``batches`` they came
    in; an operator the execution never pulled from is marked ``(never
    executed)``.  The plan must be freshly built — EXPLAIN ANALYZE
    statements bypass the plan cache, so the instrumented operator
    instances are discarded with the plan.  The trailing ``Executor:``
    line states which operator set ran, and why when it is the row one.
    """
    from repro.sqldb.recursive import execute_plan

    operators = _all_operators(plan)
    vectorized = vec_root is not None
    if vec_root is not None:
        # ``_vectorize`` maps the row tree one-to-one (and a vectorized
        # plan has no CTEs), so the two preorder walks line up.
        running, pull = _subtree(vec_root), "batches"
    else:
        running, pull = operators, "rows"
    stats = {}
    for operator, target in zip(operators, running):
        if id(operator) in stats:
            continue
        record = stats[id(operator)] = {"loops": 0, "pulls": 0, "rows": 0}

        def counting(env, _original=getattr(target, pull), _record=record):
            _record["loops"] += 1
            for item in _original(env):
                _record["pulls"] += 1
                _record["rows"] += item.length if vectorized else 1
                yield item

        setattr(target, pull, counting)

    counters = ["rows_scanned", "index_probes", "subquery_executions"]
    if vec_root is not None:
        rows = vec_execute(vec_root, env)
        executor = "columnar"
        counters += ["vec_batches", "vec_rows"]
    else:
        rows = execute_plan(plan, env)
        executor = f"row (columnar fallback: {fallback_reason})"

    def annotate(operator: Operator) -> str:
        estimate = _estimate(operator)
        prefix = "" if estimate is None else f"est_rows={estimate} "
        record = stats.get(id(operator))
        if record is None or record["loops"] == 0:
            return f" ({prefix}never executed)"
        suffix = ""
        key_run = env.subquery_key_runs.get(id(operator))
        if key_run is not None:
            # The subquery-keyed lookup chose its access method at run time.
            suffix = f" keys={key_run[0]} {'probed' if key_run[1] else 'scanned'}"
        batches = f" (batches={record['pulls']})" if vectorized else ""
        return (
            f" ({prefix}loops={record['loops']} rows={record['rows']}{suffix})"
            f"{batches}"
        )

    lines: List[str] = []
    for cte in plan.ctes:
        lines.extend(_explain_cte(cte, annotate))
    lines.extend(_explain_operator(plan.root, 0, annotate))
    lines.append(f"Execution: {len(rows)} row(s) returned")
    lines.append(f"Executor: {executor}")
    for name in counters:
        lines.append(f"  {name}: {env.counters.get(name, 0)}")
    return lines


def plan_operators(plan: Plan) -> List[Operator]:
    """Every operator instance in *plan*, CTE branches included.  Public
    so the static analyzer (:mod:`repro.analysis`) can inspect access
    paths without executing anything."""
    return _all_operators(plan)


def _all_operators(plan: Plan) -> List[Operator]:
    """Every operator instance in the plan, CTE branches included."""
    operators: List[Operator] = []
    for cte in plan.ctes:
        for branch in list(cte.seed_plans) + list(cte.recursive_plans):
            operators.extend(_subtree(branch))
    operators.extend(_subtree(plan.root))
    return operators


def _subtree(operator) -> list:
    """*operator* and everything below it, in the order EXPLAIN prints."""
    operators = [operator]
    for child in _children(operator):
        operators.extend(_subtree(child))
    return operators


def _estimate(operator: Operator) -> Optional[int]:
    """Planner cardinality estimate, rounded for display (None when the
    plan was built without statistics — plain rule-based plans render
    exactly as before)."""
    est = getattr(operator, "est_rows", None)
    if est is None:
        return None
    return max(0, int(round(est)))


def _no_annotation(operator: Operator) -> str:
    estimate = _estimate(operator)
    if estimate is None:
        return ""
    return f" (est_rows={estimate})"


def _explain_cte(cte: PlannedCTE, annotate=_no_annotation) -> List[str]:
    kind = "recursive cte" if cte.recursive else "cte"
    dedup = "UNION" if cte.distinct else "UNION ALL"
    lines = [f"materialize {kind} {cte.name} ({dedup})"]
    for branch in cte.seed_plans:
        lines.append("  seed branch:")
        lines.extend(_explain_operator(branch, 2, annotate))
    for branch in cte.recursive_plans:
        lines.append("  recursive branch (joins the delta):")
        lines.extend(_explain_operator(branch, 2, annotate))
    return lines


def _label(operator: Operator) -> str:
    if isinstance(operator, SeqScan):
        return f"SeqScan({operator.storage.schema.name})"
    if isinstance(operator, IndexLookup):
        return (
            f"IndexLookup({operator.storage.schema.name} "
            f"via {operator.index.name})"
        )
    if isinstance(operator, MultiKeyIndexLookup):
        keys = (
            f"{len(operator.key_fns)} keys"
            if operator.subquery is None
            else "keys from subquery"
        )
        return (
            f"MultiKeyIndexLookup({operator.storage.schema.name} "
            f"via {operator.index.name}, {keys})"
        )
    if isinstance(operator, IndexNestedLoopJoin):
        return (
            f"IndexNestedLoopJoin({operator.kind} probe "
            f"{operator.storage.schema.name} via {operator.index.name})"
        )
    if isinstance(operator, CTEScan):
        return f"CTEScan({operator.name})"
    if isinstance(operator, RowsSource):
        return "Values"
    if isinstance(operator, Filter):
        return "Filter"
    if isinstance(operator, Project):
        return f"Project({', '.join(operator.output_names)})"
    if isinstance(operator, NestedLoopJoin):
        kind = "CROSS" if operator.condition is None else operator.kind
        return f"NestedLoopJoin({kind})"
    if isinstance(operator, HashJoin):
        return f"HashJoin({len(operator.left_keys)} key(s))"
    if isinstance(operator, UnionAll):
        return "UnionAll"
    if isinstance(operator, Distinct):
        return "Distinct"
    if isinstance(operator, SetDifference):
        return "Except"
    if isinstance(operator, SetIntersection):
        return "Intersect"
    if isinstance(operator, Aggregate):
        return (
            f"Aggregate({len(operator.group_exprs)} group key(s), "
            f"{len(operator.aggregates)} aggregate(s))"
        )
    if isinstance(operator, Sort):
        return f"Sort({len(operator.keys)} key(s))"
    if isinstance(operator, Limit):
        return "Limit"
    if isinstance(operator, SubplanOperator):
        return "Subplan"
    return type(operator).__name__


def _children(operator) -> list:
    """Inputs of a row operator — or of a batch operator, which names
    them the same way."""
    if isinstance(operator, SubplanOperator):
        return [operator.subquery.plan.root]
    if isinstance(operator, (UnionAll, VecUnionAll)):
        return list(operator.children)
    children = []
    for attribute in ("child", "left", "right"):
        value = getattr(operator, attribute, None)
        if isinstance(value, (Operator, VecOperator)):
            children.append(value)
    return children


def _explain_operator(
    operator: Operator, depth: int, annotate=_no_annotation
) -> List[str]:
    lines = ["  " * depth + "-> " + _label(operator) + annotate(operator)]
    for child in _children(operator):
        lines.extend(_explain_operator(child, depth + 1, annotate))
    return lines
