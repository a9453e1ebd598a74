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


def explain_plan(plan: Plan) -> List[str]:
    """Flatten a plan (CTE materialisations first, then the root tree)."""
    lines: List[str] = []
    for cte in plan.ctes:
        lines.extend(_explain_cte(cte))
    lines.extend(_explain_operator(plan.root, 0))
    return lines


def explain_analyze_plan(plan: Plan, env, mode: str = "row") -> List[str]:
    """Execute *plan* in *env* and render it with runtime statistics.

    Every operator's ``rows`` generator is wrapped with a per-instance
    counting shim before execution, so each rendered line carries the
    operator's invocation count (``loops``) and the total rows it
    produced; an operator the execution never pulled from is marked
    ``(never executed)``.  The plan must be freshly built — EXPLAIN
    ANALYZE statements bypass the plan cache, so the instrumented
    operator instances are discarded with the plan.

    With ``mode="columnar"`` and a vectorizable plan, the batch pipeline
    runs instead and every line carries per-operator batch/row counts; a
    non-vectorizable plan falls back to the row rendering, labelled with
    the fallback reason.  The trailing ``Executor:`` line always states
    which executor actually ran.
    """
    from repro.sqldb.recursive import execute_plan
    from repro.sqldb.vec_executor import vectorized_root

    executor_line = "Executor: row"
    if mode == "columnar":
        root, reason = vectorized_root(plan)
        if root is None:
            executor_line = f"Executor: row (columnar fallback: {reason})"
        else:
            return _explain_analyze_columnar(root, env)

    stats = {}
    for operator in _all_operators(plan):
        if id(operator) in stats:
            continue
        record = stats[id(operator)] = {"loops": 0, "rows": 0}
        original = operator.rows

        def counting_rows(env, _original=original, _record=record):
            _record["loops"] += 1
            for row in _original(env):
                _record["rows"] += 1
                yield row

        operator.rows = counting_rows

    rows = execute_plan(plan, env)

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
        return (
            f" ({prefix}loops={record['loops']} rows={record['rows']}{suffix})"
        )

    lines: List[str] = []
    for cte in plan.ctes:
        lines.extend(_explain_cte(cte, annotate))
    lines.extend(_explain_operator(plan.root, 0, annotate))
    lines.append(f"Execution: {len(rows)} row(s) returned")
    lines.append(executor_line)
    for name in ("rows_scanned", "index_probes", "subquery_executions"):
        lines.append(f"  {name}: {env.counters.get(name, 0)}")
    return lines


def _explain_analyze_columnar(root, env) -> List[str]:
    """Run the batch pipeline with per-operator counting shims."""
    from repro.sqldb.vec_executor import vec_execute

    stats = {}
    for operator in _vec_operators(root):
        if id(operator) in stats:
            continue
        record = stats[id(operator)] = {"loops": 0, "batches": 0, "rows": 0}
        original = operator.batches

        def counting_batches(env, _original=original, _record=record):
            _record["loops"] += 1
            for batch in _original(env):
                _record["batches"] += 1
                _record["rows"] += batch.length
                yield batch

        operator.batches = counting_batches

    rows = vec_execute(root, env)

    def annotate(operator) -> str:
        record = stats.get(id(operator))
        if record is None or record["loops"] == 0:
            return " (never executed)"
        return f" (batches={record['batches']} rows={record['rows']})"

    lines = _explain_vec_operator(root, 0, annotate)
    lines.append(f"Execution: {len(rows)} row(s) returned")
    lines.append("Executor: columnar")
    for name in (
        "rows_scanned",
        "index_probes",
        "subquery_executions",
        "vec_batches",
        "vec_rows",
    ):
        lines.append(f"  {name}: {env.counters.get(name, 0)}")
    return lines


def _vec_operators(root) -> List[object]:
    """Every vectorized operator instance under *root*."""
    operators: List[object] = []

    def walk(operator) -> None:
        operators.append(operator)
        for child in _vec_children(operator):
            walk(child)

    walk(root)
    return operators


def _vec_children(operator) -> List[object]:
    from repro.sqldb.vec_executor import VecOperator, VecUnionAll

    if isinstance(operator, VecUnionAll):
        return list(operator.children)
    children: List[object] = []
    for attribute in ("child", "left", "right"):
        value = getattr(operator, attribute, None)
        if isinstance(value, VecOperator):
            children.append(value)
    return children


def _vec_label(operator) -> str:
    from repro.sqldb import vec_executor as vec

    if isinstance(operator, vec.VecSeqScan):
        return f"VecSeqScan({operator.storage.schema.name})"
    if isinstance(operator, vec.VecRowsSource):
        return "VecValues"
    if isinstance(operator, vec.VecFilter):
        return "VecFilter"
    if isinstance(operator, vec.VecProject):
        return f"VecProject({', '.join(operator.output_names)})"
    if isinstance(operator, vec.VecHashJoin):
        return f"VecHashJoin({len(operator.left_kernels)} key(s))"
    if isinstance(operator, vec.VecAggregate):
        return (
            f"VecAggregate({len(operator.group_kernels)} group key(s), "
            f"{len(operator.aggregates)} aggregate(s))"
        )
    if isinstance(operator, vec.VecSort):
        return f"VecSort({len(operator.keys)} key(s))"
    if isinstance(operator, vec.VecDistinct):
        return "VecDistinct"
    if isinstance(operator, vec.VecUnionAll):
        return "VecUnionAll"
    if isinstance(operator, vec.VecLimit):
        return "VecLimit"
    if isinstance(operator, vec.VecOffset):
        return "VecOffset"
    return type(operator).__name__


def _explain_vec_operator(operator, depth: int, annotate) -> List[str]:
    lines = ["  " * depth + "-> " + _vec_label(operator) + annotate(operator)]
    for child in _vec_children(operator):
        lines.extend(_explain_vec_operator(child, depth + 1, annotate))
    return lines


def plan_operators(plan: Plan) -> List[Operator]:
    """Every operator instance in *plan*, CTE branches included.  Public
    so the static analyzer (:mod:`repro.analysis`) can inspect access
    paths without executing anything."""
    return _all_operators(plan)


def _all_operators(plan: Plan) -> List[Operator]:
    """Every operator instance in the plan, CTE branches included."""
    operators: List[Operator] = []

    def walk(operator: Operator) -> None:
        operators.append(operator)
        for child in _children(operator):
            walk(child)

    for cte in plan.ctes:
        for branch in list(cte.seed_plans) + list(cte.recursive_plans):
            walk(branch)
    walk(plan.root)
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


def _children(operator: Operator) -> List[Operator]:
    if isinstance(operator, SubplanOperator):
        return [operator.subquery.plan.root]
    if isinstance(operator, UnionAll):
        return list(operator.children)
    children: List[Operator] = []
    for attribute in ("child", "left", "right"):
        value = getattr(operator, attribute, None)
        if isinstance(value, Operator):
            children.append(value)
    return children


def _explain_operator(
    operator: Operator, depth: int, annotate=_no_annotation
) -> List[str]:
    lines = ["  " * depth + "-> " + _label(operator) + annotate(operator)]
    for child in _children(operator):
        lines.extend(_explain_operator(child, depth + 1, annotate))
    return lines
