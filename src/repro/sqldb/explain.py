"""Render physical plans as indented text (the ``EXPLAIN`` statement).

Useful for verifying the planner's access-path decisions — e.g. that the
recursive multi-level expand probes the ``link`` table through its hash
index instead of rescanning it per fixpoint iteration.
"""

from __future__ import annotations

from typing import List, Optional

from repro.sqldb.executor import Operator
from repro.sqldb.planner import Plan, PlannedCTE
from repro.sqldb.recursive import run_plan


def explain_plan(plan: Plan) -> List[str]:
    """Flatten a plan (CTE materialisations first, then the root tree)."""
    lines: List[str] = []
    for cte in plan.ctes:
        lines.extend(_explain_cte(cte))
    lines.extend(_explain_operator(plan.root, 0))
    return lines


def explain_analyze_plan(plan: Plan, env) -> List[str]:
    """Execute *plan* in *env* and render it with runtime statistics.

    The plan runs exactly as a plain execution would
    (:func:`~repro.sqldb.recursive.run_plan`).  Every operator's
    ``batches`` is wrapped with a per-instance counting shim before
    execution, so each rendered line carries the operator's invocation
    count (``loops``), the total rows it produced and the ``batches`` they
    came in; an operator the execution never pulled from is marked
    ``(never executed)``.  A pipeline runs as one loop, so it reports its
    source's counts and its top operator's; a stage inside it is marked
    ``(fused)``.  The plan must be freshly built — EXPLAIN
    ANALYZE statements bypass the plan cache, so the instrumented
    operator instances are discarded with the plan.
    """
    stats = {}
    for operator in plan_operators(plan):
        if id(operator) in stats:
            continue
        record = stats[id(operator)] = {"loops": 0, "batches": 0, "rows": 0}

        def counting(env, budget, _original=operator.batches, _record=record):
            _record["loops"] += 1
            for batch in _original(env, budget):
                _record["batches"] += 1
                _record["rows"] += len(batch)
                yield batch

        operator.batches = counting

    rows = run_plan(plan, env)

    def annotate(operator: Operator) -> str:
        estimate = _estimate(operator)
        prefix = "" if estimate is None else f"est_rows={estimate} "
        if operator.fused:
            return f" ({prefix}fused)"
        record = stats.get(id(operator))
        if record is None or record["loops"] == 0:
            return f" ({prefix}never executed)"
        suffix = ""
        key_run = env.probe_runs.get(id(operator))
        if key_run is not None:
            # The index probe priced its keys against a scan at run time.
            suffix = f" keys={key_run[0]} {'probed' if key_run[1] else 'scanned'}"
        return (
            f" ({prefix}loops={record['loops']} rows={record['rows']}{suffix})"
            f" (batches={record['batches']})"
        )

    lines: List[str] = []
    for cte in plan.ctes:
        lines.extend(_explain_cte(cte, annotate))
    lines.extend(_explain_operator(plan.root, 0, annotate))
    lines.append(f"Execution: {len(rows)} row(s) returned")
    for name in ("rows_scanned", "index_probes", "subquery_executions"):
        lines.append(f"  {name}: {env.counters.get(name, 0)}")
    return lines


def plan_operators(plan: Plan) -> List[Operator]:
    """Every operator instance in *plan*, CTE branches included, in the
    order EXPLAIN prints them.  Public so tests can inspect access paths
    without executing anything."""
    operators: List[Operator] = []
    for cte in plan.ctes:
        for branch in list(cte.seed_plans) + list(cte.recursive_plans):
            operators.extend(_subtree(branch))
    operators.extend(_subtree(plan.root))
    return operators


def _subtree(operator: Operator) -> List[Operator]:
    """*operator* and everything below it, in the order EXPLAIN prints."""
    operators = [operator]
    for child in operator.children:
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


def _explain_operator(
    operator: Operator, depth: int, annotate=_no_annotation
) -> List[str]:
    lines = ["  " * depth + "-> " + operator.label() + annotate(operator)]
    for child in operator.children:
        lines.extend(_explain_operator(child, depth + 1, annotate))
    return lines
