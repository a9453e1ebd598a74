"""Render physical plans as indented text (the ``EXPLAIN`` statement).

Useful for verifying the planner's access-path decisions — e.g. that the
recursive multi-level expand probes the ``link`` table through its hash
index instead of rescanning it per fixpoint iteration.
"""

from __future__ import annotations

from typing import List, Optional

from repro.sqldb import recursive
from repro.sqldb.executor import Operator
from repro.sqldb.planner import Plan, PlannedCTE


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
    (:func:`~repro.sqldb.recursive.run_plan`): on its operators'
    ``batches`` bodies when every one has them, on ``rows`` otherwise.

    Every operator's ``rows`` (or ``batches``) generator is wrapped with a
    per-instance counting shim before execution, so each rendered line
    carries the operator's invocation count (``loops``) and the total rows
    it produced — plus, on a vectorized plan, the ``batches`` they came
    in; an operator the execution never pulled from is marked ``(never
    executed)``.  The plan must be freshly built — EXPLAIN ANALYZE
    statements bypass the plan cache, so the instrumented operator
    instances are discarded with the plan.  The trailing ``Executor:``
    line states which bodies ran, and why when it is the row ones.
    """
    vectorized = recursive.batch_fallback(plan) is None
    pull = "batches" if vectorized else "rows"
    stats = {}
    for operator in plan_operators(plan):
        if id(operator) in stats:
            continue
        record = stats[id(operator)] = {"loops": 0, "pulls": 0, "rows": 0}

        def counting(env, _original=getattr(operator, pull), _record=record):
            _record["loops"] += 1
            for item in _original(env):
                _record["pulls"] += 1
                _record["rows"] += item.length if vectorized else 1
                yield item

        setattr(operator, pull, counting)

    rows = recursive.run_plan(plan, env)
    counters = ["rows_scanned", "index_probes", "subquery_executions"]
    if vectorized:
        counters += ["vec_batches", "vec_rows"]

    def annotate(operator: Operator) -> str:
        estimate = _estimate(operator)
        prefix = "" if estimate is None else f"est_rows={estimate} "
        record = stats.get(id(operator))
        if record is None or record["loops"] == 0:
            return f" ({prefix}never executed)"
        suffix = ""
        key_run = env.probe_runs.get(id(operator))
        if key_run is not None:
            # The index probe priced its keys against a scan at run time.
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
    lines.append(f"Executor: {env.executor}")
    for name in counters:
        lines.append(f"  {name}: {env.counters.get(name, 0)}")
    return lines


def plan_operators(plan: Plan) -> List[Operator]:
    """Every operator instance in *plan*, CTE branches included.  Public
    so the static analyzer (:mod:`repro.analysis`) can inspect access
    paths without executing anything."""
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
