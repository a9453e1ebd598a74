"""Semi-naive evaluation of ``WITH RECURSIVE`` common table expressions.

SQL:1999 linear recursion semantics: the non-recursive (seed) branches
initialise the working table; each iteration evaluates the recursive
branches with the CTE name bound to the *delta* of the previous iteration
(not the accumulated result), and appends the rows produced.  With UNION
(distinct) semantics, rows already in the accumulated result are dropped
and the fixpoint is reached when an iteration contributes nothing new;
with UNION ALL a growth limit guards against non-terminating recursion
over cyclic data.

This is the engine feature the whole paper hinges on: "with recursive SQL
(as defined in the SQL:1999 standard) we are able to collect all nodes of
a recursively defined object tree in one query" (Section 5.2).
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import ExecutionError
from repro.obs import maybe_span
from repro.sqldb.executor import CTEFrame, ExecutionEnv
from repro.sqldb.planner import Plan, PlannedCTE

#: Safety bound on fixpoint rounds; a δ=9 product tree needs 9.
MAX_ITERATIONS = 10_000


def _limit_error(planned: PlannedCTE, limit: int) -> ExecutionError:
    return ExecutionError(
        f"recursive CTE {planned.name!r} produced more than "
        f"{limit} rows; aborting (cyclic data with "
        f"UNION ALL?)"
    )


def materialize_cte(planned: PlannedCTE, env: ExecutionEnv) -> CTEFrame:
    """Materialise *planned* into *env* and return the final frame.

    The recursion limit is enforced *inside* the row-append loops (and
    the branches are iterated lazily), so a runaway round over cyclic
    data aborts as soon as the accumulated result crosses the limit —
    it never first materialises an unboundedly large round in memory.
    """
    if not planned.recursive:
        # One operator tree — CTE bodies cannot carry their own WITH
        # clauses in this dialect.
        rows = list(planned.seed_plans[0].rows(env))
        frame = CTEFrame(columns=list(planned.columns), rows=rows)
        env.bind_cte(planned.name, frame)
        return frame
    seminaive = env.enable_seminaive
    if not seminaive and not planned.distinct:
        raise ExecutionError(
            "naive fixpoint evaluation requires UNION (distinct) semantics"
        )
    limit = env.recursion_limit
    seen = set()
    accumulated: List[tuple] = []
    delta: List[tuple] = []
    for plan in planned.seed_plans:
        for row in plan.rows(env):
            if planned.distinct:
                if row in seen:
                    continue
                seen.add(row)
            accumulated.append(row)
            if len(accumulated) > limit:
                raise _limit_error(planned, limit)
            delta.append(row)
    iterations = 0
    while delta:
        iterations += 1
        if iterations > MAX_ITERATIONS:
            raise ExecutionError(
                f"recursive CTE {planned.name!r} exceeded "
                f"{MAX_ITERATIONS} iterations"
            )
        # Semi-naive: the recursive branches see only last round's new
        # rows.  Naive (the ablation baseline): they re-see everything
        # accumulated so far, redoing all previous rounds' join work.
        working = delta if seminaive else accumulated
        env.bind_cte(
            planned.name,
            CTEFrame(columns=list(planned.columns), rows=list(working)),
        )
        next_delta: List[tuple] = []
        with maybe_span(
            env.recorder,
            "cte.fixpoint_round",
            kind="executor",
            cte=planned.name,
            round=iterations,
            delta_in=len(working),
        ) as span:
            for plan in planned.recursive_plans:
                for row in plan.rows(env):
                    if planned.distinct:
                        if row in seen:
                            continue
                        seen.add(row)
                    accumulated.append(row)
                    if len(accumulated) > limit:
                        raise _limit_error(planned, limit)
                    next_delta.append(row)
            if span is not None:
                span.meta["delta_out"] = len(next_delta)
        delta = next_delta
    frame = CTEFrame(columns=list(planned.columns), rows=accumulated)
    env.bind_cte(planned.name, frame)
    return frame


def batch_fallback(plan: Plan) -> Optional[str]:
    """Why *plan* runs on its operators' ``rows`` bodies, or None when it
    runs on ``batches``.

    The plan decides, and it decides whole: every operator has a batch
    body or none is used — never a mix at operator granularity — so
    semantics stay single-sourced.  Both answers were settled when the
    plan was built.
    """
    if plan.ctes:
        return "plan materialises CTEs"
    return plan.root.fallback


def run_plan(plan: Plan, env: ExecutionEnv) -> List[tuple]:
    """Execute a full statement plan: CTEs first, then the root tree.

    ``env.executor`` says which bodies ran (what ``Database.last_executor``
    reports); it is set before the first row is pulled, so a statement
    that fails part-way still says what it failed on.
    """
    reason = batch_fallback(plan)
    if reason is None:
        env.executor = "columnar"
        rows: List[tuple] = []
        for batch in plan.root.batches(env):
            rows.extend(batch.rows())
        return rows
    env.executor = f"row (columnar fallback: {reason})"
    for planned in plan.ctes:
        materialize_cte(planned, env)
    return list(plan.root.rows(env))
