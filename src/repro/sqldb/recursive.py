"""Semi-naive evaluation of ``WITH RECURSIVE`` common table expressions.

SQL:1999 linear recursion semantics: the non-recursive (seed) branches
initialise the working table; each iteration evaluates the recursive
branches with the CTE name bound to the *delta* of the previous iteration
(not the accumulated result), and appends the rows produced.  With UNION
(distinct) semantics, rows already in the accumulated result are dropped
and the fixpoint is reached when an iteration contributes nothing new;
with UNION ALL a growth limit guards against non-terminating recursion
over cyclic data.

Every branch runs on its operators' ``batches`` like any plan, under a
budget of the rows the limit still allows plus one, so a runaway round
stops where the limit is crossed.

This is the engine feature the whole paper hinges on: "with recursive SQL
(as defined in the SQL:1999 standard) we are able to collect all nodes of
a recursively defined object tree in one query" (Section 5.2).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.errors import ExecutionError
from repro.obs import maybe_span
from repro.sqldb.columnar import Batch
from repro.sqldb.executor import ExecutionEnv, Operator, plan_rows
from repro.sqldb.planner import Plan, PlannedCTE

#: Safety bound on fixpoint rounds; a δ=9 product tree needs 9.
MAX_ITERATIONS = 10_000

#: Rows a recursive CTE may accumulate before it aborts.
RECURSION_LIMIT = 1_000_000


def _limit_error(planned: PlannedCTE, limit: int) -> ExecutionError:
    return ExecutionError(
        f"recursive CTE {planned.name!r} produced more than "
        f"{limit} rows; aborting (cyclic data with "
        f"UNION ALL?)"
    )


def materialize_cte(planned: PlannedCTE, env: ExecutionEnv) -> Batch:
    """Materialise *planned* into *env* and return the final frame.

    The recursion limit is enforced after every batch a branch yields, and
    each branch runs under a budget of ``limit - len(accumulated) + 1``
    rows, so a runaway round over cyclic data aborts as soon as the
    accumulated result crosses the limit — it never first materialises
    (or evaluates the select list of) an unboundedly large round.
    """
    if not planned.recursive:
        # One operator tree — CTE bodies cannot carry their own WITH
        # clauses in this dialect.
        frame = Batch(plan_rows(planned.seed_plans[0], env))
        env.bind_cte(planned.name, frame)
        return frame
    limit = RECURSION_LIMIT
    seen: set = set()
    accumulated: List[tuple] = []

    def run(branches: Sequence[Operator]) -> List[tuple]:
        """The branches' rows new to *accumulated*, appended to it."""
        fresh: List[tuple] = []
        for branch in branches:
            for batch in branch.batches(env, limit - len(accumulated) + 1):
                rows = batch
                if planned.distinct:
                    rows = []
                    for row in batch:
                        if row not in seen:
                            seen.add(row)
                            rows.append(row)
                accumulated.extend(rows)
                if len(accumulated) > limit:
                    raise _limit_error(planned, limit)
                fresh.extend(rows)
        return fresh

    delta = run(planned.seed_plans)
    iterations = 0
    while delta:
        iterations += 1
        if iterations > MAX_ITERATIONS:
            raise ExecutionError(
                f"recursive CTE {planned.name!r} exceeded "
                f"{MAX_ITERATIONS} iterations"
            )
        # Semi-naive: the recursive branches see only last round's new rows.
        env.bind_cte(planned.name, Batch(delta))
        with maybe_span(
            env.recorder,
            "cte.fixpoint_round",
            kind="executor",
            cte=planned.name,
            round=iterations,
            delta_in=len(delta),
        ) as span:
            delta = run(planned.recursive_plans)
            if span is not None:
                span.meta["delta_out"] = len(delta)
    frame = Batch(accumulated)
    env.bind_cte(planned.name, frame)
    return frame


def run_plan(plan: Plan, env: ExecutionEnv) -> List[tuple]:
    """Execute a full statement plan: CTEs first, then the root tree."""
    for planned in plan.ctes:
        materialize_cte(planned, env)
    return plan_rows(plan.root, env)
