"""Plans and the subplans an expression or a FROM clause runs.

A :class:`Plan` is what the planner hands the executor: CTEs to
materialise, then the root tree.  A subquery in an expression becomes a
:class:`CompiledSubquery` (EXISTS, IN-set and scalar access, cached per
execution when uncorrelated); a derived table or a view, a
:class:`SubplanOperator`.  An INSERT, UPDATE or DELETE is prepared once
as a :class:`_PreparedDml` that the database runs per parameter row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ExecutionError
from repro.sqldb import ast_nodes as ast
from repro.sqldb.executor import UNBOUNDED, ExecutionEnv, Operator, as_batches, plan_rows
from repro.sqldb.render import render_select


@dataclass
class PlannedCTE:
    """A planned common table expression ready for materialisation.

    For non-recursive CTEs ``seed_plans`` holds a single plan of the whole
    body.  For recursive CTEs the UNION branches are split into seeds and
    recursive branches; ``distinct`` records whether UNION (as opposed to
    UNION ALL) semantics apply across the fixpoint.
    """

    name: str
    columns: List[str]
    seed_plans: List[Operator] = field(default_factory=list)
    recursive_plans: List[Operator] = field(default_factory=list)
    recursive: bool = False
    distinct: bool = True


@dataclass
class Plan:
    """An executable query plan: CTEs to materialise, then the root tree."""

    root: Operator
    output_names: List[str]
    ctes: List[PlannedCTE] = field(default_factory=list)
    #: Base tables the statement reads (views expanded, CTE names
    #: excluded) — the footprint a lock manager covers with table-level
    #: shared locks.  Stored on the plan so the plan-cache fast path can
    #: lock without re-parsing.
    tables: Tuple[str, ...] = ()
    #: ``select_footprint(tables)`` — the lock requests themselves, built
    #: with the plan by :mod:`repro.concurrency.footprint` (the source the
    #: transaction analyzer shares) so that a cached plan re-acquires its
    #: locks without rebuilding them per execution.
    footprint: tuple = ()
    #: ``env.hidden`` when it runs: the literals of the text it serves.
    hidden: tuple = ()


_first = itemgetter(0)


class CompiledSubquery:
    """Runtime wrapper around a planned subquery expression.

    Provides the three access styles generated expressions call (EXISTS,
    IN-set, scalar).  Results of *uncorrelated* subqueries are cached in
    the execution environment, keyed by the cache epoch so that CTE
    rebinding (recursive fixpoint iterations) invalidates stale entries.
    The paper relies on exactly this behaviour: "an intelligent query
    optimizer will recognize that the inner clause needs to be evaluated
    only once, as it is an uncorrelated sub-query" (Section 5.3.1).
    """

    def __init__(self, plan: Plan, correlated: bool) -> None:
        self.plan = plan
        self.correlated = correlated

    # -- cache plumbing ----------------------------------------------------

    def _cached(self, env: ExecutionEnv, kind: str):
        if self.correlated:
            return None
        hit = env.subquery_cache.get((id(self), kind))
        if hit is not None and hit[0] == env.cache_epoch:
            return hit
        return None

    def _store(self, env: ExecutionEnv, kind: str, value) -> None:
        if self.correlated:
            return
        env.subquery_cache[(id(self), kind)] = (env.cache_epoch, value)

    def _enter(self, row, env: ExecutionEnv) -> Dict[str, object]:
        env.counters["subquery_executions"] += 1
        env.outer_rows.append(row)
        saved: Dict[str, object] = {}
        for cte in self.plan.ctes:
            key = cte.name.lower()
            saved[key] = env.cte_frames.get(key)
        from repro.sqldb.recursive import materialize_cte

        for cte in self.plan.ctes:
            materialize_cte(cte, env)
        return saved

    def _exit(self, env: ExecutionEnv, saved: Dict[str, object]) -> None:
        for key, frame in saved.items():
            if frame is None:
                env.cte_frames.pop(key, None)
            else:
                env.cte_frames[key] = frame
        if saved:
            env.cache_epoch += 1
        env.outer_rows.pop()

    # -- access styles -----------------------------------------------------

    def exists(self, row, env: ExecutionEnv) -> bool:
        """True if the subquery yields at least one row (a budget of one)."""
        hit = self._cached(env, "exists")
        if hit is not None:
            return hit[1]
        saved = self._enter(row, env)
        try:
            result = next(iter(self.plan.root.batches(env, 1)), None) is not None
        finally:
            self._exit(env, saved)
        self._store(env, "exists", result)
        return result

    def value_set(self, row, env: ExecutionEnv):
        """Return ``(distinct non-NULL first-column values, has_null)``.

        The values are the keys of a dict, i.e. a set that iterates in
        first-seen order of the subquery's rows: membership tests cost the
        same, and an index probe per value (:class:`IndexLookup`)
        yields rows in an order independent of hash layout.
        """
        hit = self._cached(env, "value_set")
        if hit is not None:
            return hit[1]
        if len(self.plan.output_names) != 1:
            raise ExecutionError("IN subquery must return exactly one column")
        saved = self._enter(row, env)
        try:
            values: Dict[object, None] = {}
            for batch in self.plan.root.batches(env, UNBOUNDED):
                values.update(dict.fromkeys(map(_first, batch)))
        finally:
            self._exit(env, saved)
        has_null = None in values
        values.pop(None, None)
        payload = (values, has_null)
        self._store(env, "value_set", payload)
        return payload

    def scalar(self, row, env: ExecutionEnv):
        """Return the single value of the subquery (NULL when empty); a
        budget of two rows shows a second one."""
        hit = self._cached(env, "scalar")
        if hit is not None:
            return hit[1]
        if len(self.plan.output_names) != 1:
            raise ExecutionError("scalar subquery must return exactly one column")
        saved = self._enter(row, env)
        try:
            found: List[tuple] = []
            for batch in self.plan.root.batches(env, 2):
                found += batch
                if len(found) > 1:
                    raise ExecutionError("scalar subquery returned more than one row")
        finally:
            self._exit(env, saved)
        value = found[0][0] if found else None
        self._store(env, "scalar", value)
        return value

    def rows(self, row, env: ExecutionEnv) -> List[tuple]:
        """Materialise all rows (used by derived tables and tests)."""
        saved = self._enter(row, env)
        try:
            return plan_rows(self.plan.root, env)
        finally:
            self._exit(env, saved)


class SubplanOperator(Operator):
    """Operator adapter running a full :class:`Plan` (derived tables)."""

    def __init__(self, plan: Plan) -> None:
        super().__init__(plan.output_names, plan.root)
        self.subquery = CompiledSubquery(plan, correlated=True)

    def label(self) -> str:
        return "Subplan"

    def batches(self, env: ExecutionEnv, budget: int):
        # Materialised whole while an empty outer row is pushed (derived
        # tables see no outer row), so the outer-row stack is back to its
        # depth before any row reaches the consumer.
        return as_batches(self.subquery.rows((), env), budget)


def _subquery_key(statement: ast.SelectStatement) -> object:
    """Identity of a subquery for sharing inside one SELECT core: its
    rendered text (case-sensitive — string literals matter).  Parameters
    all render as ``?`` whatever their position, so a text containing one
    identifies only its own AST node."""
    text = render_select(statement)
    return id(statement) if "?" in text else text


@dataclass
class _PreparedDml:
    """A parsed INSERT/UPDATE/DELETE with everything about it that does
    not depend on parameter values, built once per statement text and kept
    in the plan cache beside SELECT plans."""

    statement: Any
    #: Catalog entry of the target table.
    entry: Any
    #: The static lock footprint (:mod:`repro.concurrency.footprint`).
    requests: tuple


@dataclass
class _PreparedInsert(_PreparedDml):
    #: ``convert(parameter rows, out)`` (:func:`expressions.row_converter`).
    convert: Callable[[Iterable[Sequence[Any]], List[tuple]], None]
    #: Values per row.
    width: int
    #: VALUES rows per statement; 0 for INSERT ... SELECT, whose every
    #: row is one statement's.
    rows_per_statement: int
    #: INSERT ... SELECT: the source query's plan (None for VALUES).
    select: Optional[Plan]


@dataclass
class _PreparedModify(_PreparedDml):
    """An UPDATE or DELETE."""

    #: The target-row access plan; its root answers ``row_ids``.
    plan: Plan
    #: UPDATE: ``(column position, closure over the pre-update row,
    #: converter)`` per SET clause; empty for DELETE.
    assignments: List[Tuple[int, Any, Callable[[Any], Any]]]
