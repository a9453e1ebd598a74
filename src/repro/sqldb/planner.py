"""Translate SQL ASTs into operator trees.

The planner implements the paper's three access-path decisions:

1. **Index lookups** for ``WHERE col = <independent expr>`` on the driving
   base table of a core (the navigational child fetch), including multi-key
   probes for ``IN``-lists and for uncorrelated ``IN (subquery)`` predicates
   (the outer ``link`` block of the recursive expand, driven from the
   subquery side).
2. **Index nested-loop joins** when the next table of a join graph is a
   base table with a hash index on an equi-join key (the recursive branch
   of the multi-level expand, and the ∃structure EXISTS probes).
3. **Hash joins** over the next table's filtered access path for the
   other equi-joins; nested loops otherwise.

The INNER joins and comma items of one SELECT core form one *join
graph*: their ON conjuncts and the WHERE conjuncts are one pool, every
cross-table equality of which is a join key.  A LEFT JOIN is a barrier
planned in its written place.  Choices run in one of two regimes:

* **No statistics** (the table was never ``ANALYZE``-d): deterministic
  rules — the written order; among matching index probes, unique-index
  probes first, then WHERE-clause order; an index join before a hash
  join.
* **With statistics** (:mod:`repro.sqldb.stats`): every candidate probe is
  priced against the sequential scan with the stats-backed cost model,
  single-table conjuncts are filtered directly over their table's access
  path, a graph of base tables is greedily ordered by estimated
  cardinality (deterministic tie-break on the written order), each join
  prices an index join against a hash join, and every operator carries an
  ``est_rows`` estimate that ``EXPLAIN`` renders beside the actual counts.

The full WHERE predicate is always kept as the residual filter above the
graph, and each ON conjunct is evaluated by the join that first holds its
tables, so a missed or partial optimisation can never change results —
only speed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from repro.errors import ExecutionError, ParseError, SQLError
from repro.sqldb import ast_nodes as ast
from repro.sqldb.executor import (
    Aggregate,
    AggregateSpec,
    CTEScan,
    Distinct,
    ExecutionEnv,
    Filter,
    HashJoin,
    IndexLookup,
    IndexNestedLoopJoin,
    Limit,
    MultiKeyIndexLookup,
    NestedLoopJoin,
    Offset,
    Operator,
    Project,
    RowsSource,
    SeqScan,
    SetDifference,
    SetIntersection,
    Sort,
    UNBOUNDED,
    UnionAll,
    as_batches,
    plan_rows,
)
from repro.sqldb.ast_walk import (
    SUBQUERY_NODES as _SUBQUERY_NODES,
    branch_aggregates as _branch_aggregates,
    core_predicates as _core_predicates,
    core_references as _core_references,
    count_table_refs as _count_table_refs,
    flatten_set_operations as _flatten_set_operations,
    negates_cte as _negates_cte,
    split_conjuncts as _split_conjuncts,
)
from repro.sqldb.expressions import (
    CompileContext,
    Frame,
    Scope,
    SlotRef,
    UnresolvedColumnError,
    COLUMNS,
    KEYS,
    PREDICATE,
    TUPLES,
    VALUE,
    compile_expression,
    conjunction,
    contains_aggregate,
    lower,
    program,
    slot,
)
from repro.sqldb.functions import AGGREGATE_NAMES, FunctionRegistry
from repro.sqldb.render import expression_key, render_select
from repro.sqldb.schema import Catalog
from repro.sqldb import stats as table_stats_mod


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
        same, and an index probe per value (:class:`MultiKeyIndexLookup`)
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


class Planner:
    """Plans one statement; child planners are spawned for subqueries."""

    def __init__(
        self,
        catalog: Catalog,
        functions: FunctionRegistry,
        cte_columns: Optional[Dict[str, List[str]]] = None,
        views: Optional[Dict[str, "object"]] = None,
        expanding_views: Optional[set] = None,
        stats: Optional[table_stats_mod.StatsCatalog] = None,
    ) -> None:
        self.catalog = catalog
        self.functions = functions
        self.cte_columns: Dict[str, List[str]] = dict(cte_columns or {})
        #: name (lower) -> ast.CreateView; shared with the owning Database.
        self.views: Dict[str, object] = views if views is not None else {}
        #: Views currently being expanded (cycle detection).
        self._expanding_views: set = (
            expanding_views if expanding_views is not None else set()
        )
        #: ANALYZE-collected statistics (shared with the owning Database);
        #: None keeps planning purely rule-based.
        self.stats = stats
        #: Uncorrelated subqueries of the SELECT core being planned, by
        #: :meth:`_subquery_key` (None outside a core): textually identical
        #: ones are planned — hence evaluated — once per execution.
        self._core_subqueries: Optional[Dict[object, CompiledSubquery]] = None

    # -- public entry points -------------------------------------------------

    def plan_select(
        self, statement: ast.SelectStatement, frames: Optional[List[Frame]] = None
    ) -> Plan:
        """Plan a SELECT statement (including its WITH clause)."""
        if frames is None:
            frames = [Frame(None)]
        planned_ctes: List[PlannedCTE] = []
        if statement.with_clause is not None:
            for cte in statement.with_clause.ctes:
                planned = self._plan_cte(
                    cte, statement.with_clause.recursive, frames
                )
                planned_ctes.append(planned)
                self.cte_columns[cte.name.lower()] = planned.columns
        root = self._plan_body(statement.body, frames)
        output_names = list(root.output_names)
        if statement.order_by:
            try:
                root = self._plan_order_by(root, statement.order_by, frames)
            except UnresolvedColumnError:
                # SQL resolves ORDER BY keys against the underlying FROM
                # scope too ("hidden" sort columns): re-plan the core with
                # the keys appended, sort, then strip them again.
                root = self._plan_order_by_hidden(statement, root, frames)
        if statement.offset is not None:
            offset_fn = self._compile_scalar(statement.offset, frames)
            root = Offset(root, offset_fn)
        if statement.limit is not None:
            limit_fn = self._compile_scalar(statement.limit, frames)
            root = Limit(root, limit_fn)
        for planned in planned_ctes:
            for branch in planned.seed_plans + planned.recursive_plans:
                _finalize_estimates(branch)
        _finalize_estimates(root)
        return Plan(root=root, output_names=output_names, ctes=planned_ctes)

    # -- WITH clause -----------------------------------------------------------

    def _plan_cte(
        self, cte: ast.CommonTableExpr, recursive_allowed: bool, frames: List[Frame]
    ) -> PlannedCTE:
        branches, operators = _flatten_set_operations(cte.body)
        self_referencing = [
            branch for branch in branches if _core_references(branch, cte.name)
        ]
        if not self_referencing:
            plan = self._plan_body(cte.body, frames)
            columns = cte.columns or list(plan.output_names)
            if cte.columns and len(cte.columns) != len(plan.output_names):
                raise ParseError(
                    f"CTE {cte.name!r} declares {len(cte.columns)} columns but "
                    f"its body produces {len(plan.output_names)}"
                )
            return PlannedCTE(
                name=cte.name, columns=columns, seed_plans=[plan], recursive=False
            )
        if not recursive_allowed:
            raise ParseError(
                f"CTE {cte.name!r} references itself but WITH is not RECURSIVE"
            )
        if any(op not in ("UNION", "UNION ALL") for op in operators):
            raise ParseError(
                f"recursive CTE {cte.name!r} may combine its branches only "
                f"with UNION / UNION ALL"
            )
        for branch in self_referencing:
            _check_fixpoint_branch(branch, cte.name)
        seeds = [b for b in branches if not _core_references(b, cte.name)]
        if not seeds:
            raise ParseError(
                f"recursive CTE {cte.name!r} has no non-recursive seed branch"
            )
        seed_plans = [self._plan_body(branch, frames) for branch in seeds]
        columns = cte.columns or list(seed_plans[0].output_names)
        for plan in seed_plans:
            if len(plan.output_names) != len(columns):
                raise ParseError(
                    f"branches of recursive CTE {cte.name!r} disagree on arity"
                )
        # The recursive branches may reference the CTE: register it first.
        self.cte_columns[cte.name.lower()] = columns
        recursive_plans = []
        for branch in self_referencing:
            plan = self._plan_body(branch, frames)
            if len(plan.output_names) != len(columns):
                raise ParseError(
                    f"branches of recursive CTE {cte.name!r} disagree on arity"
                )
            recursive_plans.append(plan)
        distinct = any(op == "UNION" for op in operators)
        return PlannedCTE(
            name=cte.name,
            columns=columns,
            seed_plans=seed_plans,
            recursive_plans=recursive_plans,
            recursive=True,
            distinct=distinct,
        )

    # -- query bodies ------------------------------------------------------------

    def _plan_body(
        self, body: Union[ast.SelectCore, ast.SetOperation], frames: List[Frame]
    ) -> Operator:
        if isinstance(body, ast.SelectCore):
            return self._plan_core(body, frames)
        left = self._plan_body(body.left, frames)
        right = self._plan_body(body.right, frames)
        if len(left.output_names) != len(right.output_names):
            raise ParseError(
                f"{body.operator} operands have different numbers of columns "
                f"({len(left.output_names)} vs {len(right.output_names)})"
            )
        if body.operator == "UNION ALL":
            return UnionAll([left, right])
        if body.operator == "UNION":
            return Distinct(UnionAll([left, right]))
        if body.operator == "EXCEPT":
            return SetDifference(left, right)
        if body.operator == "INTERSECT":
            return SetIntersection(left, right)
        raise ParseError(f"unknown set operator {body.operator!r}")

    def _plan_core(self, core: ast.SelectCore, frames: List[Frame]) -> Operator:
        frame = frames[-1]
        saved_scope = frame.scope
        saved_subqueries = self._core_subqueries
        frame.scope = None
        self._core_subqueries = {}
        try:
            where_conjuncts = _split_conjuncts(core.where)
            binding_stats: table_stats_mod.BindingStats = {}
            consumed: set = set()
            source, bindings = self._plan_from(
                core.from_items, frames, where_conjuncts, binding_stats, consumed
            )
            scope = Scope(bindings)
            frame.scope = scope
            ctx = self._context(frames)
            operator = self._filtered(
                source, core.where, where_conjuncts, consumed, binding_stats, ctx
            )
            needs_aggregate = bool(core.group_by) or any(
                contains_aggregate(item.expression)
                for item in core.items
                if isinstance(item, ast.SelectItem)
            )
            if core.having is not None and contains_aggregate(core.having):
                needs_aggregate = True
            if needs_aggregate:
                operator = self._plan_aggregate(core, operator, frames)
            else:
                if core.having is not None:
                    raise ParseError("HAVING requires GROUP BY or aggregates")
                operator = self._plan_projection(core.items, operator, scope, frames)
            if core.distinct:
                operator = Distinct(operator)
            return operator
        finally:
            frame.scope = saved_scope
            self._core_subqueries = saved_subqueries

    def _filtered(
        self,
        source: Operator,
        where: Optional[ast.Expression],
        where_conjuncts: List[ast.Expression],
        consumed: set,
        binding_stats: table_stats_mod.BindingStats,
        ctx: CompileContext,
    ) -> Operator:
        """*source* under the whole WHERE clause as residual filter."""
        if where is None:
            return source
        operator = Filter(source, program([lower(where, ctx)], PREDICATE))
        source_est = getattr(source, "est_rows", None)
        if source_est is not None:
            # Conjuncts already folded into an index probe must not be
            # priced a second time here.
            residual = [
                conjunct
                for conjunct in where_conjuncts
                if id(conjunct) not in consumed
            ]
            operator.est_rows = source_est * table_stats_mod.condition_selectivity(
                residual, binding_stats
            )
        return operator

    def plan_dml_target(
        self,
        entry,
        where: Optional[ast.Expression],
        assignments: Sequence[ast.Expression] = (),
    ) -> Tuple[Plan, List]:
        """Plan the rows an UPDATE/DELETE on *entry*'s table touches.

        The target is the driving (and only) table of a one-table core, so
        it gets the same access paths and the same pricing as a SELECT
        would, with the whole WHERE as residual filter; the plan's root
        answers :meth:`Operator.row_ids`.  *assignments* (the SET values)
        compile against the same scope and are returned as closures over
        the pre-update row.
        """
        frame = Frame(None)
        frames = [frame]
        self._core_subqueries = {}
        where_conjuncts = _split_conjuncts(where)
        binding_stats: table_stats_mod.BindingStats = {}
        consumed: set = set()
        source, bindings = self._plan_base_table(
            entry,
            entry.schema.name,
            frames,
            where_conjuncts,
            binding_stats,
            consumed,
        )
        frame.scope = Scope(bindings)
        ctx = self._context(frames)
        root = self._filtered(
            source, where, where_conjuncts, consumed, binding_stats, ctx
        )
        closures = [compile_expression(value, ctx) for value in assignments]
        return Plan(root=root, output_names=list(root.output_names)), closures

    # -- FROM clause ------------------------------------------------------------

    def _plan_from(
        self,
        from_items: Sequence[ast.FromItem],
        frames: List[Frame],
        where_conjuncts: List[ast.Expression],
        binding_stats: table_stats_mod.BindingStats,
        consumed: set,
        driving: Optional[List[ast.Expression]] = None,
    ) -> Tuple[Operator, List[Tuple[Optional[str], List[str]]]]:
        """Plan a FROM clause as one join graph.

        The comma items and every INNER / CROSS join below them are the
        graph's leaves, their ON conjuncts and *where_conjuncts* its
        predicate pool; a LEFT JOIN is one leaf, planned as a graph of two
        (:meth:`_plan_left_join`).  *driving* (default: the WHERE
        conjuncts) are what the first leaf may turn into an index probe.
        A single leaf is planned alone, exactly as before.
        """
        if not from_items:
            return RowsSource([], [()]), []
        if driving is None:
            driving = where_conjuncts
        if len(from_items) == 1 and not _inner_join(from_items[0]):
            return self._plan_from_item(
                from_items[0], frames, driving, binding_stats, consumed
            )
        leaves: List[_Leaf] = []
        conjuncts: List[_Conjunct] = []
        for item in from_items:
            _flatten_inner(item, leaves, conjuncts)
        everything = range(len(leaves))
        conjuncts.extend(
            _Conjunct(conjunct, everything, on=False) for conjunct in where_conjuncts
        )
        return self._plan_graph(
            _JoinGraph(leaves, conjuncts, "INNER"),
            frames,
            driving,
            binding_stats,
            consumed,
        )

    def _plan_left_join(
        self,
        join: ast.Join,
        frames: List[Frame],
        driving: List[ast.Expression],
        binding_stats: table_stats_mod.BindingStats,
        consumed: set,
    ) -> Tuple[Operator, List[Tuple[Optional[str], List[str]]]]:
        """A LEFT JOIN is a barrier: its preserved side is a join graph of
        its own (whose first leaf may still take *driving* as its access
        path), nothing is pushed into its null-extended side, and the two
        are joined in their written order."""
        left_op, left_bindings = self._plan_from(
            [join.left], frames, [], binding_stats, consumed, driving
        )
        both = range(2)
        graph = _JoinGraph(
            [_Leaf(None, left_op, left_bindings), _Leaf(join.right)],
            [
                _Conjunct(conjunct, both, on=True)
                for conjunct in _split_conjuncts(join.condition)
            ],
            "LEFT",
        )
        return self._plan_graph(graph, frames, [], binding_stats, consumed)

    def _plan_graph(
        self,
        graph: "_JoinGraph",
        frames: List[Frame],
        driving: List[ast.Expression],
        binding_stats: table_stats_mod.BindingStats,
        consumed: set,
    ) -> Tuple[Operator, List[Tuple[Optional[str], List[str]]]]:
        """Plan the leaves, push single-table conjuncts onto the base
        tables with statistics, order the leaves (:meth:`_join_order`),
        join them one at a time (:meth:`_join`), and restore the written
        column order with a projection when the order moved."""
        leaves = graph.leaves
        for position, leaf in enumerate(leaves):
            if leaf.operator is not None:
                continue
            leaf.entry = self._base_entry(leaf.item)
            if leaf.entry is None:
                leaf.operator, leaf.bindings = self._plan_from_item(
                    leaf.item,
                    frames,
                    driving if position == 0 else [],
                    binding_stats,
                    consumed,
                )
                continue
            binding = leaf.item.binding_name
            leaf.stats = self._table_stats(leaf.entry.schema.name)
            leaf.bindings = [(binding, list(leaf.entry.schema.column_names))]
            binding_stats[binding.lower()] = leaf.stats
        for conjunct in graph.conjuncts:
            conjunct.refs = graph.refs(conjunct.expression, conjunct.visible)
            if graph.kind != "INNER" or len(conjunct.refs) != 1:
                continue
            leaf = leaves[next(iter(conjunct.refs))]
            if leaf.stats is not None and _pushable(conjunct.expression):
                leaf.pushed.append(conjunct)
                conjunct.applied = True
                consumed.add(id(conjunct.expression))
        order = self._join_order(graph)
        operator: Optional[Operator] = None
        joined: List[int] = []
        for index in order:
            leaf = leaves[index]
            if leaf.operator is None:
                leaf.operator = self._plan_base_leaf(
                    leaf, frames, [] if joined else driving, binding_stats, consumed
                )
            if operator is None:
                operator = leaf.operator
            else:
                operator = self._join(
                    graph, operator, joined, index, frames, binding_stats, consumed
                )
            joined.append(index)
        bindings = [binding for leaf in leaves for binding in leaf.bindings]
        if order == sorted(order):
            return operator, bindings
        # Restore the written column order: a column pass per slot, and a
        # batch passes through untouched when nothing moved.
        starts: Dict[int, int] = {}
        offset = 0
        for index in order:
            starts[index] = offset
            offset += sum(len(columns) for __, columns in leaves[index].bindings)
        ctx = self._context(frames)
        exprs = [
            slot(starts[index] + position)
            for index in range(len(leaves))
            for position in range(
                sum(len(columns) for __, columns in leaves[index].bindings)
            )
        ]
        names = [column for __, columns in bindings for column in columns]
        project = Project(operator, program(exprs, TUPLES), names)
        est = getattr(operator, "est_rows", None)
        if est is not None:
            project.est_rows = est
        return project, bindings

    def _base_entry(self, item: Optional[ast.FromItem]):
        """The catalog entry of a FROM item naming a base table (None for
        CTEs, views, derived tables and joins)."""
        if not isinstance(item, ast.TableRef):
            return None
        key = item.name.lower()
        if key in self.cte_columns or key in self.views:
            return None
        return self.catalog.lookup(item.name)

    def _plan_base_leaf(
        self,
        leaf: "_Leaf",
        frames: List[Frame],
        driving: List[ast.Expression],
        binding_stats: table_stats_mod.BindingStats,
        consumed: set,
    ) -> Operator:
        """A base-table leaf: the cheapest access path over *driving* and
        its pushed conjuncts, under a filter of the pushed conjuncts."""
        pushed = [conjunct.expression for conjunct in leaf.pushed]
        access = list(driving) + [
            expression
            for expression in pushed
            if not any(expression is other for other in driving)
        ]
        binding = leaf.item.binding_name
        probed: set = set()
        operator, __ = self._plan_base_table(
            leaf.entry, binding, frames, access, binding_stats, probed
        )
        consumed |= probed
        leaf.access_rows = getattr(operator, "est_rows", None)
        if not pushed:
            return operator
        predicate = pushed[0]
        for expression in pushed[1:]:
            predicate = ast.BinaryOp("AND", predicate, expression)
        filtered = Filter(
            operator,
            program([self._lower_in(predicate, Scope(leaf.bindings), frames)], PREDICATE),
        )
        if leaf.access_rows is not None:
            filtered.est_rows = leaf.access_rows * table_stats_mod.condition_selectivity(
                [e for e in pushed if id(e) not in probed],
                {binding.lower(): leaf.stats},
            )
        return filtered

    def _join_order(self, graph: "_JoinGraph") -> List[int]:
        """Greedy cost-based order of an INNER graph's leaves.

        Applies only when every leaf is a base table with collected
        statistics (and binding names are distinct); otherwise the written
        order is kept.  Start from the leaf with the smallest estimated
        filtered cardinality (its pushed conjuncts), then repeatedly append
        the leaf minimising the estimated intermediate result through the
        pool's equi-join predicates.  Ties keep the written order, so the
        plan is deterministic for a given catalog + statistics state.
        """
        leaves = graph.leaves
        identity = list(range(len(leaves)))
        if graph.kind != "INNER" or any(leaf.stats is None for leaf in leaves):
            return identity
        groups = [
            {leaf.item.binding_name.lower(): leaf.stats} for leaf in leaves
        ]
        if len({name for group in groups for name in group}) != len(leaves):
            return identity  # duplicate binding names: keep the written order
        filtered = [
            leaf.stats.row_count
            * table_stats_mod.condition_selectivity(
                [conjunct.expression for conjunct in leaf.pushed], group
            )
            for leaf, group in zip(leaves, groups)
        ]
        remaining = identity[:]
        start = min(remaining, key=lambda position: (filtered[position], position))
        order = [start]
        remaining.remove(start)
        cardinality = filtered[start]
        included: Dict[str, table_stats_mod.TableStats] = dict(groups[start])
        while remaining:
            best = remaining[0]
            best_cardinality: Optional[float] = None
            for position in remaining:
                selectivity = 1.0
                for conjunct in graph.conjuncts:
                    join_sel = table_stats_mod.join_selectivity(
                        conjunct.expression, included, groups[position]
                    )
                    if join_sel is not None:
                        selectivity *= join_sel
                candidate = cardinality * filtered[position] * selectivity
                if best_cardinality is None or candidate < best_cardinality:
                    best = position
                    best_cardinality = candidate
            order.append(best)
            remaining.remove(best)
            if best_cardinality is not None:
                cardinality = best_cardinality
            included.update(groups[best])
        return order

    def _plan_from_item(
        self,
        item: ast.FromItem,
        frames: List[Frame],
        driving: List[ast.Expression],
        binding_stats: table_stats_mod.BindingStats,
        consumed: set,
    ) -> Tuple[Operator, List[Tuple[Optional[str], List[str]]]]:
        if isinstance(item, ast.TableRef):
            return self._plan_table_ref(
                item, frames, driving, binding_stats, consumed
            )
        if isinstance(item, ast.SubqueryRef):
            child = Planner(
                self.catalog,
                self.functions,
                dict(self.cte_columns),
                views=self.views,
                expanding_views=self._expanding_views,
                stats=self.stats,
            )
            sub_frame = Frame(None)
            plan = child.plan_select(item.subquery, frames + [sub_frame])
            operator = SubplanOperator(plan)
            est = getattr(plan.root, "est_rows", None)
            if est is not None:
                operator.est_rows = est
            if item.alias:
                binding_stats.setdefault(item.alias.lower(), None)
            return operator, [(item.alias, list(plan.output_names))]
        if isinstance(item, ast.Join):
            if item.kind == "LEFT":
                return self._plan_left_join(
                    item, frames, driving, binding_stats, consumed
                )
            return self._plan_from(
                [item], frames, [], binding_stats, consumed, driving
            )
        raise ParseError(f"unsupported FROM item {type(item).__name__}")

    def _plan_table_ref(
        self,
        ref: ast.TableRef,
        frames: List[Frame],
        driving: List[ast.Expression],
        binding_stats: table_stats_mod.BindingStats,
        consumed: set,
    ) -> Tuple[Operator, List[Tuple[Optional[str], List[str]]]]:
        binding = ref.binding_name
        if ref.name.lower() in self.cte_columns:
            columns = self.cte_columns[ref.name.lower()]
            binding_stats.setdefault(binding.lower(), None)
            return CTEScan(ref.name, columns), [(binding, list(columns))]
        view = self.views.get(ref.name.lower())
        if view is not None:
            binding_stats.setdefault(binding.lower(), None)
            return self._plan_view(ref, view)
        return self._plan_base_table(
            self.catalog.lookup(ref.name),
            binding,
            frames,
            driving,
            binding_stats,
            consumed,
        )

    def _plan_base_table(
        self,
        entry,
        binding: str,
        frames: List[Frame],
        conjuncts: List[ast.Expression],
        binding_stats: table_stats_mod.BindingStats,
        consumed: set,
    ) -> Tuple[Operator, List[Tuple[Optional[str], List[str]]]]:
        """The cheapest access path to a base table: an index probe one of
        *conjuncts* makes available (the WHERE clause when the table drives
        the core, its pushed conjuncts inside a join graph), else the
        sequential scan."""
        columns = entry.schema.column_names
        table_stats = self._table_stats(entry.schema.name)
        binding_stats[binding.lower()] = table_stats
        if conjuncts:
            indexed = self._try_index_scan(
                entry, binding, conjuncts, frames, consumed, table_stats
            )
            if indexed is not None:
                return indexed, [(binding, list(columns))]
        scan = SeqScan(entry.storage)
        if table_stats is not None:
            scan.est_rows = float(table_stats.row_count)
        return scan, [(binding, list(columns))]

    def _table_stats(self, name: str) -> Optional[table_stats_mod.TableStats]:
        if self.stats is None:
            return None
        return self.stats.get(name)

    def _plan_view(self, ref: ast.TableRef, view):
        """Expand a view reference by planning its defining statement.

        The expansion happens below the current query's scope — the query
        modificator never sees the view's internals, which is precisely
        the paper's Section 5.5 limitation.
        """
        key = ref.name.lower()
        if key in self._expanding_views:
            raise ParseError(f"view {view.name!r} is recursively defined")
        self._expanding_views.add(key)
        try:
            child = Planner(
                self.catalog,
                self.functions,
                views=self.views,
                expanding_views=self._expanding_views,
                stats=self.stats,
            )
            plan = child.plan_select(view.select)
        finally:
            self._expanding_views.discard(key)
        columns = list(view.columns or plan.output_names)
        if len(columns) != len(plan.output_names):
            raise ParseError(
                f"view {view.name!r} declares {len(columns)} columns but its "
                f"query produces {len(plan.output_names)}"
            )
        operator = SubplanOperator(plan)
        operator.output_names = columns
        est = getattr(plan.root, "est_rows", None)
        if est is not None:
            operator.est_rows = est
        return operator, [(ref.binding_name, columns)]

    def _try_index_scan(
        self,
        entry,
        binding: str,
        conjuncts: List[ast.Expression],
        frames: List[Frame],
        consumed: Optional[set] = None,
        table_stats: Optional[table_stats_mod.TableStats] = None,
    ) -> Optional[Operator]:
        """Turn a driving base-table scan into an index probe when a WHERE
        conjunct pins an indexed column to a scope-independent value, to a
        list of them (``col IN (?, ?, ?)`` becomes a multi-key probe), or
        to the value set of an uncorrelated subquery (``col IN (SELECT
        ...)``, probed from the subquery side).

        All matching candidates are gathered; with statistics the cheapest
        costed path wins (and a sequential scan can win outright on small
        tables), without statistics the fallback is deterministic: paths
        with a known key count before subquery-keyed ones (whose operator
        prices itself at run time), unique-index probes first — a
        primary-key probe returns at most one row — then WHERE-clause
        order.  A subquery whose cardinality the planner cannot estimate
        (it reads a CTE) is taken when no costed path beats the scan: its
        operator makes the same comparison with the exact key count.
        """
        candidates = self._access_paths(entry, binding, conjuncts, frames)
        if not candidates:
            return None
        if consumed is None:
            consumed = set()
        if table_stats is None:
            chosen = min(candidates, key=_AccessPath.rule_rank)
            consumed.add(id(chosen.conjunct))
            return chosen.operator
        chosen = None
        chosen_cost = table_stats_mod.seq_scan_cost(table_stats.row_count)
        for candidate in candidates:
            if candidate.keys is None:
                continue
            est = table_stats_mod.probe_rows(
                table_stats, candidate.column, candidate.unique, candidate.keys
            )
            cost = table_stats_mod.index_probe_cost(candidate.keys, est)
            if cost < chosen_cost:
                chosen = candidate
                chosen_cost = cost
                chosen.operator.est_rows = est
        if chosen is None:
            unpriced = [path for path in candidates if path.keys is None]
            if not unpriced:
                return None  # the sequential scan is the cheapest access path
            chosen = min(unpriced, key=_AccessPath.rule_rank)
        consumed.add(id(chosen.conjunct))
        return chosen.operator

    def _access_paths(
        self,
        entry,
        binding: str,
        conjuncts: List[ast.Expression],
        frames: List[Frame],
    ) -> List["_AccessPath"]:
        """Every index probe a WHERE conjunct makes available, in
        WHERE-clause discovery order."""
        paths: List[_AccessPath] = []
        for conjunct in conjuncts:
            if isinstance(conjunct, (ast.InList, ast.InSubquery)):
                multi = self._try_multikey_lookup(
                    entry, binding, conjunct, frames
                )
                if multi is not None:
                    operator, index, keys, column = multi
                    paths.append(
                        _AccessPath(
                            operator=operator,
                            conjunct=conjunct,
                            unique=index.unique,
                            keys=keys,
                            column=column,
                            position=len(paths),
                        )
                    )
            if not (
                isinstance(conjunct, ast.BinaryOp) and conjunct.operator == "="
            ):
                continue
            for column_side, value_side in (
                (conjunct.left, conjunct.right),
                (conjunct.right, conjunct.left),
            ):
                if not isinstance(column_side, ast.ColumnRef):
                    continue
                if column_side.qualifier is not None:
                    if column_side.qualifier.lower() != binding.lower():
                        continue
                if not entry.schema.has_column(column_side.name):
                    continue
                index = entry.storage.find_index([column_side.name])
                if index is None:
                    continue
                key = self._lower_independent(value_side, frames, entry.schema)
                if key is None:
                    continue
                paths.append(
                    _AccessPath(
                        operator=IndexLookup(entry.storage, index, program([key], KEYS)),
                        conjunct=conjunct,
                        unique=index.unique,
                        keys=1,
                        column=column_side.name.lower(),
                        position=len(paths),
                    )
                )
                break
        return paths

    def _try_multikey_lookup(
        self,
        entry,
        binding: str,
        conjunct: Union[ast.InList, ast.InSubquery],
        frames: List[Frame],
    ) -> Optional[Tuple[Operator, object, Optional[int], str]]:
        """``col IN (v1, ..., vN)`` or ``col IN (SELECT ...)`` on an indexed
        column → one probe per key, returned as ``(operator, index,
        key_count, column)``.

        Only non-negated predicates qualify (NOT IN must see every row).
        Every list item must compile independently of the scanned table;
        duplicate *literal* items are dropped at plan time — ``IN (1, 1)``
        probes one key, not two (equal parameter values are deduplicated
        at run time by :class:`MultiKeyIndexLookup` itself).  The full
        WHERE clause stays as the residual filter above, so NULL items and
        three-valued logic are handled there; the probe only has to
        produce every row the predicate could accept.
        """
        if conjunct.negated:
            return None
        operand = conjunct.operand
        if not isinstance(operand, ast.ColumnRef):
            return None
        if operand.qualifier is not None:
            if operand.qualifier.lower() != binding.lower():
                return None
        if not entry.schema.has_column(operand.name):
            return None
        index = entry.storage.find_index([operand.name])
        if index is None:
            return None
        if isinstance(conjunct, ast.InSubquery):
            return self._subquery_keyed_lookup(entry, index, conjunct)
        if not conjunct.items:
            return None
        keys = []
        seen_literals = set()
        for item in conjunct.items:
            if isinstance(item, ast.Literal) and isinstance(
                item.value, (bool, int, float, str, type(None))
            ):
                if item.value in seen_literals:
                    continue
                seen_literals.add(item.value)
            key = self._lower_independent(item, frames, entry.schema)
            if key is None:
                return None
            keys.append(key)
        operator = MultiKeyIndexLookup(entry.storage, index, program(keys, KEYS))
        return operator, index, len(keys), operand.name.lower()

    def _subquery_keyed_lookup(
        self, entry, index, conjunct: ast.InSubquery
    ) -> Optional[Tuple[Operator, object, Optional[int], str]]:
        """The subquery side of :meth:`_try_multikey_lookup`.

        The subquery is planned with every enclosing scope hidden: if that
        succeeds it references nothing outside itself — uncorrelated by
        construction — and the residual filter's compilation of the same
        conjunct picks the same :class:`CompiledSubquery` out of the
        core's memo, so the key set is built once.  A subquery that needs
        an outer column (or is simply invalid) fails to plan here and the
        residual compilation reports it in full context.  The key count is
        the subquery's estimated cardinality, None when it has none.
        """
        try:
            subquery = self._plan_subquery(conjunct.subquery, [Frame(None)])
        except SQLError:
            return None
        if len(subquery.plan.output_names) != 1:
            return None  # the residual filter raises the arity error
        est = getattr(subquery.plan.root, "est_rows", None)
        keys = None if est is None else max(1, round(est))
        operator = MultiKeyIndexLookup(entry.storage, index, None, subquery)
        return operator, index, keys, conjunct.operand.name.lower()

    def _join(
        self,
        graph: "_JoinGraph",
        left: Operator,
        joined: List[int],
        index: int,
        frames: List[Frame],
        binding_stats: table_stats_mod.BindingStats,
        consumed: set,
    ) -> Operator:
        """Join leaf *index* to the *joined* leaves (plan order) below *left*.

        The keys are the pool's equalities with one side on the joined
        leaves and the other on this leaf.  An index nested-loop join
        probes this leaf's index on a key column; a hash join builds on
        its filtered access path.  With statistics on the leaf and an
        estimate for *left* the two are priced — ``index_probe_cost(|L|,
        |L| × rows per key)`` against ``seq_scan_cost(rows read) + |L|`` —
        otherwise the index join wins, then the hash join, then a nested
        loop.  The ON conjuncts whose leaves are all joined here (pushed
        ones aside) are the join's residual; WHERE conjuncts are left to
        the filter above the graph.
        """
        leaf = graph.leaves[index]
        step = frozenset(joined) | {index}
        on = [
            conjunct
            for conjunct in graph.conjuncts
            if conjunct.on and not conjunct.applied and conjunct.refs <= step
        ]
        keys = graph.keys(joined, index)
        for conjunct in on:
            conjunct.applied = True
        probe = None
        if leaf.entry is not None:
            for key in keys:
                if isinstance(key.right, ast.ColumnRef):
                    found = leaf.entry.storage.find_index([key.right.name])
                    if found is not None:
                        probe = (key, found)
                        break
        hashed = (
            [key for key in keys if key.left_refs] if graph.kind == "INNER" else []
        )
        left_est = getattr(left, "est_rows", None)
        right_est = getattr(leaf.operator, "est_rows", None)
        if (
            probe is not None
            and hashed
            and leaf.stats is not None
            and left_est is not None
        ):
            key, found = probe
            per_key = table_stats_mod.probe_rows(
                leaf.stats, key.right.name, found.unique, 1
            )
            index_cost = table_stats_mod.index_probe_cost(left_est, left_est * per_key)
            scanned = leaf.access_rows
            if scanned is None:
                scanned = float(leaf.stats.row_count)
            if index_cost >= table_stats_mod.seq_scan_cost(scanned) + left_est:
                probe = None
        used = [probe[0]] if probe is not None else hashed
        used_conjuncts = [key.conjunct for key in used]
        residual = [conjunct for conjunct in on if conjunct not in used_conjuncts]
        step_order = joined + [index]
        if probe is not None:
            key, found = probe
            operator: Operator = IndexNestedLoopJoin(
                left,
                leaf.entry.storage,
                found,
                program(
                    [self._lower_in(key.left, graph.scope(joined, key.conjunct), frames)],
                    TUPLES,
                ),
                self._compile_all(graph, residual + leaf.pushed, step_order, frames),
                kind=graph.kind,
            )
        elif used:
            operator = HashJoin(
                left,
                leaf.operator,
                program(
                    [
                        self._lower_in(key.left, graph.scope(joined, key.conjunct), frames)
                        for key in used
                    ],
                    TUPLES,
                ),
                program(
                    [
                        self._lower_in(key.right, graph.scope([index], key.conjunct), frames)
                        for key in used
                    ],
                    TUPLES,
                ),
                residual=self._compile_all(graph, residual, step_order, frames),
                kind="INNER",
            )
        else:
            operator = NestedLoopJoin(
                left,
                leaf.operator,
                self._compile_all(graph, residual, step_order, frames),
                kind=graph.kind,
            )
        if left_est is not None and right_est is not None:
            selectivity = 1.0
            for key in used:
                selectivity *= table_stats_mod.equi_join_selectivity(
                    key.conjunct.expression, binding_stats, left_est, right_est
                )
            selectivity *= table_stats_mod.condition_selectivity(
                [conjunct.expression for conjunct in residual], binding_stats
            )
            est = left_est * right_est * selectivity
            if graph.kind == "LEFT":
                est = max(est, left_est)  # every left row appears at least once
            operator.est_rows = est
        for key in used:
            consumed.add(id(key.conjunct.expression))
        return operator

    def _compile_all(
        self,
        graph: "_JoinGraph",
        conjuncts: List["_Conjunct"],
        order: List[int],
        frames: List[Frame],
    ):
        """One row function that is True when every conjunct is, each
        compiled against the *order* leaves as its written scope sees
        them; None for no conjuncts."""
        if not conjuncts:
            return None
        lowered = [
            self._lower_in(conjunct.expression, graph.scope(order, conjunct), frames)
            for conjunct in conjuncts
        ]
        return program([conjunction(lowered)], VALUE).row

    def _lower_in(self, expression: ast.Expression, scope: Scope, frames: List[Frame]):
        """Lower *expression* with *scope* as the current frame's."""
        frame = frames[-1]
        saved = frame.scope
        frame.scope = scope
        try:
            return lower(expression, self._context(frames))
        finally:
            frame.scope = saved

    def _lower_independent(self, expr: ast.Expression, frames: List[Frame], avoid_schema):
        """Lower *expr* so that it may reference outer frames and the
        current frame's (possibly partial) scope, but must not reference the
        table described by *avoid_schema* through unqualified names.

        Returns None when the expression cannot be compiled in that context
        (then the caller falls back to an unoptimised plan).
        """
        for node in ast.walk_expression(expr):
            if isinstance(node, ast.ColumnRef) and node.qualifier is None:
                if avoid_schema.has_column(node.name):
                    return None
            if isinstance(
                node,
                (ast.ExistsTest, ast.InSubquery, ast.ScalarSubquery),
            ):
                return None  # keep the optimisation path simple and safe
        try:
            return lower(expr, self._context(frames))
        except SQLError:
            return None

    # -- projection / aggregation -----------------------------------------------

    def _plan_projection(
        self,
        items: Sequence[Union[ast.SelectItem, ast.Star]],
        child: Operator,
        scope: Scope,
        frames: List[Frame],
    ) -> Operator:
        ctx = self._context(frames)
        exprs = []
        names: List[str] = []
        for item in items:
            if isinstance(item, ast.Star):
                start, end = (
                    scope.binding_slot_range(item.qualifier)
                    if item.qualifier
                    else (0, scope.arity)
                )
                display = _display_names(scope)
                for position in range(start, end):
                    exprs.append(slot(position))
                    names.append(display[position])
                continue
            exprs.append(lower(item.expression, ctx))
            names.append(_output_name(item, len(names)))
        return Project(child, program(exprs, TUPLES), names)

    def _plan_aggregate(
        self, core: ast.SelectCore, child: Operator, frames: List[Frame]
    ) -> Operator:
        if any(isinstance(item, ast.Star) for item in core.items):
            raise ParseError("SELECT * cannot be combined with aggregation")
        ctx = self._context(frames)
        group_exprs = [lower(expr, ctx) for expr in core.group_by]
        group_keys = [expression_key(expr) for expr in core.group_by]
        aggregate_nodes: List[ast.FunctionCall] = []
        aggregate_keys: List[str] = []

        def collect(expression: ast.Expression) -> None:
            for node in ast.walk_expression(expression):
                if (
                    isinstance(node, ast.FunctionCall)
                    and node.name.upper() in AGGREGATE_NAMES
                ):
                    key = expression_key(node)
                    if key not in aggregate_keys:
                        aggregate_keys.append(key)
                        aggregate_nodes.append(node)

        for item in core.items:
            collect(item.expression)
        if core.having is not None:
            collect(core.having)
        specs: List[AggregateSpec] = []
        arguments = []
        for node in aggregate_nodes:
            if node.star:
                specs.append(AggregateSpec(node.name, star=True))
                continue
            if len(node.args) != 1:
                raise ParseError(
                    f"aggregate {node.name} takes exactly one argument"
                )
            arguments.append(lower(node.args[0], ctx))
            specs.append(AggregateSpec(node.name, distinct=node.distinct))
        output_names = [f"__group_{i}" for i in range(len(group_exprs))] + [
            f"__agg_{i}" for i in range(len(specs))
        ]
        aggregate_op = Aggregate(
            child,
            program(group_exprs, TUPLES),
            specs,
            program(arguments, COLUMNS),
            output_names,
        )
        # Compile post-aggregation expressions: group keys and aggregate
        # calls become direct slot references.  Plain-column group keys
        # additionally stay addressable by name — including their original
        # table qualifier — so correlated subqueries in HAVING/SELECT can
        # reference the grouping column (``HAVING SUM(x) >= (SELECT goal
        # FROM t WHERE t.region = sale.region)``).
        frame = frames[-1]
        saved = frame.scope
        pre_scope = saved
        post_bindings: List[Tuple[Optional[str], List[str]]] = []
        for position, group_expr in enumerate(core.group_by):
            binding_name = None
            column_name = f"__group_{position}"
            if isinstance(group_expr, ast.ColumnRef):
                column_name = group_expr.name
                binding_name = group_expr.qualifier
                if binding_name is None and pre_scope is not None:
                    try:
                        binding_name = pre_scope.binding_of_slot(
                            pre_scope.resolve(None, group_expr.name)
                        )
                    except SQLError:
                        binding_name = None
            post_bindings.append((binding_name, [column_name]))
        post_bindings.append((None, [f"__agg_{i}" for i in range(len(specs))]))
        frame.scope = Scope(post_bindings)
        try:
            post_ctx = self._context(frames)

            def rewrite(expression: ast.Expression) -> ast.Expression:
                key = expression_key(expression)
                if key in group_keys:
                    return SlotRef(group_keys.index(key))
                if key in aggregate_keys:
                    return SlotRef(len(group_keys) + aggregate_keys.index(key))
                return _rebuild(expression, rewrite)

            operator: Operator = aggregate_op
            if core.having is not None:
                having = lower(rewrite(core.having), post_ctx)
                operator = Filter(operator, program([having], PREDICATE))
            exprs = []
            names = []
            for item in core.items:
                exprs.append(lower(rewrite(item.expression), post_ctx))
                names.append(_output_name(item, len(names)))
            return Project(operator, program(exprs, TUPLES), names)
        finally:
            frame.scope = saved

    # -- ORDER BY / LIMIT ----------------------------------------------------------

    def _plan_order_by(
        self, child: Operator, order_by: List[ast.OrderItem], frames: List[Frame]
    ) -> Operator:
        frame = frames[-1]
        saved = frame.scope
        frame.scope = Scope([(None, list(child.output_names))])
        try:
            ctx = self._context(frames)
            keys = []
            descending = []
            for item in order_by:
                expression = item.expression
                if contains_aggregate(expression):
                    # ORDER BY SUM(x): handled by the hidden-key re-plan,
                    # where the aggregate rewrite sees the key.
                    raise UnresolvedColumnError(
                        "aggregate ORDER BY key needs a hidden sort column"
                    )
                if isinstance(expression, ast.Literal) and isinstance(
                    expression.value, int
                ):
                    position = expression.value
                    if not 1 <= position <= len(child.output_names):
                        raise ParseError(
                            f"ORDER BY position {position} is out of range"
                        )
                    expression = SlotRef(position - 1)
                keys.append(lower(expression, ctx))
                descending.append(item.descending)
            return Sort(child, program(keys, COLUMNS), descending)
        finally:
            frame.scope = saved

    def _plan_order_by_hidden(
        self,
        statement: ast.SelectStatement,
        planned_root: Operator,
        frames: List[Frame],
    ) -> Operator:
        """ORDER BY keys referencing non-output columns: re-plan the core
        with the keys appended to the select list, sort on the appended
        slots, then project the hidden slots away."""
        core = statement.body
        if not isinstance(core, ast.SelectCore):
            raise ParseError(
                "ORDER BY over a set operation must reference output columns"
            )
        if core.distinct:
            raise ParseError(
                "ORDER BY keys of a SELECT DISTINCT must appear in the "
                "select list"
            )
        output_names = list(planned_root.output_names)
        lower_names = [name.lower() for name in output_names]
        key_slots: List[Tuple[int, bool]] = []
        hidden_items: List[ast.SelectItem] = []
        for item in statement.order_by:
            expression = item.expression
            if isinstance(expression, ast.Literal) and isinstance(
                expression.value, int
            ):
                position = expression.value
                if not 1 <= position <= len(output_names):
                    raise ParseError(
                        f"ORDER BY position {position} is out of range"
                    )
                key_slots.append((position - 1, item.descending))
                continue
            if (
                isinstance(expression, ast.ColumnRef)
                and expression.qualifier is None
                and lower_names.count(expression.name.lower()) == 1
            ):
                key_slots.append(
                    (lower_names.index(expression.name.lower()), item.descending)
                )
                continue
            hidden = len(output_names) + len(hidden_items)
            hidden_items.append(
                ast.SelectItem(expression=expression, alias=f"__order_{hidden}")
            )
            key_slots.append((hidden, item.descending))
        extended = ast.SelectCore(
            items=list(core.items) + hidden_items,
            from_items=core.from_items,
            where=core.where,
            group_by=core.group_by,
            having=core.having,
            distinct=False,
        )
        extended_root = self._plan_core(extended, frames)
        keys = program([slot(position) for position, __ in key_slots], COLUMNS)
        sorted_root = Sort(extended_root, keys, [descending for __, descending in key_slots])
        strip = program([slot(position) for position in range(len(output_names))], TUPLES)
        return Project(sorted_root, strip, output_names)

    def _compile_scalar(self, expression: ast.Expression, frames: List[Frame]):
        return program([self._lower_in(expression, Scope([]), frames)], VALUE).row

    # -- helpers -------------------------------------------------------------------

    def _context(self, frames: List[Frame]) -> CompileContext:
        return CompileContext(frames, self._plan_subquery, self.functions)

    def _plan_subquery(
        self, statement: ast.SelectStatement, frames: List[Frame]
    ) -> CompiledSubquery:
        shared = self._core_subqueries
        if shared is not None:
            key = _subquery_key(statement)
            if key in shared:
                return shared[key]
        child = Planner(
                self.catalog,
                self.functions,
                dict(self.cte_columns),
                views=self.views,
                expanding_views=self._expanding_views,
                stats=self.stats,
            )
        sub_frame = Frame(None)
        plan = child.plan_select(statement, list(frames) + [sub_frame])
        compiled = CompiledSubquery(plan, sub_frame.correlated)
        if shared is not None and not compiled.correlated:
            # An uncorrelated subquery reads no enclosing scope, so one
            # plan (and one cached evaluation) serves every occurrence.
            shared[key] = compiled
        return compiled


@dataclass
class _AccessPath:
    """One candidate index probe for a base-table access."""

    operator: Operator
    #: The WHERE conjunct the probe implements (its id lands in the
    #: ``consumed`` set so cardinality estimation does not price it twice).
    conjunct: ast.Expression
    unique: bool
    #: Number of probe keys: 1 for ``=``, the deduplicated list length for
    #: an ``IN``-list, the estimated cardinality for an ``IN``-subquery —
    #: None when it has none (the operator prices itself at run time).
    keys: Optional[int]
    #: Probed column name (lower case), for per-key cardinality.
    column: str
    #: Discovery position, the deterministic tie-break.
    position: int

    def rule_rank(self) -> Tuple[int, int, int]:
        """Statistics-free preference (smaller is better): a known key
        count, then a unique index, then WHERE-clause order."""
        return (
            0 if self.keys is not None else 1,
            0 if self.unique else 1,
            self.position,
        )


def _check_fixpoint_branch(branch: ast.SelectCore, cte_name: str) -> None:
    """Refuse a recursive branch whose fixpoint is undefined: semi-naive
    evaluation joins each round's delta against one reference, so a second
    reference, an aggregate or a negated membership test would silently
    return the wrong rows.  SQLite refuses all three."""
    references = _count_table_refs(branch, cte_name)
    if references > 1:
        raise ParseError(
            f"recursive CTE {cte_name!r} is referenced {references} times in "
            f"one recursive branch; recursion must be linear"
        )
    if _branch_aggregates(branch):
        raise ParseError(
            f"a recursive branch of CTE {cte_name!r} aggregates or groups; "
            f"aggregate over the recursion in the outer SELECT"
        )
    if any(_negates_cte(c, cte_name) for __, c in _core_predicates(branch)):
        raise ParseError(
            f"a recursive branch of CTE {cte_name!r} tests it under NOT "
            f"EXISTS / NOT IN; negated recursion has no fixpoint"
        )


def _subquery_key(statement: ast.SelectStatement) -> object:
    """Identity of a subquery for sharing inside one SELECT core: its
    rendered text (case-sensitive — string literals matter).  Parameters
    all render as ``?`` whatever their position, so a text containing one
    identifies only its own AST node."""
    text = render_select(statement)
    return id(statement) if "?" in text else text


Bindings = List[Tuple[Optional[str], List[str]]]


@dataclass
class _Leaf:
    """One input relation of a join graph."""

    #: The FROM item to plan; None when ``operator`` arrives planned (the
    #: preserved side of a LEFT JOIN).
    item: Optional[ast.FromItem]
    operator: Optional[Operator] = None
    bindings: Bindings = field(default_factory=list)
    #: Catalog entry of a base table (None for CTEs, views, derived tables
    #: and joins): only a base table is probed by an index join, takes
    #: pushed conjuncts, or moves in a reordered graph.
    entry: object = None
    stats: Optional[table_stats_mod.TableStats] = None
    #: Single-table conjuncts filtered directly over the access path.
    pushed: List["_Conjunct"] = field(default_factory=list)
    #: Rows the access path reads: what a hash join building on it pays.
    access_rows: Optional[float] = None


@dataclass(eq=False)
class _Conjunct:
    """One conjunct of a join graph's predicate pool."""

    expression: ast.Expression
    #: The leaves of its written scope: every leaf for WHERE, the join's
    #: subtree for ON.
    visible: range
    #: An ON conjunct is evaluated by the join that first holds its leaves;
    #: a WHERE conjunct by the residual filter above the graph.
    on: bool
    #: The leaves its columns resolve to (all of ``visible`` when it holds a
    #: subquery, which may read any of them).
    refs: FrozenSet[int] = frozenset()
    #: Evaluated already: pushed onto a leaf, or an ON conjunct a join owns.
    applied: bool = False


@dataclass
class _Key:
    """An equality usable as a join key: ``left`` reads only joined leaves
    (``left_refs``; empty for a constant, which only an ON clause's index
    join probes with), ``right`` only the next one."""

    conjunct: _Conjunct
    left: ast.Expression
    right: ast.Expression
    left_refs: FrozenSet[int]


class _JoinGraph:
    """The leaves and predicate pool of one join graph (``kind`` INNER, or
    LEFT for the two sides of a LEFT JOIN), and what the planner asks of
    them."""

    def __init__(
        self, leaves: List[_Leaf], conjuncts: List[_Conjunct], kind: str
    ) -> None:
        self.leaves = leaves
        self.conjuncts = conjuncts
        self.kind = kind
        self._scopes: Dict[Tuple[int, int], Tuple[Scope, List[int]]] = {}

    def refs(self, expression: ast.Expression, visible: range) -> FrozenSet[int]:
        """The leaves *expression*'s columns resolve to in the *visible*
        scope; a column found in none is an outer reference."""
        key = (visible.start, visible.stop)
        cached = self._scopes.get(key)
        if cached is None:
            bindings: Bindings = []
            owners: List[int] = []
            for index in visible:
                for name, columns in self.leaves[index].bindings:
                    bindings.append((name, columns))
                    owners.extend([index] * len(columns))
            cached = self._scopes[key] = (Scope(bindings), owners)
        scope, owners = cached
        found = set()
        for node in ast.walk_expression(expression):
            if isinstance(node, _SUBQUERY_NODES):
                return frozenset(visible)
            if isinstance(node, ast.ColumnRef):
                try:
                    found.add(owners[scope.resolve(node.qualifier, node.name)])
                except UnresolvedColumnError:
                    pass
        return frozenset(found)

    def keys(self, joined: List[int], index: int) -> List[_Key]:
        """The pool's equalities between the *joined* leaves and leaf
        *index*, in pool order (ON conjuncts first)."""
        joined_set = frozenset(joined)
        step = joined_set | {index}
        keys: List[_Key] = []
        for conjunct in self.conjuncts:
            expression = conjunct.expression
            if (
                conjunct.applied
                or index not in conjunct.refs
                or not conjunct.refs <= step
                or not isinstance(expression, ast.BinaryOp)
                or expression.operator != "="
            ):
                continue
            for left, right in (
                (expression.left, expression.right),
                (expression.right, expression.left),
            ):
                left_refs = self.refs(left, conjunct.visible)
                if (left_refs or conjunct.on) and left_refs <= joined_set and self.refs(
                    right, conjunct.visible
                ) == {index}:
                    keys.append(_Key(conjunct, left, right, left_refs))
                    break
        return keys

    def scope(self, order: List[int], conjunct: _Conjunct) -> Scope:
        """The *order* leaves' bindings as *conjunct*'s written scope sees
        them: a leaf outside it keeps its slots but loses its names."""
        bindings: Bindings = []
        for index in order:
            for name, columns in self.leaves[index].bindings:
                if index in conjunct.visible:
                    bindings.append((name, columns))
                else:
                    bindings.append((None, [""] * len(columns)))
        return Scope(bindings)


def _inner_join(item: ast.FromItem) -> bool:
    return isinstance(item, ast.Join) and item.kind in ("INNER", "CROSS")


def _flatten_inner(
    item: ast.FromItem, leaves: List[_Leaf], conjuncts: List[_Conjunct]
) -> None:
    """Append *item*'s leaves in written order, descending through INNER
    and CROSS joins (a LEFT JOIN is one leaf), and each ON clause's
    conjuncts with the leaves of its join as their scope."""
    if _inner_join(item):
        start = len(leaves)
        _flatten_inner(item.left, leaves, conjuncts)
        _flatten_inner(item.right, leaves, conjuncts)
        scope = range(start, len(leaves))
        conjuncts.extend(
            _Conjunct(conjunct, scope, on=True)
            for conjunct in _split_conjuncts(item.condition)
        )
    else:
        leaves.append(_Leaf(item))


_PUSHABLE_OPERATORS = frozenset(("=", "<>", "<", "<=", ">", ">=", "AND", "OR"))
_PUSHABLE_NODES = (
    ast.ColumnRef,
    ast.Literal,
    ast.Parameter,
    ast.Between,
    ast.InList,
    ast.Like,
    ast.IsNullTest,
)


def _pushable(expression: ast.Expression) -> bool:
    """True for a predicate built only from columns, (signed) literals,
    parameters, comparisons, BETWEEN, IN-lists, LIKE, IS [NOT] NULL and
    AND/OR/NOT: one that may run below a join.  Arithmetic, function
    calls, CASE, CAST and subqueries stay in the residual filter."""
    for node in ast.walk_expression(expression):
        if isinstance(node, ast.BinaryOp):
            if node.operator.upper() not in _PUSHABLE_OPERATORS:
                return False
        elif isinstance(node, ast.UnaryOp):
            if node.operator.upper() != "NOT" and not (
                isinstance(node.operand, ast.Literal)
                and isinstance(node.operand.value, (int, float))
            ):
                return False
        elif not isinstance(node, _PUSHABLE_NODES):
            return False
    return True


def _finalize_estimates(operator: Operator) -> None:
    """Post-pass filling ``est_rows`` on wrapper operators that pass their
    child's cardinality through unchanged (or bounded): projections, sorts
    and the like inherit, UNION ALL sums.  Operators whose output cannot
    be derived (aggregates, set difference, …) keep no estimate rather
    than a made-up one."""
    # A subplan's tree was finalized by the child planner that built it.
    if not isinstance(operator, SubplanOperator):
        for child in operator.children:
            _finalize_estimates(child)
    if getattr(operator, "est_rows", None) is not None:
        return
    if isinstance(operator, (Project, Sort, Distinct, Filter, Limit, Offset)):
        child = getattr(operator, "child", None)
        if child is not None:
            est = getattr(child, "est_rows", None)
            if est is not None:
                operator.est_rows = est
    elif isinstance(operator, UnionAll):
        branch_ests = [
            getattr(branch, "est_rows", None) for branch in operator.children
        ]
        if branch_ests and all(est is not None for est in branch_ests):
            operator.est_rows = float(sum(branch_ests))


def _display_names(scope: Scope) -> List[str]:
    names: List[str] = []
    for __, columns in scope.bindings:
        names.extend(columns)
    return names


def _output_name(item: ast.SelectItem, position: int) -> str:
    if item.alias:
        return item.alias
    expression = item.expression
    if isinstance(expression, ast.ColumnRef):
        return expression.name
    if isinstance(expression, ast.Cast) and isinstance(
        expression.operand, ast.ColumnRef
    ):
        return expression.operand.name
    if isinstance(expression, ast.FunctionCall):
        return expression.name.lower()
    return f"col{position + 1}"


def _rebuild(expression: ast.Expression, transform) -> ast.Expression:
    """Shallow-copy *expression* with children passed through *transform*.

    Subquery wrappers are kept as-is: their internals compile in their own
    frames and may not reference pre-aggregation columns.
    """
    if isinstance(expression, ast.UnaryOp):
        return ast.UnaryOp(expression.operator, transform(expression.operand))
    if isinstance(expression, ast.BinaryOp):
        return ast.BinaryOp(
            expression.operator,
            transform(expression.left),
            transform(expression.right),
        )
    if isinstance(expression, ast.FunctionCall):
        return ast.FunctionCall(
            expression.name,
            [transform(arg) for arg in expression.args],
            star=expression.star,
            distinct=expression.distinct,
        )
    if isinstance(expression, ast.Cast):
        return ast.Cast(transform(expression.operand), expression.target)
    if isinstance(expression, ast.IsNullTest):
        return ast.IsNullTest(transform(expression.operand), expression.negated)
    if isinstance(expression, ast.InList):
        return ast.InList(
            transform(expression.operand),
            [transform(item) for item in expression.items],
            expression.negated,
        )
    if isinstance(expression, ast.Between):
        return ast.Between(
            transform(expression.operand),
            transform(expression.low),
            transform(expression.high),
            expression.negated,
        )
    if isinstance(expression, ast.Like):
        return ast.Like(
            transform(expression.operand),
            transform(expression.pattern),
            expression.negated,
        )
    if isinstance(expression, ast.CaseWhen):
        return ast.CaseWhen(
            [
                (transform(condition), transform(value))
                for condition, value in expression.branches
            ],
            transform(expression.default)
            if expression.default is not None
            else None,
        )
    return expression


