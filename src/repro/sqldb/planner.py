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

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ParseError, SQLError
from repro.sqldb import ast_nodes as ast
from repro.sqldb import stats as table_stats_mod
from repro.sqldb.ast_walk import (
    branch_aggregates as _branch_aggregates,
    core_predicates as _core_predicates,
    core_references as _core_references,
    count_table_refs as _count_table_refs,
    flatten_set_operations as _flatten_set_operations,
    negates_cte as _negates_cte,
    split_conjuncts as _split_conjuncts,
)
from repro.sqldb.executor import (
    Aggregate,
    AggregateSpec,
    Distinct,
    Filter,
    Limit,
    Offset,
    Operator,
    Project,
    SetDifference,
    SetIntersection,
    Sort,
    UnionAll,
    fuse,
)
from repro.sqldb.expressions import (
    VALUE,
    CompileContext,
    Frame,
    Scope,
    SlotRef,
    UnresolvedColumnError,
    compile_expression,
    contains_aggregate,
    lower,
    program,
    slot,
)
from repro.sqldb.functions import AGGREGATE_NAMES, FunctionRegistry
from repro.sqldb.join_graph import JoinGraphs
from repro.sqldb.render import expression_key
from repro.sqldb.schema import Catalog
from repro.sqldb.subplans import (
    CompiledSubquery,
    Plan,
    PlannedCTE,
    SubplanOperator,
    _subquery_key,
)


class Planner(JoinGraphs):
    """Plans one statement; child planners are spawned for subqueries.

    The join graph and the access paths are planned by the mixins of
    :mod:`repro.sqldb.join_graph` and :mod:`repro.sqldb.access_paths`.
    """

    def __init__(
        self,
        catalog: Catalog,
        functions: FunctionRegistry,
        cte_columns: Optional[Dict[str, List[str]]] = None,
        views: Optional[Dict[str, "object"]] = None,
        expanding_views: Optional[set] = None,
        stats: Optional[table_stats_mod.StatsCatalog] = None,
        estimates: Optional[list] = None,
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
        #: When a list: each estimate of conjuncts with a hidden literal, as
        #: :meth:`_selectivity` records it.
        self.estimates = estimates

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
        for planned in planned_ctes:
            for branch in planned.seed_plans + planned.recursive_plans:
                fuse(branch)
        fuse(root)
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
        dml: bool = False,
    ) -> Operator:
        """*source* under the WHERE clause as residual filter (the whole
        clause for a DML target; see :meth:`_filter`)."""
        if where is None:
            return source
        operator = self._filter(
            source, where, where_conjuncts, lambda e: lower(e, ctx), ctx.frames, drop=not dml
        )
        if operator is source:
            return source
        source_est = getattr(source, "est_rows", None)
        if source_est is not None:
            # Conjuncts already folded into an index probe must not be
            # priced a second time here.
            residual = [
                conjunct
                for conjunct in where_conjuncts
                if id(conjunct) not in consumed
            ]
            operator.est_rows = source_est * self._selectivity(
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
            dml=True,
        )
        frame.scope = Scope(bindings)
        ctx = self._context(frames)
        root = self._filtered(
            source, where, where_conjuncts, consumed, binding_stats, ctx, dml=True
        )
        closures = [compile_expression(value, ctx) for value in assignments]
        fuse(root)
        return Plan(root=root, output_names=list(root.output_names)), closures

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
        return Project(child, exprs, names)

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
        aggregate_op = Aggregate(child, group_exprs, specs, arguments, output_names)
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
                operator = Filter(operator, having)
            exprs = []
            names = []
            for item in core.items:
                exprs.append(lower(rewrite(item.expression), post_ctx))
                names.append(_output_name(item, len(names)))
            return Project(operator, exprs, names)
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
            return self._sorted(child, keys, descending)
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
        keys = [slot(position) for position, __ in key_slots]
        sorted_root = self._sorted(extended_root, keys, [descending for __, descending in key_slots])
        strip = [slot(position) for position in range(len(output_names))]
        return Project(sorted_root, strip, output_names)

    def _compile_scalar(self, expression: ast.Expression, frames: List[Frame]):
        return program([self._lower_in(expression, Scope([]), frames)], VALUE).row

    # -- helpers -------------------------------------------------------------------

    def _plan_subquery(
        self, statement: ast.SelectStatement, frames: List[Frame]
    ) -> CompiledSubquery:
        shared = self._core_subqueries
        if shared is not None:
            key = _subquery_key(statement)
            if key in shared:
                return shared[key]
        sub_frame = Frame(None)
        plan = self._child(self.cte_columns).plan_select(statement, list(frames) + [sub_frame])
        compiled = CompiledSubquery(plan, sub_frame.correlated)
        if shared is not None and not compiled.correlated:
            # An uncorrelated subquery reads no enclosing scope, so one
            # plan (and one cached evaluation) serves every occurrence.
            shared[key] = compiled
        return compiled


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


