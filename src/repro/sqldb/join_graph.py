"""The join graph: the INNER joins and comma items of one SELECT core.

Their ON conjuncts and the WHERE conjuncts are one pool, every
cross-table equality of which is a join key; a LEFT JOIN is a barrier
planned in its written place.  Without statistics the leaves join in
their written order; with them, in a greedy cost order, each join
pricing an index join against a hash join.  A mixin of
:class:`repro.sqldb.planner.Planner`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.errors import ParseError
from repro.sqldb import ast_nodes as ast
from repro.sqldb import stats as table_stats_mod
from repro.sqldb.ast_walk import SUBQUERY_NODES as _SUBQUERY_NODES
from repro.sqldb.ast_walk import split_conjuncts as _split_conjuncts
from repro.sqldb.executor import (
    HashJoin,
    IndexNestedLoopJoin,
    NestedLoopJoin,
    Operator,
    Project,
    RowsSource,
)
from repro.sqldb.expressions import (
    IR,
    Frame,
    Scope,
    UnresolvedColumnError,
    conjunction,
    slot,
)
from repro.sqldb.access_paths import AccessPaths
from repro.sqldb.subplans import SubplanOperator


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


class JoinGraphs(AccessPaths):
    """The planner's join-graph methods."""

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
        project = Project(operator, exprs, names)
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
        scope = Scope(leaf.bindings)
        filtered = self._filter(
            operator, predicate, pushed, lambda e: self._lower_in(e, scope, frames), frames
        )
        if filtered is operator:
            return operator
        if leaf.access_rows is not None:
            filtered.est_rows = leaf.access_rows * self._selectivity(
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
            * self._selectivity([conjunct.expression for conjunct in leaf.pushed], group)
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
            plan = self._child(self.cte_columns).plan_select(item.subquery, frames + [Frame(None)])
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
                [self._lower_in(key.left, graph.scope(joined, key.conjunct), frames)],
                self._conjunction(graph, residual + leaf.pushed, step_order, frames),
                kind=graph.kind,
            )
            if graph.kind == "INNER":
                operator.applies = frozenset(id(c.expression) for c in leaf.pushed)
        else:  # a LEFT join is never hashed
            operator = (HashJoin if used else NestedLoopJoin)(
                left,
                leaf.operator,
                [self._lower_in(key.left, graph.scope(joined, key.conjunct), frames) for key in used],
                [self._lower_in(key.right, graph.scope([index], key.conjunct), frames) for key in used],
                self._conjunction(graph, residual, step_order, frames),
                graph.kind,
            )
        if left_est is not None and right_est is not None:
            selectivity = 1.0
            for key in used:
                selectivity *= table_stats_mod.equi_join_selectivity(
                    key.conjunct.expression, binding_stats, left_est, right_est
                )
            selectivity *= self._selectivity(
                [conjunct.expression for conjunct in residual], binding_stats
            )
            est = left_est * right_est * selectivity
            if graph.kind == "LEFT":
                est = max(est, left_est)  # every left row appears at least once
            operator.est_rows = est
        for key in used:
            consumed.add(id(key.conjunct.expression))
        return operator

    def _conjunction(
        self,
        graph: "_JoinGraph",
        conjuncts: List["_Conjunct"],
        order: List[int],
        frames: List[Frame],
    ) -> Optional[IR]:
        """One predicate that is TRUE when every conjunct is, each lowered
        against the *order* leaves as its written scope sees them; None
        for no conjuncts."""
        if not conjuncts:
            return None
        return conjunction(
            [
                self._lower_in(conjunct.expression, graph.scope(order, conjunct), frames)
                for conjunct in conjuncts
            ]
        )
