"""Access paths: how the planner reads one base table.

The cheapest of a sequential scan and the index probes the WHERE clause
(or a join graph leaf's pushed conjuncts) makes available: ``col = v``
on an indexed column, ``col IN (v, ...)`` and ``col IN (SELECT ...)``.
Without statistics the choice is by rule; with them, by cost.  A mixin
of :class:`repro.sqldb.planner.Planner`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import ParseError, SQLError
from repro.sqldb import ast_nodes as ast
from repro.sqldb import stats as table_stats_mod
from repro.sqldb.stats import range_sides
from repro.sqldb.executor import (
    CTEScan,
    Filter,
    HashJoin,
    IndexLookup,
    Operator,
    Project,
    RangeScan,
    SeqScan,
    Sort,
    _Stage,
)
from repro.sqldb.expressions import IR, KEYS, CompileContext, Frame, _binary, lower, program
from repro.sqldb.pipelines import key_columns
from repro.sqldb.subplans import SubplanOperator
from repro.sqldb.types import DOUBLE

if TYPE_CHECKING:
    from repro.sqldb.expressions import Scope
    from repro.sqldb.functions import FunctionRegistry
    from repro.sqldb.schema import Catalog
    from repro.sqldb.subplans import CompiledSubquery


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


class AccessPaths:
    """The planner's access-path methods."""

    if TYPE_CHECKING:  # the planner's state and helpers (repro.sqldb.planner)
        catalog: Catalog
        functions: FunctionRegistry
        cte_columns: Dict[str, List[str]]
        views: Dict[str, object]
        stats: Optional[table_stats_mod.StatsCatalog]
        _expanding_views: set
        estimates: Optional[list]

        def _plan_subquery(
            self, statement: ast.SelectStatement, frames: List[Frame]
        ) -> CompiledSubquery:
            ...

    def _context(self, frames: List[Frame]) -> CompileContext:
        return CompileContext(frames, self._plan_subquery, self.functions)

    def _lower_in(self, expression: ast.Expression, scope: Scope, frames: List[Frame]) -> IR:
        """Lower *expression* with *scope* as the current frame's."""
        frame = frames[-1]
        saved = frame.scope
        frame.scope = scope
        try:
            return lower(expression, self._context(frames))
        finally:
            frame.scope = saved

    def _filter(
        self,
        source: Operator,
        whole: ast.Expression,
        conjuncts: List[ast.Expression],
        lower_one,
        frames: List[Frame],
        drop: bool = True,
    ) -> Operator:
        """*source* under a Filter of *conjuncts* (whose AND is *whole*),
        less — when *drop* — the ones every row of its pipeline satisfies
        already: those a stage below it applies (``applies``), and the
        equality an index probe under those stages stands for, which the
        Filter tests as its ``recheck`` (see :class:`Filter`).  With
        nothing left to test there is no Filter."""
        applied: set = set()
        node = source
        while drop and isinstance(node, _Stage) and not isinstance(node, HashJoin):
            applied |= node.applies
            node = node.child
        probe = node if drop and isinstance(node, IndexLookup) else None
        kept = []
        recheck = None
        for conjunct in conjuncts:
            if id(conjunct) in applied:
                continue
            if probe is not None and id(conjunct) == probe.equality:
                recheck = lower_one(conjunct)
                continue
            kept.append(conjunct)
        if not kept and recheck is None:
            return source
        irs = [lower_one(conjunct) for conjunct in kept]
        lowered = dict(zip(map(id, kept), irs))
        sides = node.sides if isinstance(node, RangeScan) and node.bounds is None else ()
        if sides and all(conjunct in lowered for conjunct, __ in sides):  # its bounds, as lowered here
            node.bind([lowered[conjunct][2][position] for conjunct, position in sides])
        predicate = functools.reduce(lambda a, b: _binary("AND", a, b), irs) if kept else None
        operator = Filter(source, predicate, recheck, id(probe) if recheck is not None else None)
        operator.applies = frozenset(applied | {id(conjunct) for conjunct in conjuncts})
        return operator

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
        dml: bool = False,
    ) -> Tuple[Operator, List[Tuple[Optional[str], List[str]]]]:
        """The cheapest access path to a base table: an index probe one of
        *conjuncts* makes available (the WHERE clause when the table drives
        the core, its pushed conjuncts inside a join graph), else the
        sequential scan — a range scan where they bound a column, but for
        the target of a *dml* statement."""
        columns = entry.schema.column_names
        table_stats = self._table_stats(entry.schema.name)
        binding_stats[binding.lower()] = table_stats
        if conjuncts:
            indexed = self._try_index_scan(
                entry, binding, conjuncts, frames, consumed, table_stats
            )
            if indexed is not None:
                return indexed, [(binding, list(columns))]
        scan = (not dml and self._range_scan(entry, binding, conjuncts, frames, binding_stats)) or SeqScan(entry.storage)
        if table_stats is not None:
            scan.est_rows = float(table_stats.row_count)
        return scan, [(binding, list(columns))]

    def _range_scan(
        self,
        entry,
        binding: str,
        conjuncts: List[ast.Expression],
        frames: List[Frame],
        binding_stats: table_stats_mod.BindingStats,
    ) -> Optional[RangeScan]:
        """A :class:`RangeScan` of the column whose non-negated
        :func:`~repro.sqldb.stats.range_sides` by table-independent bounds
        keep the fewest rows by the estimate (on a tie, the first's)."""
        found: Dict[int, List[tuple]] = {}
        for conjunct in conjuncts:
            ways = [] if getattr(conjunct, "negated", False) else range_sides(conjunct)
            for sides in ways:
                bounds = [self._range_bound(entry, binding, frames, conjunct, *side) for side in sides]
                if None not in bounds:
                    found.setdefault(bounds[0][0], []).extend((conjunct, *b[1:]) for b in bounds)
                    break
        if not found:
            return None
        kept = self._selectivity  # priced only where there is a choice
        column = min(found, key=lambda s: len(found) > 1 and kept([c for c, __, __ in found[s]], binding_stats))
        conjuncts, operators, positions = zip(*found[column])
        return RangeScan(entry.storage, column, tuple(zip(map(id, conjuncts), positions)), operators)

    def _range_bound(self, entry, binding: str, frames: List[Frame], conjunct, column, operator: str, value):
        """``(slot, operator, position)`` for *column* if *value*, the conjunct's
        operand at *position*, reads no subquery, only enclosing queries' columns."""
        if not self._own_column(entry, binding, column):
            return None
        context = self._context(frames)
        for node in ast.walk_expression(value):
            if isinstance(node, (ast.ExistsTest, ast.InSubquery, ast.ScalarSubquery)):
                return None
            if isinstance(node, ast.ColumnRef):
                try:
                    if node.qualifier is None and entry.schema.has_column(node.name):
                        return None
                    context.resolve_column(node)
                except SQLError:
                    return None
        parts = (conjunct.operand, conjunct.low, conjunct.high) if isinstance(conjunct, ast.Between) else (conjunct.left, conjunct.right)
        return entry.schema.column_index(column.name), operator, [part is value for part in parts].index(True)

    def _sorted(self, child: Operator, keys: List[IR], descending: List[bool]) -> Sort:
        """A :class:`Sort` of *child* by *keys*, marked to read it in
        leading-key order when they are bare columns, only filters and
        projections lie between it and a :class:`RangeScan` of the leading
        one, and no other is of a type that can hold a NaN."""
        sort = Sort(child, key_columns(len(child.output_names), keys), descending)
        slots = [ir[1] if ir[0] == "slot" else None for ir in keys]
        node = sort.child
        while None not in slots and isinstance(node, (Filter, Project)):
            if isinstance(node, Project):
                slots = [node.exprs[s][1] if node.exprs[s][0] == "slot" else None for s in slots]
            node = node.child
        if None not in slots and isinstance(node, RangeScan) and slots[0] == node.column:
            types = [node.storage.schema.columns[s].sql_type for s in slots[1:]]
            sort.walk = None if DOUBLE in types else node.walk
        return sort

    def _table_stats(self, name: str) -> Optional[table_stats_mod.TableStats]:
        if self.stats is None:
            return None
        return self.stats.get(name)

    def _child(self, cte_columns: Dict[str, List[str]]):
        """A planner of a nested statement: it sees *cte_columns* and shares
        this one's catalog, functions, views, statistics and estimates."""
        return type(self)(
            self.catalog,
            self.functions,
            cte_columns,
            views=self.views,
            expanding_views=self._expanding_views,
            stats=self.stats,
            estimates=self.estimates,
        )

    def _selectivity(self, conjuncts: List[ast.Expression], binding_stats: table_stats_mod.BindingStats) -> float:
        """``condition_selectivity``, with its :func:`~repro.sqldb.stats.bucket`
        in ``estimates`` when a conjunct reads a hidden literal: a text of
        the shape reuses the plan where it falls in the same bucket."""
        selectivity = table_stats_mod.condition_selectivity(conjuncts, binding_stats)
        if self.estimates is not None and any(
            getattr(node, "hidden", None) is not None for c in conjuncts for node in ast.walk_expression(c)
        ):
            self.estimates.append((conjuncts, dict(binding_stats), table_stats_mod.bucket(selectivity)))
        return selectivity

    def _plan_view(self, ref: ast.TableRef, view):
        """Expand a view reference by planning its defining statement.

        The expansion happens below the current query's scope — the query
        modificator never sees the view's internals, which is precisely
        the paper's Section 5.5 limitation — and without the query's CTE
        names: a name in the view means what it meant where it was defined.
        """
        key = ref.name.lower()
        if key in self._expanding_views:
            raise ParseError(f"view {view.name!r} is recursively defined")
        self._expanding_views.add(key)
        try:
            plan = self._child({}).plan_select(view.select)
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
        WHERE-clause discovery order: an indexed column of this table
        pinned by ``=`` (either way round) to a value, by a non-negated
        ``IN`` to a list of them, or to the value set of a non-negated
        uncorrelated one-column subquery.

        Every key must compile independently of the scanned table; duplicate
        *literal* list items are dropped at plan time — ``IN (1, 1)`` probes
        one key (equal values are dropped at run time by the probe).  A
        subquery is planned with every enclosing scope hidden: if that
        succeeds it is uncorrelated by construction, and the residual
        filter's compilation of the same conjunct picks the same
        :class:`CompiledSubquery` out of the core's memo, so its value set
        is built once; one that needs an outer column (or is invalid, or
        has another arity) is left to the residual filter to report.  The
        full WHERE stays as the residual filter above every probe, so NULL
        keys and three-valued logic are handled there.
        """
        paths: List[_AccessPath] = []
        for conjunct in conjuncts:
            if isinstance(conjunct, ast.BinaryOp) and conjunct.operator == "=":
                sides = [(conjunct.left, [conjunct.right]), (conjunct.right, [conjunct.left])]
            elif isinstance(conjunct, ast.InList) and not conjunct.negated:
                sides = [(conjunct.operand, conjunct.items)]
            elif isinstance(conjunct, ast.InSubquery) and not conjunct.negated:
                sides = [(conjunct.operand, None)]
            else:
                continue
            for column, items in sides:
                if not self._own_column(entry, binding, column):
                    continue
                index = entry.storage.find_index([column.name])
                if index is None:
                    continue
                if items is None:
                    try:
                        subquery = self._plan_subquery(conjunct.subquery, [Frame(None)])
                    except SQLError:
                        continue
                    if len(subquery.plan.output_names) != 1:
                        continue
                    est = getattr(subquery.plan.root, "est_rows", None)
                    count = None if est is None else max(1, round(est))
                    lookup = IndexLookup(entry.storage, index, None, subquery)
                else:
                    keys, literals = [], []
                    for item in items:
                        if isinstance(item, ast.Literal):
                            if item.value in literals:
                                continue
                            literals.append(item.value)
                        keys.append(self._lower_independent(item, frames, entry.schema))
                    if not keys or None in keys:
                        continue
                    count = len(keys)
                    equality = id(conjunct) if isinstance(conjunct, ast.BinaryOp) else None
                    lookup = IndexLookup(entry.storage, index, program(keys, KEYS), equality=equality)
                paths.append(
                    _AccessPath(
                        operator=lookup,
                        conjunct=conjunct,
                        unique=index.unique,
                        keys=count,
                        column=column.name.lower(),
                        position=len(paths),
                    )
                )
                break
        return paths

    @staticmethod
    def _own_column(entry, binding: str, column: ast.Expression) -> bool:
        """Is *column* a column of *entry*'s table, read as *binding*?"""
        return (
            isinstance(column, ast.ColumnRef)
            and entry.schema.has_column(column.name)
            and (column.qualifier or binding).lower() == binding.lower()
        )

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

