"""Access paths: how the planner reads one base table.

The cheapest of a sequential scan and the index probes the WHERE clause
(or a join graph leaf's pushed conjuncts) makes available: ``col = v``
on an indexed column, ``col IN (v, ...)`` and ``col IN (SELECT ...)``.
Without statistics the choice is by rule; with them, by cost.  A mixin
of :class:`repro.sqldb.planner.Planner`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from repro.errors import ParseError, SQLError
from repro.sqldb import ast_nodes as ast
from repro.sqldb import stats as table_stats_mod
from repro.sqldb.stats import range_sides
from repro.sqldb.executor import (
    CTEScan,
    Filter,
    HashJoin,
    IndexLookup,
    MultiKeyIndexLookup,
    Operator,
    Project,
    RangeScan,
    SeqScan,
    Sort,
    _Stage,
)
from repro.sqldb.expressions import IR, KEYS, CompileContext, Frame, lower, program
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
        if len(kept) < len(conjuncts) and kept:
            whole = kept[0]
            for conjunct in kept[1:]:
                whole = ast.BinaryOp("AND", whole, conjunct)
        operator = Filter(
            source, lower_one(whole) if kept else None, recheck, id(probe) if recheck is not None else None
        )
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
                bounds = [self._range_bound(entry, binding, frames, *side) for side in sides]
                if None not in bounds:
                    found.setdefault(bounds[0][0], []).extend((conjunct, *b[1:]) for b in bounds)
                    break
        if not found:
            return None
        kept = table_stats_mod.condition_selectivity  # priced only where there is a choice
        column = min(found, key=lambda s: len(found) > 1 and kept([c for c, __, __ in found[s]], binding_stats))
        __, operators, bounds = zip(*found[column])
        return RangeScan(entry.storage, column, program(list(bounds), KEYS), operators)

    def _range_bound(self, entry, binding: str, frames: List[Frame], column, operator: str, value):
        """``(slot, operator, bound)`` for the table's *column*, if *value* is independent of it."""
        own = isinstance(column, ast.ColumnRef) and entry.schema.has_column(column.name)
        if not own or (column.qualifier or binding).lower() != binding.lower():
            return None
        bound = self._lower_independent(value, frames, entry.schema)
        return None if bound is None else (entry.schema.column_index(column.name), operator, bound)

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
            child = type(self)(
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
                lookup = IndexLookup(entry.storage, index, program([key], KEYS))
                lookup.equality = id(conjunct)
                paths.append(
                    _AccessPath(
                        operator=lookup,
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

