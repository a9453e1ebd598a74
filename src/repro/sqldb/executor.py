"""Physical operators and the execution environment.

There is one operator hierarchy.  Every operator exposes ``rows(env)``
yielding plain Python tuples — the classic iterator ("volcano") model —
and the operators that can also work a :class:`~repro.sqldb.columnar.Batch`
at a time carry that body as ``batches(env)`` on the same class.  Under
CPython the per-row cost (a generator resumption plus a closure call per
expression per row) dominates scan-heavy queries; the batch bodies pay
it once per chunk, running expressions through the columnar kernels
compiled by :mod:`repro.sqldb.expressions` (or the row closure over the
batch's row view where no kernel exists, which is identical by
construction).  Both bodies of an operator produce the same rows in the
same order (scan order, left-order hash probe, first-seen group and
distinct order), so comparing them is exact, not set-based.

A plan runs entirely on ``batches`` or entirely on ``rows``
(:func:`repro.sqldb.recursive.run_plan`): each node knows from
construction whether it and everything below it has a batch body
(:attr:`Operator.fallback`).  The row bodies are the only implementation
of index joins, CTE scans, nested loops and set operations, and the
differential oracle for the rest.

Compiled expressions are closures ``(row, env) -> value``; operators are
therefore independent of the AST and can be unit-tested with
hand-written closures.

:class:`ExecutionEnv` carries everything that varies per execution:
statement parameters, the function registry, materialised CTE frames
(rebound per fixpoint iteration by :mod:`repro.sqldb.recursive`), the
outer-row stack used by correlated subqueries, and the uncorrelated
subquery cache with its invalidation epoch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ExecutionError
from repro.sqldb.columnar import BATCH_SIZE, Batch, table_batches
from repro.sqldb.expressions import as_kernel
from repro.sqldb.functions import Aggregator, FunctionRegistry
from repro.sqldb.stats import INDEX_TUPLE_COST, PROBE_COST, SEQ_TUPLE_COST
from repro.sqldb.storage import TableStorage
from repro.sqldb.types import is_null

Row = Tuple[Any, ...]
ExprFn = Callable[[Row, "ExecutionEnv"], Any]


@dataclass
class CTEFrame:
    """A materialised common table expression: column names plus rows."""

    columns: List[str]
    rows: List[Row] = field(default_factory=list)


class ExecutionEnv:
    """Per-execution state threaded through every operator and expression."""

    def __init__(
        self,
        params: Sequence[Any] = (),
        functions: Optional[FunctionRegistry] = None,
        recursion_limit: int = 1_000_000,
    ) -> None:
        self.params = tuple(params)
        self.functions = functions if functions is not None else FunctionRegistry()
        self.recursion_limit = recursion_limit
        self.cte_frames: Dict[str, CTEFrame] = {}
        self.outer_rows: List[Row] = []
        self.cache_epoch = 0
        self.subquery_cache: Dict[int, Tuple[int, Any]] = {}
        self.counters: Dict[str, int] = {
            "rows_scanned": 0,
            "subquery_executions": 0,
            "index_probes": 0,
            # Batches emitted / rows carried by them; stay 0 when the
            # plan runs on the row bodies.
            "vec_batches": 0,
            "vec_rows": 0,
        }
        #: When False, uncorrelated subqueries are re-evaluated every time —
        #: the "no intelligent optimizer" ablation (paper Section 5.3.1).
        self.enable_subquery_cache = True
        #: When False, recursive CTEs are evaluated with the naive fixpoint
        #: (the whole accumulated set re-joined each round) instead of the
        #: semi-naive delta algorithm — an engine ablation.
        self.enable_seminaive = True
        #: Optional :class:`repro.obs.TraceRecorder` threaded down from
        #: the owning :class:`~repro.sqldb.database.Database` (None keeps
        #: execution untraced).
        self.recorder = None
        #: Optional :class:`repro.sqldb.mvcc.Snapshot`: what base-table
        #: access paths hand to the storage so it resolves version chains
        #: at this stamp; None reads the live heap.  Threaded through the
        #: environment (not the plan) because plans are cached and shared
        #: across transactions.
        self.snapshot = None
        #: Which operator bodies the statement's plan ran on (``"columnar"``
        #: or ``"row (columnar fallback: <reason>)"``), set by
        #: :func:`repro.sqldb.recursive.run_plan`; None until a plan runs.
        self.executor: Optional[str] = None
        #: ``id(operator) -> (key count, probed?)`` of the last run of each
        #: priced index probe (:meth:`_IndexProbe._priced_keys`); per
        #: execution because plans are cached and shared.  EXPLAIN ANALYZE
        #: reads it.
        self.probe_runs: Dict[int, Tuple[int, bool]] = {}

    def bind_cte(self, name: str, frame: CTEFrame) -> None:
        """(Re)bind a CTE name; invalidates the uncorrelated-subquery cache
        because cached results may depend on the old binding."""
        self.cte_frames[name.lower()] = frame
        self.cache_epoch += 1

    def cte(self, name: str) -> CTEFrame:
        try:
            return self.cte_frames[name.lower()]
        except KeyError:
            raise ExecutionError(f"CTE {name!r} is not materialised") from None

    def parameter(self, index: int) -> Any:
        if index >= len(self.params):
            raise unbound_parameter(index, len(self.params))
        return self.params[index]


def unbound_parameter(index: int, bound: int) -> ExecutionError:
    """The error for reading ``?`` number *index* when *bound* values were
    bound."""
    return ExecutionError(
        f"statement has a ?-parameter at position {index} but only "
        f"{bound} values were bound"
    )


class Operator:
    """Base class for physical operators.

    ``output_names`` lists the result column names in slot order; they
    drive result-set metadata and star expansion.  ``children`` are the
    node's inputs in the order ``EXPLAIN`` prints them.  ``fallback`` is
    None when this node and everything below it has a ``batches`` body,
    otherwise the reason the plan runs on ``rows``: it names the first
    operator in ``EXPLAIN`` order without one.
    """

    output_names: List[str]
    children: Tuple["Operator", ...]
    fallback: Optional[str]

    def __init__(self, output_names: Sequence[str], *children: "Operator") -> None:
        self.output_names = list(output_names)
        self.children = children
        if type(self).batches is Operator.batches:
            self.fallback = (
                f"operator {type(self).__name__} has no vectorized implementation"
            )
        else:
            self.fallback = next(
                (child.fallback for child in children if child.fallback), None
            )

    def label(self) -> str:
        """This node's line in ``EXPLAIN``."""
        return type(self).__name__

    def rows(self, env: ExecutionEnv) -> Iterator[Row]:
        raise NotImplementedError

    def batches(self, env: ExecutionEnv) -> Iterator[Batch]:
        """The rows of :meth:`rows`, in order, as :class:`Batch` chunks."""
        raise NotImplementedError

    def _emit(self, batch: Batch, env: ExecutionEnv) -> Batch:
        """Account one outgoing batch in the execution counters."""
        counters = env.counters
        counters["vec_batches"] += 1
        counters["vec_rows"] += batch.length
        return batch

    def _materialised(self, rows: List[Row], env: ExecutionEnv) -> Iterator[Batch]:
        """Re-chunk a materialised row list into output batches."""
        arity = len(self.output_names)
        for start in range(0, len(rows), BATCH_SIZE):
            yield self._emit(Batch.from_rows(rows[start : start + BATCH_SIZE], arity), env)

    def row_ids(self, env: ExecutionEnv) -> Iterator[int]:
        """Ids of the live-heap rows this operator would produce.

        The protocol of an UPDATE/DELETE target plan, which must know
        *which* slots to lock and change: only the base-table access
        paths and a :class:`Filter` directly above one implement it.
        Always the current heap, never a snapshot — read-only
        transactions cannot write.
        """
        raise NotImplementedError


class _TableAccess(Operator):
    """An access path to one base table: what can say *which* rows it
    produced (:meth:`Operator.row_ids`), not only what was in them."""

    def __init__(self, storage: TableStorage) -> None:
        super().__init__(storage.schema.column_names)
        self.storage = storage


class SeqScan(_TableAccess):
    """Full scan of a base table; batch-wise over its cached column chunks."""

    def label(self) -> str:
        return f"SeqScan({self.storage.schema.name})"

    def rows(self, env: ExecutionEnv) -> Iterator[Row]:
        return _scanned(self.storage.rows(env.snapshot), env)

    def batches(self, env: ExecutionEnv) -> Iterator[Batch]:
        for batch in table_batches(self.storage, snapshot=env.snapshot):
            env.counters["rows_scanned"] += batch.length
            yield self._emit(batch, env)

    def row_ids(self, env: ExecutionEnv) -> Iterator[int]:
        return _scanned((row_id for row_id, __ in self.storage.scan()), env)


def _scanned(items: Iterator[Any], env: ExecutionEnv) -> Iterator[Any]:
    """Pass *items* through, charging each to ``rows_scanned``."""
    counters = env.counters
    for item in items:
        counters["rows_scanned"] += 1
        yield item


class _IndexProbe(_TableAccess):
    """Equality probes into a hash index of a base table, one per key.

    Subclasses enumerate the keys (:meth:`_keys`); everything else lives
    here once.  The keys are priced as soon as they are known — each
    execution, since a plan is cached across data changes — against one
    scan of the table as it stands (:meth:`_priced_keys`), and when the
    scan is cheaper the node *is* a :class:`SeqScan`: the planner keeps
    the whole WHERE as the residual filter above every access path, so
    that filter keeps exactly the rows the probes would have produced.
    The probe loop serves all three consumers: ``rows`` and ``batches``
    ask the storage for the rows its snapshot (or the live heap) shows
    under each key, and ``row_ids`` — how a DML statement locates its
    target rows, always on the live heap — asks the index for the ids.
    """

    def __init__(self, storage: TableStorage, index, key_fns: List[ExprFn]) -> None:
        super().__init__(storage)
        self.index = index
        self.key_fns = key_fns

    def _keys(self, env: ExecutionEnv) -> Sequence[Tuple[Any, ...]]:
        """The distinct keys to probe, in probe order."""
        raise NotImplementedError

    def _priced_keys(self, env: ExecutionEnv) -> Optional[Sequence[Tuple[Any, ...]]]:
        """The keys to probe, or None when one scan of the table is cheaper.

        ``index_probe_cost(keys, rows_out) < seq_scan_cost(table_rows)``
        spelt out over the counts the storage keeps anyway — the live row
        count and the index's bucket count, whose ratio is its uniform
        rows-per-key — so pricing needs no statistics and calls nothing.
        A unique index is never priced: a probe returns at most one row.
        """
        keys = self._keys(env)
        index = self.index
        if index.unique:
            return keys
        count = len(keys)
        table_rows = self.storage._live_count
        distinct = len(index._buckets)
        rows_out = count * table_rows / distinct if distinct else 0.0
        probed = (
            PROBE_COST * count + INDEX_TUPLE_COST * rows_out
            < SEQ_TUPLE_COST * table_rows
        )
        env.probe_runs[id(self)] = (count, probed)
        return keys if probed else None

    def rows(self, env: ExecutionEnv) -> Iterator[Row]:
        keys = self._priced_keys(env)
        if keys is None:
            return SeqScan.rows(self, env)
        return self._probe(
            keys, env, partial(self.storage.probe, self.index, snapshot=env.snapshot)
        )

    def batches(self, env: ExecutionEnv) -> Iterator[Batch]:
        """The scan's cached column chunks when priced out, else the
        probed rows as one batch."""
        keys = self._priced_keys(env)
        if keys is None:
            yield from SeqScan.batches(self, env)
            return
        found = list(
            self._probe(
                keys, env, partial(self.storage.probe, self.index, snapshot=env.snapshot)
            )
        )
        if found:
            yield self._emit(Batch.from_rows(found, len(self.output_names)), env)

    def row_ids(self, env: ExecutionEnv) -> Iterator[int]:
        keys = self._priced_keys(env)
        if keys is None:
            return SeqScan.row_ids(self, env)
        return self._probe(keys, env, self.index.probe)

    def _probe(
        self,
        keys: Iterable[Tuple[Any, ...]],
        env: ExecutionEnv,
        probe: Callable[[Tuple[Any, ...]], List[Any]],
    ) -> Iterator[Any]:
        counters = env.counters
        for key in keys:
            counters["index_probes"] += 1
            for found in probe(key):
                counters["rows_scanned"] += 1
                yield found


class IndexLookup(_IndexProbe):
    """Equality probe into a hash index of a base table.

    ``key_fns`` compute the probe key; they may reference outer rows (for
    correlated lookups) but never the scanned table itself.
    """

    def label(self) -> str:
        return f"IndexLookup({self.storage.schema.name} via {self.index.name})"

    def _keys(self, env: ExecutionEnv) -> Sequence[Tuple[Any, ...]]:
        return [tuple([fn((), env) for fn in self.key_fns])]


class MultiKeyIndexLookup(_IndexProbe):
    """One equality probe per distinct non-NULL key of an ``IN`` predicate.

    Two key sources share the probe loop.  ``key_fns`` (``col IN (?, ?,
    ?)``) is the access path behind the level-at-a-time frontier fetch:
    all children of N parents in one indexed statement instead of N
    scans.  ``subquery`` (``col IN (SELECT ...)``, uncorrelated, one
    column) drives the outer table from the subquery side — the outer
    ``link`` block of the recursive expand costs what its answer costs
    instead of a scan of every link.  A subquery's key count is exact only
    once it has run (a CTE has no plan-time cardinality at all), which is
    when every key source is priced anyway.

    Keys are deduplicated before probing — IN is a predicate, so a row
    must appear once even when its key is named twice — and NULL keys are
    skipped (equality with NULL can never match; the residual filter
    above this operator owns the three-valued semantics).  Subquery keys
    are probed in first-seen order of the subquery's rows, so row order
    never depends on hash layout.
    """

    def __init__(
        self,
        storage: TableStorage,
        index,
        key_fns: List[ExprFn],
        subquery=None,
    ) -> None:
        super().__init__(storage, index, key_fns)
        #: :class:`repro.sqldb.planner.CompiledSubquery` supplying the
        #: keys instead of ``key_fns`` (the same object the residual
        #: filter tests membership against, so it is evaluated once).
        self.subquery = subquery

    def label(self) -> str:
        keys = (
            f"{len(self.key_fns)} keys"
            if self.subquery is None
            else "keys from subquery"
        )
        return (
            f"MultiKeyIndexLookup({self.storage.schema.name} "
            f"via {self.index.name}, {keys})"
        )

    def _keys(self, env: ExecutionEnv) -> Sequence[Tuple[Any, ...]]:
        if self.subquery is None:
            values = dict.fromkeys(fn((), env) for fn in self.key_fns)
            values.pop(None, None)
        else:
            values = self.subquery.value_set((), env)[0]
        return list(zip(values))  # one-column keys: (value,) per value


class CTEScan(Operator):
    """Scan of a materialised CTE frame looked up by name at runtime.

    The late lookup is what lets the recursive evaluator rebind the name to
    the per-iteration delta without re-planning.
    """

    def __init__(self, name: str, columns: List[str]) -> None:
        super().__init__(columns)
        self.name = name

    def label(self) -> str:
        return f"CTEScan({self.name})"

    def rows(self, env: ExecutionEnv) -> Iterator[Row]:
        frame = env.cte(self.name)
        for row in frame.rows:
            env.counters["rows_scanned"] += 1
            yield row


class RowsSource(Operator):
    """An operator over a pre-materialised list of rows (derived tables,
    VALUES lists, test fixtures)."""

    def __init__(self, columns: List[str], rows: List[Row]) -> None:
        super().__init__(columns)
        self._rows = rows

    def label(self) -> str:
        return "Values"

    def rows(self, env: ExecutionEnv) -> Iterator[Row]:
        return iter(self._rows)

    def batches(self, env: ExecutionEnv) -> Iterator[Batch]:
        yield from self._materialised(self._rows, env)


class Filter(Operator):
    """Keep rows for which the predicate is TRUE (not FALSE, not UNKNOWN)."""

    def __init__(self, child: Operator, predicate: ExprFn) -> None:
        super().__init__(child.output_names, child)
        self.child = child
        self.predicate = predicate
        self.kernel = as_kernel(predicate)

    def rows(self, env: ExecutionEnv) -> Iterator[Row]:
        predicate = self.predicate
        for row in self.child.rows(env):
            if predicate(row, env) is True:
                yield row

    def batches(self, env: ExecutionEnv) -> Iterator[Batch]:
        """A batch the predicate fully accepts passes through untouched
        (the common case for selective scans is all-or-mostly matches per
        chunk); otherwise matching positions are gathered into a fresh
        batch.  A batch of one row — a point probe's — is tested with the
        row closure, which costs what the row body costs."""
        kernel = self.kernel
        predicate = self.predicate
        for batch in self.child.batches(env):
            if batch.length == 1:
                if predicate(batch.rows()[0], env) is True:
                    yield self._emit(batch, env)
                continue
            mask = kernel(batch, env)
            # Strict identity (`is True`), like ``rows``: a predicate
            # yielding a plain 1 does not keep the row in either body.
            selected = [i for i, value in enumerate(mask) if value is True]
            if len(selected) == batch.length:
                yield self._emit(batch, env)
            elif selected:
                yield self._emit(batch.gather(selected), env)

    def row_ids(self, env: ExecutionEnv) -> Iterator[int]:
        source = self.child
        if not isinstance(source, _TableAccess):
            raise NotImplementedError(
                "row ids exist only directly above a base-table access path"
            )
        predicate = self.predicate
        fetch = source.storage.fetch
        for row_id in source.row_ids(env):
            if predicate(fetch(row_id), env) is True:
                yield row_id


class Project(Operator):
    """Compute the select list."""

    def __init__(self, child: Operator, exprs: List[ExprFn], names: List[str]) -> None:
        super().__init__(names, child)
        self.child = child
        self.exprs = exprs
        self.kernels = [as_kernel(fn) for fn in exprs]
        #: Every output slot reads the same input slot (``SELECT *``):
        #: batches pass through as they are.
        self.identity = len(exprs) == len(child.output_names) and all(
            getattr(fn, "column_slot", None) == slot for slot, fn in enumerate(exprs)
        )

    def label(self) -> str:
        return f"Project({', '.join(self.output_names)})"

    def rows(self, env: ExecutionEnv) -> Iterator[Row]:
        exprs = self.exprs
        for row in self.child.rows(env):
            yield tuple(fn(row, env) for fn in exprs)

    def batches(self, env: ExecutionEnv) -> Iterator[Batch]:
        """Column-at-a-time — no row materialisation — except for a batch
        of one row, which the row closures project as ``rows`` would."""
        if self.identity:
            for batch in self.child.batches(env):
                yield self._emit(batch, env)
            return
        exprs = self.exprs
        kernels = self.kernels
        arity = len(self.output_names)
        for batch in self.child.batches(env):
            if batch.length == 1:
                row = batch.rows()[0]
                projected = [tuple([fn(row, env) for fn in exprs])]
                yield self._emit(Batch.from_rows(projected, arity), env)
                continue
            columns = [kernel(batch, env) for kernel in kernels]
            yield self._emit(Batch(columns, batch.length), env)


class NestedLoopJoin(Operator):
    """Tuple-at-a-time join supporting INNER, LEFT and CROSS kinds.

    The right child is materialised once (it may be an arbitrary subplan);
    the full ON condition is evaluated on concatenated rows.
    """

    def __init__(
        self,
        left: Operator,
        right: Operator,
        condition: Optional[ExprFn],
        kind: str = "INNER",
    ) -> None:
        super().__init__(left.output_names + right.output_names, left, right)
        self.left = left
        self.right = right
        self.condition = condition
        self.kind = kind

    def label(self) -> str:
        return f"NestedLoopJoin({'CROSS' if self.condition is None else self.kind})"

    def rows(self, env: ExecutionEnv) -> Iterator[Row]:
        right_rows = list(self.right.rows(env))
        pad = (None,) * len(self.right.output_names)
        for left_row in self.left.rows(env):
            matched = False
            for right_row in right_rows:
                combined = left_row + right_row
                if self.condition is None or self.condition(combined, env) is True:
                    matched = True
                    yield combined
            if self.kind == "LEFT" and not matched:
                yield left_row + pad


class HashJoin(Operator):
    """Equi-join: build a hash table on the right child, probe with left.

    ``left_keys``/``right_keys`` are closures evaluated against the child
    rows *alone* (right keys see the right row padded into the combined
    slot layout is unnecessary — they are compiled against the right scope
    only).  A residual condition, if any, is checked on combined rows.
    """

    def __init__(
        self,
        left: Operator,
        right: Operator,
        left_keys: List[ExprFn],
        right_keys: List[ExprFn],
        residual: Optional[ExprFn] = None,
        kind: str = "INNER",
    ) -> None:
        super().__init__(left.output_names + right.output_names, left, right)
        self.left = left
        self.right = right
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.left_kernels = [as_kernel(fn) for fn in left_keys]
        self.right_kernels = [as_kernel(fn) for fn in right_keys]
        self.residual = residual
        self.kind = kind

    def label(self) -> str:
        return f"HashJoin({len(self.left_keys)} key(s))"

    def rows(self, env: ExecutionEnv) -> Iterator[Row]:
        table: Dict[Tuple[Any, ...], List[Row]] = {}
        for right_row in self.right.rows(env):
            key = tuple(fn(right_row, env) for fn in self.right_keys)
            if any(is_null(part) for part in key):
                continue  # NULL never equi-joins
            table.setdefault(key, []).append(right_row)
        pad = (None,) * len(self.right.output_names)
        for left_row in self.left.rows(env):
            key = tuple(fn(left_row, env) for fn in self.left_keys)
            matched = False
            if not any(is_null(part) for part in key):
                for right_row in table.get(key, ()):
                    combined = left_row + right_row
                    if self.residual is None or self.residual(combined, env) is True:
                        matched = True
                        yield combined
            if self.kind == "LEFT" and not matched:
                yield left_row + pad

    def batches(self, env: ExecutionEnv) -> Iterator[Batch]:
        """Batched build and probe: key columns come from kernels, right
        rows are inserted in scan order and the left child is walked in
        order, so the output order is that of ``rows``."""
        table: Dict[Tuple[Any, ...], List[Row]] = {}
        for batch in self.right.batches(env):
            key_columns = [kernel(batch, env) for kernel in self.right_kernels]
            rows = batch.rows()
            for i, key in enumerate(zip(*key_columns)):
                if any(part is None for part in key):
                    continue  # NULL never equi-joins
                table.setdefault(key, []).append(rows[i])
        pad = (None,) * len(self.right.output_names)
        residual = self.residual
        pad_left = self.kind == "LEFT"
        for batch in self.left.batches(env):
            key_columns = [kernel(batch, env) for kernel in self.left_kernels]
            left_rows = batch.rows()
            out: List[Row] = []
            append = out.append
            for i, key in enumerate(zip(*key_columns)):
                left_row = left_rows[i]
                matched = False
                if not any(part is None for part in key):
                    for right_row in table.get(key, ()):
                        combined = left_row + right_row
                        if residual is None or residual(combined, env) is True:
                            matched = True
                            append(combined)
                if pad_left and not matched:
                    append(left_row + pad)
            if out:
                yield self._emit(Batch.from_rows(out, len(self.output_names)), env)


class IndexNestedLoopJoin(Operator):
    """Join probing a base-table hash index once per left row.

    This is the operator that makes the paper-scale simulations feasible:
    the navigational child fetch and the recursive branch both join the
    working set against ``link`` (and then against ``assy``/``comp``) on
    indexed equality keys.  ``left_key_fns`` are compiled against the left
    scope; the residual condition (the full ON clause) is verified on the
    combined row, so a partially-matching index never loses correctness.
    """

    def __init__(
        self,
        left: Operator,
        storage: TableStorage,
        index,
        left_key_fns: List[ExprFn],
        residual: Optional[ExprFn],
        kind: str = "INNER",
    ) -> None:
        super().__init__(left.output_names + list(storage.schema.column_names), left)
        self.left = left
        self.storage = storage
        self.index = index
        self.left_key_fns = left_key_fns
        self.residual = residual
        self.kind = kind

    def label(self) -> str:
        return (
            f"IndexNestedLoopJoin({self.kind} probe "
            f"{self.storage.schema.name} via {self.index.name})"
        )

    def rows(self, env: ExecutionEnv) -> Iterator[Row]:
        pad = (None,) * self.storage.schema.arity
        probe, index, snapshot = self.storage.probe, self.index, env.snapshot
        for left_row in self.left.rows(env):
            key = tuple(fn(left_row, env) for fn in self.left_key_fns)
            env.counters["index_probes"] += 1
            matched = False
            for right_row in probe(index, key, snapshot):
                env.counters["rows_scanned"] += 1
                combined = left_row + right_row
                if self.residual is None or self.residual(combined, env) is True:
                    matched = True
                    yield combined
            if self.kind == "LEFT" and not matched:
                yield left_row + pad


class UnionAll(Operator):
    """Concatenate children (arity checked at plan time)."""

    def __init__(self, children: List[Operator]) -> None:
        super().__init__(children[0].output_names, *children)

    def rows(self, env: ExecutionEnv) -> Iterator[Row]:
        for child in self.children:
            for row in child.rows(env):
                yield row

    def batches(self, env: ExecutionEnv) -> Iterator[Batch]:
        for child in self.children:
            for batch in child.batches(env):
                yield self._emit(batch, env)


class Distinct(Operator):
    """Remove duplicate rows, first occurrence wins (used for UNION and
    SELECT DISTINCT)."""

    def __init__(self, child: Operator) -> None:
        super().__init__(child.output_names, child)
        self.child = child

    def rows(self, env: ExecutionEnv) -> Iterator[Row]:
        seen = set()
        for row in self.child.rows(env):
            if row not in seen:
                seen.add(row)
                yield row

    def batches(self, env: ExecutionEnv) -> Iterator[Batch]:
        seen: set = set()
        arity = len(self.output_names)
        for batch in self.child.batches(env):
            out: List[Row] = []
            for row in batch.rows():
                if row not in seen:
                    seen.add(row)
                    out.append(row)
            if out:
                yield self._emit(Batch.from_rows(out, arity), env)


class _SetOperation(Operator):
    """Two inputs of equal arity; the output takes the left one's names."""

    def __init__(self, left: Operator, right: Operator) -> None:
        super().__init__(left.output_names, left, right)
        self.left = left
        self.right = right


class SetDifference(_SetOperation):
    """EXCEPT (distinct) — rows of left not present in right."""

    def label(self) -> str:
        return "Except"

    def rows(self, env: ExecutionEnv) -> Iterator[Row]:
        exclude = set(self.right.rows(env))
        seen = set()
        for row in self.left.rows(env):
            if row not in exclude and row not in seen:
                seen.add(row)
                yield row


class SetIntersection(_SetOperation):
    """INTERSECT (distinct) — rows occurring in both children."""

    def label(self) -> str:
        return "Intersect"

    def rows(self, env: ExecutionEnv) -> Iterator[Row]:
        keep = set(self.right.rows(env))
        seen = set()
        for row in self.left.rows(env):
            if row in keep and row not in seen:
                seen.add(row)
                yield row


@dataclass
class AggregateSpec:
    """One aggregate computation: function name, input closure, flags."""

    name: str
    argument: Optional[ExprFn]
    distinct: bool = False
    star: bool = False

    def new_aggregator(self) -> Aggregator:
        return Aggregator(self.name, distinct=self.distinct, star=self.star)


class Aggregate(Operator):
    """Hash aggregation.

    Output rows are ``group key values + aggregate values``; the planner
    compiles the select list and HAVING against that synthetic layout.
    With no GROUP BY there is exactly one (possibly empty) group, matching
    SQL's scalar-aggregate semantics.  Groups come out in first-seen
    order; both bodies accumulate into the same
    :class:`~repro.sqldb.functions.Aggregator` state machines — ``rows``
    with one ``add`` per row, ``batches`` with one ``add_many`` per group
    per batch, which leaves the state the ``add`` loop would — so DISTINCT
    handling, NULL screening and result typing cannot diverge.
    """

    def __init__(
        self,
        child: Operator,
        group_exprs: List[ExprFn],
        aggregates: List[AggregateSpec],
        output_names: List[str],
    ) -> None:
        super().__init__(output_names, child)
        self.child = child
        self.group_exprs = group_exprs
        self.aggregates = aggregates
        self.group_kernels = [as_kernel(fn) for fn in group_exprs]
        self.arg_kernels = [
            None if spec.star else as_kernel(spec.argument) for spec in aggregates
        ]

    def label(self) -> str:
        return (
            f"Aggregate({len(self.group_exprs)} group key(s), "
            f"{len(self.aggregates)} aggregate(s))"
        )

    def _new_group(self) -> List[Aggregator]:
        return [spec.new_aggregator() for spec in self.aggregates]

    def _results(self, groups: Dict[Tuple[Any, ...], List[Aggregator]]) -> List[Row]:
        if not self.group_exprs and not groups:
            # SELECT COUNT(*) FROM empty_table must yield one row.
            groups[()] = self._new_group()
        return [
            key + tuple(aggregator.result() for aggregator in aggregators)
            for key, aggregators in groups.items()
        ]

    def rows(self, env: ExecutionEnv) -> Iterator[Row]:
        groups: Dict[Tuple[Any, ...], List[Aggregator]] = {}
        for row in self.child.rows(env):
            key = tuple(fn(row, env) for fn in self.group_exprs)
            aggregators = groups.get(key)
            if aggregators is None:
                aggregators = groups[key] = self._new_group()
            for spec, aggregator in zip(self.aggregates, aggregators):
                if spec.star:
                    aggregator.add(None)
                else:
                    aggregator.add(spec.argument(row, env))
        yield from self._results(groups)

    def batches(self, env: ExecutionEnv) -> Iterator[Batch]:
        """Group keys and aggregate arguments computed per batch by
        kernels; each aggregate folds its column slice per group with one
        :meth:`~repro.sqldb.functions.Aggregator.add_many` call."""
        groups: Dict[Tuple[Any, ...], List[Aggregator]] = {}
        for batch in self.child.batches(env):
            length = batch.length
            if not length:
                continue
            key_columns = [kernel(batch, env) for kernel in self.group_kernels]
            arg_columns = [
                None if kernel is None else kernel(batch, env)
                for kernel in self.arg_kernels
            ]
            if key_columns:
                # Each group's row positions, groups in first-seen order.
                positions: Dict[Tuple[Any, ...], Any] = {}
                for i, key in enumerate(zip(*key_columns)):
                    at = positions.get(key)
                    if at is None:
                        positions[key] = [i]
                    else:
                        at.append(i)
            else:
                positions = {(): range(length)}
            for key, at in positions.items():
                aggregators = groups.get(key)
                if aggregators is None:
                    aggregators = groups[key] = self._new_group()
                whole = len(at) == length
                for column, aggregator in zip(arg_columns, aggregators):
                    if column is None:
                        aggregator.add_many(at)  # COUNT(*): only the length counts
                    elif whole:
                        aggregator.add_many(column)
                    else:
                        aggregator.add_many(list(map(column.__getitem__, at)))
        yield from self._materialised(self._results(groups), env)


class Sort(Operator):
    """Stable multi-key sort; NULLs sort last ascending, first descending."""

    def __init__(self, child: Operator, keys: List[Tuple[ExprFn, bool]]) -> None:
        super().__init__(child.output_names, child)
        self.child = child
        self.keys = keys  # (closure, descending)

    def label(self) -> str:
        return f"Sort({len(self.keys)} key(s))"

    def _sorted(self, materialised: List[Row], env: ExecutionEnv) -> List[Row]:
        # Stable sort by least-significant key first.
        for key_fn, descending in reversed(self.keys):
            materialised.sort(
                key=lambda row: _null_safe_key(key_fn(row, env)),
                reverse=descending,
            )
        return materialised

    def rows(self, env: ExecutionEnv) -> Iterator[Row]:
        return iter(self._sorted(list(self.child.rows(env)), env))

    def batches(self, env: ExecutionEnv) -> Iterator[Batch]:
        materialised: List[Row] = []
        for batch in self.child.batches(env):
            materialised.extend(batch.rows())
        yield from self._materialised(self._sorted(materialised, env), env)


def _null_safe_key(value: Any):
    """Total-order key: NULL greatest, numbers before strings by type rank."""
    if is_null(value):
        return (2, 0)
    if isinstance(value, bool):
        return (0, int(value))
    if isinstance(value, (int, float)):
        return (0, value)
    return (1, str(value))


class _RowCount(Operator):
    """One input and a row count N from a compiled expression (it may be
    a ``?`` parameter); NULL and negative counts are 0."""

    def __init__(self, child: Operator, count_fn: ExprFn) -> None:
        super().__init__(child.output_names, child)
        self.child = child
        self.count_fn = count_fn

    def _count(self, env: ExecutionEnv) -> int:
        count = self.count_fn((), env)
        return 0 if is_null(count) else max(0, int(count))


class Offset(_RowCount):
    """Skip the first N rows — across batch boundaries in ``batches``."""

    def rows(self, env: ExecutionEnv) -> Iterator[Row]:
        skip = self._count(env)
        for position, row in enumerate(self.child.rows(env)):
            if position >= skip:
                yield row

    def batches(self, env: ExecutionEnv) -> Iterator[Batch]:
        skip = self._count(env)
        for batch in self.child.batches(env):
            if skip == 0:
                yield self._emit(batch, env)
            elif skip >= batch.length:
                skip -= batch.length
            else:
                yield self._emit(batch.gather(list(range(skip, batch.length))), env)
                skip = 0


class Limit(_RowCount):
    """Yield at most N rows — truncating the final batch in ``batches``."""

    def rows(self, env: ExecutionEnv) -> Iterator[Row]:
        remaining = self._count(env)
        if remaining == 0:
            return
        for row in self.child.rows(env):
            yield row
            remaining -= 1
            if remaining == 0:
                return

    def batches(self, env: ExecutionEnv) -> Iterator[Batch]:
        remaining = self._count(env)
        if remaining == 0:
            return
        for batch in self.child.batches(env):
            if batch.length <= remaining:
                remaining -= batch.length
                yield self._emit(batch, env)
                if remaining == 0:
                    return
            else:
                yield self._emit(batch.gather(list(range(remaining))), env)
                return
