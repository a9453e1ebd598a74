"""Physical operators and the execution environment.

There is one operator hierarchy and one protocol: ``batches(env,
budget)`` returns an operator's rows, in order, as
:class:`~repro.sqldb.columnar.Batch` chunks.  Row order is defined: scan
order, key order of an index probe, left order then probe order of a
join, frame order of a CTE scan, first-seen order of groups, DISTINCT
and set operations.

A chain of non-blocking operators — ``Filter``, ``Project`` and the
joins, the *stages* — over a *source* (any other operator) is a
*pipeline*, and runs as one generated loop (:mod:`repro.sqldb.pipelines`):
:func:`fuse` builds it when the plan is built, and the top stage runs it,
or a *sink* above the top — ``Aggregate``, ``Distinct``, a set operation,
a hash join's build — collecting its rows; the stages below the top
(``fused``) run nothing themselves.  The rows between two stages are
never built, gathered or counted.

The *budget* is how many more rows the consumer may take.  ``Limit``,
``EXISTS`` (1), a scalar subquery (2) and the recursive fixpoint (its
recursion limit minus what it holds, plus one) set it, and it is handed
down the tree: no operator puts more rows than the budget in one batch,
so a producer stops where the consumer stops — ``SELECT 10 / v FROM t
LIMIT 2`` divides twice.  Operators that must see all of an input (the
build side of a join, a sort, an aggregate, a set operation's right
side) read it with :data:`UNBOUNDED`.  A pipeline hands its top's budget
to its source and runs each batch it gets through the whole loop: a
filter cannot know how many of its input rows will pass, so a pipeline
may read up to a budget's worth of rows past the last one its consumer
takes, and a join tests every match of its left batch (DESIGN §10).

A body returns a tuple when its output is computed already and fits in
one batch, else an iterator that computes each batch as it is pulled;
an operator over a computed input computes its own output at once, so a
pipeline that sees one batch — a point query, a fixpoint round — runs
without a generator.

A sort holds the generated :class:`~repro.sqldb.expressions.Program` of
its keys; a stage or a sink holds its expressions' IR, which its
pipeline compiles.

:class:`ExecutionEnv` carries everything that varies per execution:
statement parameters, the function registry, materialised CTE frames
(rebound per fixpoint iteration by :mod:`repro.sqldb.recursive`), the
outer-row stack used by correlated subqueries, and the uncorrelated
subquery cache with its invalidation epoch.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from heapq import nlargest, nsmallest
from itertools import chain, compress, repeat
from operator import ge, le, methodcaller, ne
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    cast,
)

from repro.errors import ExecutionError
from repro.sqldb.columnar import BATCH_SIZE, Batch, in_order, sorted_column, table_batches
from repro.sqldb.expressions import IR, KEYS, Program, _unequal, program as compiled  # CPython 3.11: an imported "program" would cost run()'s program.row(...) its LOAD_METHOD
from repro.sqldb.pipelines import (
    BUILD,
    DISTINCT,
    FILTER,
    GROUPS,
    JOIN,
    PROJECT,
    RECHECK,
    ROWS,
    key_classes,
    pipeline,
)
from repro.sqldb.functions import FunctionRegistry, fold
from repro.sqldb.stats import GATHER_TUPLE_COST, INDEX_TUPLE_COST, PROBE_COST, SEQ_TUPLE_COST
from repro.sqldb.storage import TableStorage
from repro.sqldb.types import converter, is_null

Row = Tuple[Any, ...]
ExprFn = Callable[[Row, "ExecutionEnv"], Any]

#: The budget of a consumer that takes every row.
UNBOUNDED = sys.maxsize


class ExecutionEnv:
    """Per-execution state threaded through every operator and expression."""

    #: Bumped on every CTE rebinding (see :meth:`bind_cte`).
    cache_epoch = 0
    #: Optional :class:`repro.obs.TraceRecorder` threaded down from the
    #: owning :class:`~repro.sqldb.database.Database` (None keeps
    #: execution untraced).
    recorder = None
    #: The literals a plan shared by a statement shape reads (``Plan.hidden``).
    hidden: Tuple[Any, ...] = ()
    #: Optional :class:`repro.sqldb.mvcc.Snapshot`: what base-table access
    #: paths hand to the storage so it resolves version chains at this
    #: stamp; None reads the live heap.  Threaded through the environment
    #: (not the plan) because plans are cached and shared across
    #: transactions.
    snapshot = None

    def __init__(
        self,
        params: Sequence[Any] = (),
        functions: Optional[FunctionRegistry] = None,
        recursion_limit: int = 1_000_000,
    ) -> None:
        self.params = tuple(params)
        self.functions = functions if functions is not None else FunctionRegistry()
        self.recursion_limit = recursion_limit
        #: CTE name (lower) -> its materialised rows as one batch.
        self.cte_frames: Dict[str, Batch] = {}
        self.outer_rows: List[Row] = []
        self.subquery_cache: Dict[int, Tuple[int, Any]] = {}
        self.counters: Dict[str, int] = {
            "rows_scanned": 0,
            "subquery_executions": 0,
            "index_probes": 0,
        }
        #: ``id(operator) -> (key count, probed?)`` of the last run of each
        #: priced index probe (:meth:`IndexLookup._priced_keys`); per
        #: execution because plans are cached and shared.  EXPLAIN ANALYZE
        #: reads it.
        self.probe_runs: Dict[int, Tuple[int, bool]] = {}
        #: ``id(operator)`` of each index probe priced out to a scan.  The
        #: one probe a filter rechecks, an ``=`` ``IndexLookup``, is priced
        #: the same on every run of one execution.
        self.scans: set = set()
        #: ``id(RangeScan) ->`` how its next read walks (:meth:`RangeScan.walk`).
        self.orders: Dict[int, tuple] = {}
    def bind_cte(self, name: str, frame: Batch) -> None:
        """(Re)bind a CTE name; invalidates the uncorrelated-subquery cache
        because cached results may depend on the old binding."""
        self.cte_frames[name.lower()] = frame
        self.cache_epoch += 1

    def cte(self, name: str) -> Batch:
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
    node's inputs in the order ``EXPLAIN`` prints them.
    """

    output_names: List[str]
    children: Tuple["Operator", ...]
    #: A stage inside a pipeline, run by the pipeline's top (:func:`fuse`).
    fused = False

    def __init__(self, output_names: Sequence[str], *children: "Operator") -> None:
        self.output_names = list(output_names)
        self.children = children

    def label(self) -> str:
        """This node's line in ``EXPLAIN``."""
        return type(self).__name__

    def batches(self, env: ExecutionEnv, budget: int) -> Iterable[Batch]:
        """This operator's rows, in order, in non-empty batches of at
        most *budget* rows: a tuple of at most one batch when they are
        computed already, else an iterator computing each as it is
        pulled."""
        raise NotImplementedError

    def row_ids(self, env: ExecutionEnv) -> Iterator[int]:
        """Ids of the live-heap rows this operator would produce.

        The protocol of an UPDATE/DELETE target plan, which must know
        *which* slots to lock and change: only the base-table access
        paths and a :class:`Filter` directly above one implement it.
        Always the current heap, never a snapshot — read-only
        transactions cannot write.
        """
        raise NotImplementedError


def as_batches(rows: List[Row], budget: int) -> Iterable[Batch]:
    """*rows* in batches of at most *budget* (and ``BATCH_SIZE``) rows:
    a tuple when they fit in one, else each built as it is pulled."""
    size = budget if budget < BATCH_SIZE else BATCH_SIZE
    if len(rows) <= size:
        return (Batch(rows),) if rows else ()
    return (Batch(rows[start : start + size]) for start in range(0, len(rows), size))


def plan_rows(operator: Operator, env: ExecutionEnv) -> List[Row]:
    """Every row of *operator*, in order."""
    rows: List[Row] = []
    for batch in operator.batches(env, UNBOUNDED):
        rows += batch
    return rows


def declared_classes(storage: TableStorage, index) -> List[frozenset]:
    """The :func:`~repro.sqldb.pipelines.key_classes` of each column of
    *index*, whose declared type stands for the values it holds."""
    columns = storage.schema.columns
    return [key_classes([converter(columns[p].sql_type)(0)]) for p in index.column_positions]


class _TableAccess(Operator):
    """An access path to one base table: what can say *which* rows it
    produced (:meth:`Operator.row_ids`), not only what was in them."""

    def __init__(self, storage: TableStorage) -> None:
        super().__init__(storage.schema.column_names)
        self.storage = storage


class SeqScan(_TableAccess):
    """Full scan of a base table over its cached column chunks."""

    def label(self) -> str:
        return f"SeqScan({self.storage.schema.name})"

    def batches(self, env: ExecutionEnv, budget: int) -> Iterable[Batch]:
        """The cached chunks, sliced to the budget."""
        chunks = table_batches(self.storage, snapshot=env.snapshot)
        if len(chunks) == 1 and len(chunks[0]) <= budget:
            env.counters["rows_scanned"] += len(chunks[0])
            return (chunks[0],)
        if budget < BATCH_SIZE:
            chunks = chain.from_iterable(
                (chunk,) if len(chunk) <= budget else as_batches(chunk, budget)
                for chunk in chunks
            )
        return _scanned(chunks, env)

    def row_ids(self, env: ExecutionEnv) -> Iterator[int]:
        counters = env.counters
        for row_id, __ in self.storage.scan():
            counters["rows_scanned"] += 1
            yield row_id


class RangeScan(SeqScan):
    """A scan whose WHERE bounds column ``column`` by table-independent
    bounds (``col > b``: ``operators`` holds ``">"``).  Each run it
    bisects the column's sorted copy for the k rows in range, prices them
    as :meth:`IndexLookup._priced_keys` prices keys, and gathers them in
    heap order or *is* a :class:`SeqScan` (as without a copy, or for a
    bound of another kind): the filter above tests the whole WHERE.
    ``sides`` names each bound as ``(id of its conjunct, position of its
    operand)``: :meth:`bind` takes them from the filter's IR."""

    def __init__(self, storage: TableStorage, column: int, sides: tuple, operators: Tuple[str, ...]) -> None:
        super().__init__(storage)
        self.column, self.sides, self.operators = column, sides, operators
        self.bounds: Optional[Tuple[IR, ...]] = None  # a scan until bound
        self.keys: Optional[Program] = None

    def bind(self, bounds: List[IR]) -> None:
        """Read *bounds* (a literal or parameter as it is, else by one
        generated function), unless one reads the row: a join's column."""
        if not any(map(_reads_row, bounds)):
            self.bounds = tuple(bounds)
            if any(ir[0] not in ("const", "param", "hidden") for ir in bounds):
                self.keys = compiled(bounds, KEYS)

    def label(self) -> str:
        return f"RangeScan({self.storage.schema.name} by {self.output_names[self.column]})"

    def _range(self, env: ExecutionEnv, copy) -> Optional[tuple]:
        """``(copy, low, high)``: *copy*'s slice in range, if any."""
        if copy is None or self.bounds is None:
            return None
        if self.keys is not None:
            values = self.keys.row((), env)
        else:  # a loop, not a comprehension: no call of its own
            values = []
            for kind, data, __ in self.bounds:
                values.append(data if kind == "const" else env.hidden[data] if kind == "hidden" else env.parameter(data))
        found = copy.bisected(self.operators, values)
        return found and (copy, *found)

    def batches(self, env: ExecutionEnv, budget: int) -> Iterable[Batch]:
        chunks = table_batches(self.storage, snapshot=env.snapshot)
        order = env.orders.pop(id(self), None)
        if order is not None:
            env.counters["index_probes"] += 1
            return _scanned(in_order(chunks, *order), env)
        found = self._range(env, sorted_column(chunks, self.column))
        gather = found and PROBE_COST + GATHER_TUPLE_COST * (found[2] - found[1])
        if found is None or gather >= SEQ_TUPLE_COST * len(chunks.rows):
            return SeqScan.batches(self, env, budget)
        env.counters["index_probes"] += 1
        rows = list(map(chunks.rows.__getitem__, sorted(found[0].positions[found[1] : found[2]])))
        return _scanned(as_batches(rows, budget), env)

    def walk(self, env: ExecutionEnv, descending: bool, size: int) -> Optional[tuple]:
        """``(id, in_order's arguments)`` if it can walk: set in ``env.orders``."""
        chunks = table_batches(self.storage, snapshot=env.snapshot)
        found = self._range(env, chunks.copies.get(self.column))
        return found and (id(self), (*found, descending, size))


def _reads_row(ir: IR) -> bool:
    return ir[0] == "slot" or any(map(_reads_row, ir[2]))


def _scanned(batches: Iterable[Batch], env: ExecutionEnv) -> Iterator[Batch]:
    """*batches*, each charged to ``rows_scanned`` as it is pulled."""
    counters = env.counters
    for batch in batches:
        counters["rows_scanned"] += len(batch)
        yield batch


class IndexLookup(_TableAccess):
    """Equality probes into a hash index of a base table, one per key.

    The keys come from the conjunct the probe stands for, and are
    row-independent (evaluated on ``()``; they may read outer rows):

    - ``col = v``: ``keys`` gives the one key, checked as ``=`` checks
      it — a number against a column of strings, or a string against one
      of numbers, is a ``TypeMismatchError`` whether it finds rows or not.
      ``equality`` is the conjunct's ``id``: every row the probe finds
      satisfies it, a scan's rows need not.
    - ``col IN (v, ...)``: ``keys`` gives the list, probed once per
      distinct non-NULL value (IN is a predicate: a row appears once).
    - ``col IN (SELECT ...)``, uncorrelated and of one column:
      ``subquery`` — the :class:`repro.sqldb.subplans.CompiledSubquery`
      the residual filter tests membership against, so it runs once —
      gives its value set, probed in first-seen order.

    The keys are priced as soon as they are known — each execution, since
    a plan is cached across data changes — against one scan of the table
    as it stands (:meth:`_priced_keys`), and when the scan is cheaper the
    node *is* a :class:`SeqScan`: the planner keeps the whole WHERE as the
    residual filter above every access path, so that filter keeps exactly
    the rows the probes would have produced (a filter in the probe's
    pipeline tests the ``=`` conjunct only on a scan's rows: ``env.scans``
    records the probes that scanned).  ``batches`` asks the storage for
    the rows its snapshot (or the live heap) shows under each key;
    ``row_ids`` — how a DML statement locates its target rows, always on
    the live heap — asks the index for the ids.
    """

    def __init__(
        self,
        storage: TableStorage,
        index,
        keys: Optional[Program],
        subquery=None,
        equality: Optional[int] = None,
    ) -> None:
        super().__init__(storage)
        self.index = index
        self.keys = keys
        self.subquery = subquery
        self.equality = equality
        (self.classes,) = declared_classes(storage, index)

    def label(self) -> str:
        name = f"{self.storage.schema.name} via {self.index.name}"
        if self.equality is not None:
            return f"IndexLookup({name})"
        keys = "keys from subquery" if self.subquery else f"{len(self.keys.exprs)} keys"
        return f"MultiKeyIndexLookup({name}, {keys})"

    def _priced_keys(self, env: ExecutionEnv) -> Optional[Sequence[Tuple[Any, ...]]]:
        """The keys to probe, in probe order, or None when one scan of the
        table is cheaper.

        ``index_probe_cost(keys, rows_out) < seq_scan_cost(table_rows)``
        spelt out over the counts the storage keeps anyway — the live row
        count and the index's bucket count, whose ratio is its uniform
        rows-per-key — so pricing needs no statistics and calls nothing.
        A unique index is never priced: a probe returns at most one row.
        """
        keys: Sequence[Tuple[Any, ...]]
        if self.equality is not None:
            key = self.keys.row((), env)
            if key[0].__class__ not in self.classes:
                _unequal(key[0], self.classes)
            keys = (key,)
        elif self.subquery is None:
            keys = [(value,) for value in dict.fromkeys(self.keys.row((), env)) if value is not None]
        else:  # the value set is distinct, non-NULL and in first-seen order already
            keys = list(zip(self.subquery.value_set((), env)[0]))
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

    def batches(self, env: ExecutionEnv, budget: int) -> Iterable[Batch]:
        """The scan's cached column chunks when priced out, else the
        probed rows: probed at once for one key or an unbounded budget,
        else key by key as the batches are pulled."""
        keys = self._priced_keys(env)
        if keys is None:
            env.scans.add(id(self))
            return SeqScan.batches(self, env, budget)
        count = len(keys)
        if count == 1:
            found = self.storage.probe(self.index, keys[0], env.snapshot)
        elif budget < UNBOUNDED:
            return self._probed(keys, env, budget)
        else:
            probe, index, snapshot = self.storage.probe, self.index, env.snapshot
            found = []
            for key in keys:
                found += probe(index, key, snapshot)
        counters = env.counters
        counters["index_probes"] += count
        count = len(found)
        if count > budget:
            return _scanned(as_batches(found, budget), env)
        counters["rows_scanned"] += count
        if count > BATCH_SIZE:
            return as_batches(found, budget)
        return (Batch(found),) if found else ()

    def _probed(
        self, keys: Sequence[Tuple[Any, ...]], env: ExecutionEnv, budget: int
    ) -> Iterator[Batch]:
        """The rows under each key in key order; a key is probed once the
        batches before it are taken."""
        probe, index, snapshot = self.storage.probe, self.index, env.snapshot
        counters = env.counters
        found: List[Row] = []
        for key in keys:
            counters["index_probes"] += 1
            found += probe(index, key, snapshot)
            while len(found) >= budget:
                counters["rows_scanned"] += budget
                yield Batch(found[:budget])
                del found[:budget]
        if found:
            counters["rows_scanned"] += len(found)
            yield Batch(found)

    def row_ids(self, env: ExecutionEnv) -> Iterator[int]:
        keys = self._priced_keys(env)
        if keys is None:
            return SeqScan.row_ids(self, env)
        return self._probed_ids(keys, env)

    def _probed_ids(self, keys: Sequence[Tuple[Any, ...]], env: ExecutionEnv) -> Iterator[int]:
        counters = env.counters
        for key in keys:
            counters["index_probes"] += 1
            for row_id in self.index.probe(key):
                counters["rows_scanned"] += 1
                yield row_id


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

    def batches(self, env: ExecutionEnv, budget: int) -> Iterable[Batch]:
        """The frame itself when it fits the budget and ``BATCH_SIZE``."""
        frame = env.cte(self.name)
        if len(frame) > budget or len(frame) > BATCH_SIZE:
            return _scanned(as_batches(frame, budget), env)
        env.counters["rows_scanned"] += len(frame)
        return (frame,) if frame else ()


class RowsSource(Operator):
    """An operator over a pre-materialised list of rows (derived tables,
    VALUES lists, test fixtures)."""

    def __init__(self, columns: List[str], rows: List[Row]) -> None:
        super().__init__(columns)
        self._rows = rows

    def label(self) -> str:
        return "Values"

    def batches(self, env: ExecutionEnv, budget: int) -> Iterable[Batch]:
        return as_batches(self._rows, budget)


class _Pipelined:
    """What runs a pipeline (:func:`fuse` sets it up): a top stage, a
    :class:`_Sink` above one or a hash join's :class:`_Build`, all with
    one runner, :meth:`run`."""

    child: Operator
    children: Tuple[Operator, ...] = ()
    #: A :func:`~repro.sqldb.pipelines.pipeline` sink.
    sink: tuple
    #: The loop (None: every stage reads its slots in place).
    program: Optional[Program] = None
    pipelined = False
    #: Does a filter of the pipeline test its source probe's conjunct on
    #: a scan's rows only (``Filter.recheck``)?
    rechecks = False
    #: The built joins among the stages, in order.
    builds: Tuple["_Build", ...] = ()
    #: Does the sink collect a dict per source batch (else rows, cut to
    #: the budget)?
    collects = False

    def run(self, env: ExecutionEnv, budget: int, state: tuple = ()) -> Iterable[Any]:
        """Each source batch (the source cuts it to *budget*) through the
        loop: its rows in batches of at most *budget*, or its one output
        per batch; a tuple for a computed source, else an iterator.  The
        loop's state — each built join's table, built before the source
        is pulled, then the sink's *state* — is per call, never on the
        plan, which is cached and shared."""
        if self.builds:
            state = tuple([build.table(env) for build in self.builds]) + state
        source = self.child
        while source.fused:
            source = source.child
        batches = source.batches(env, budget)
        program = self.program
        if program is None:
            return batches
        if batches.__class__ is not tuple:
            scans = env.scans
            outs = (program.row(b, env, self.rechecks and id(source) in scans, state) for b in batches)
            return outs if self.collects else chain.from_iterable(map(as_batches, outs, repeat(budget)))
        if not batches:
            return ()
        out = program.row(batches[0], env, self.rechecks and id(source) in env.scans, state)
        if self.collects:
            return (out,)
        if not out:
            return ()
        if len(out) <= budget and len(out) <= BATCH_SIZE:
            return (Batch(out),)
        return as_batches(out, budget)


class _Stage(Operator, _Pipelined):
    """A non-blocking operator: a ``Filter``, a ``Project`` or a join,
    the stages of a pipeline.  :func:`fuse` gives each stage of a
    pipeline its one generated loop (``program``); the top stage runs it,
    and nothing calls the ``batches`` of a stage below it (``fused``).
    """

    child: Operator
    #: ``id`` of each WHERE conjunct every row the stage passes satisfies
    #: (planner bookkeeping).
    applies: FrozenSet[int] = frozenset()
    sink = (ROWS, (), None)
    #: A top stage's rows are its pipeline's.
    batches = _Pipelined.run


class Filter(_Stage):
    """Keep rows for which the predicate is TRUE (not FALSE, not UNKNOWN).

    ``recheck``, when set, is the conjunct an index probe below the filter
    (``probe``, its ``id``) stands for, tested before ``predicate`` (None:
    no other).  Where the probe is the source of the filter's pipeline it
    is tested only on the rows of a probe priced out to a scan; elsewhere
    on every row.
    """

    def __init__(
        self,
        child: Operator,
        predicate: Optional[IR],
        recheck: Optional[IR] = None,
        probe: Optional[int] = None,
    ) -> None:
        super().__init__(child.output_names, child)
        self.child = child
        self.predicate = predicate
        self.recheck = recheck
        self.probe = probe

    def row_ids(self, env: ExecutionEnv) -> Iterator[int]:
        source = self.child
        if not isinstance(source, _TableAccess):
            raise NotImplementedError(
                "row ids exist only directly above a base-table access path"
            )
        test = cast(Program, self.program).row  # a filter always tests something
        fetch = source.storage.fetch
        for row_id in source.row_ids(env):
            if test(Batch([fetch(row_id)]), env, False, ()):
                yield row_id


class Project(_Stage):
    """Compute the select list."""

    def __init__(self, child: Operator, exprs: Sequence[IR], names: List[str]) -> None:
        super().__init__(names, child)
        self.child = child
        self.exprs = tuple(exprs)
        #: Every output slot reads the same input slot (``SELECT *``).
        self.identity = self.exprs == tuple(
            ("slot", index, ()) for index in range(len(child.output_names))
        )

    def label(self) -> str:
        return f"Project({', '.join(self.output_names)})"


class _Join(_Stage):
    """Per left row, the rows its ``left_keys`` find in an index or in a
    table built per call (:class:`HashJoin`), joined to it where the
    residual is TRUE; a LEFT join pads a row none matches with NULLs.
    Output is in left order, then found order.  A NULL key finds nothing,
    and a key of the other kind than the probed side's raises as ``=``
    does."""

    def __init__(
        self,
        left: Operator,
        right_names: Sequence[str],
        left_keys: Sequence[IR],
        residual: Optional[IR],
        kind: str,
        *children: Operator,
    ) -> None:
        super().__init__(left.output_names + list(right_names), left, *children)
        self.child = left
        self.left_keys = tuple(left_keys)
        self.residual = residual
        self.kind = kind


class IndexNestedLoopJoin(_Join):
    """Join probing a base-table hash index once per left row.

    This is the operator that makes the paper-scale simulations feasible:
    the navigational child fetch and the recursive branch both join the
    working set against ``link`` (and then against ``assy``/``comp``) on
    indexed equality keys.
    """

    def __init__(
        self,
        left: Operator,
        storage: TableStorage,
        index,
        left_keys: Sequence[IR],
        residual: Optional[IR],
        kind: str = "INNER",
    ) -> None:
        super().__init__(left, storage.schema.column_names, left_keys, residual, kind)
        self.storage = storage
        self.index = index

    def label(self) -> str:
        return (
            f"IndexNestedLoopJoin({self.kind} probe "
            f"{self.storage.schema.name} via {self.index.name})"
        )


class HashJoin(_Join):
    """Equi-join on a table of the right input's rows by ``right_keys``
    (each side's keys lowered against its own scope), built by the right
    input's pipeline, ``build``, before the left input is pulled."""

    def __init__(
        self,
        left: Operator,
        right: Operator,
        left_keys: Sequence[IR],
        right_keys: Sequence[IR],
        residual: Optional[IR] = None,
        kind: str = "INNER",
    ) -> None:
        super().__init__(left, right.output_names, left_keys, residual, kind, right)
        self.build = _Build(right, tuple(right_keys))

    def label(self) -> str:
        return f"HashJoin({len(self.left_keys)} key(s))"


class NestedLoopJoin(HashJoin):
    """Join supporting INNER, LEFT and CROSS kinds: a :class:`HashJoin`
    without keys, which finds every right row for every left row; the
    full ON condition is its residual."""

    def label(self) -> str:
        return f"NestedLoopJoin({'CROSS' if self.residual is None else self.kind})"


class UnionAll(Operator):
    """Concatenate children (arity checked at plan time)."""

    def __init__(self, children: List[Operator]) -> None:
        super().__init__(children[0].output_names, *children)

    def batches(self, env: ExecutionEnv, budget: int) -> Iterable[Batch]:
        """The branches' batches in order: a branch runs once the one
        before it is exhausted."""
        return chain.from_iterable(map(methodcaller("batches", env, budget), self.children))


class _Sink(Operator, _Pipelined):
    """The sink of the pipeline below its ``child``: an ``Aggregate``,
    ``Distinct`` or a set operation."""

    def __init__(self, child: Operator, sink: tuple, *others: Operator) -> None:
        super().__init__(child.output_names, child, *others)
        self.child = child
        self.sink = sink


class _Build(_Pipelined):
    """A hash join's right input's pipeline, collecting its rows by
    ``keys``; in no plan tree."""

    def __init__(self, right: Operator, keys: Tuple[IR, ...]) -> None:
        self.child = right
        self.sink = (BUILD, keys, None)

    def table(self, env: ExecutionEnv) -> tuple:
        """The join's state in its pipeline's loop: the right rows by key,
        in scan order, and each key's classes."""
        table: Dict[Any, List[Row]] = {}
        for found in self.run(env, UNBOUNDED):
            for key, (rows,) in found.items():
                table.setdefault(key, []).extend(rows)
        count = len(self.sink[1])
        columns: List[Any] = [table] if count == 1 else list(zip(*table)) or [()] * count
        return (table, *map(key_classes, columns))


class Distinct(_Sink):
    """Remove duplicate rows, first occurrence wins (used for UNION and
    SELECT DISTINCT)."""

    def __init__(self, child: Operator) -> None:
        super().__init__(child, (DISTINCT, (), None))

    def batches(self, env: ExecutionEnv, budget: int) -> Iterable[Batch]:
        return self.run(env, budget, (set(),))


class _SetOperation(_Sink):
    """Two inputs of equal arity; the output takes the left one's names.
    Distinct left rows in first-seen order, kept when their presence in
    the right input is :attr:`keep_present`."""

    keep_present: bool

    def __init__(self, left: Operator, right: Operator) -> None:
        super().__init__(left, (DISTINCT, (), self.keep_present), right)
        self.right = right

    def batches(self, env: ExecutionEnv, budget: int) -> Iterable[Batch]:
        return self.run(env, budget, (set(plan_rows(self.right, env)), set()))


class SetDifference(_SetOperation):
    """EXCEPT (distinct) — rows of left not present in right."""

    keep_present = False

    def label(self) -> str:
        return "Except"


class SetIntersection(_SetOperation):
    """INTERSECT (distinct) — rows occurring in both children."""

    keep_present = True

    def label(self) -> str:
        return "Intersect"


@dataclass
class AggregateSpec:
    """One aggregate computation: function name and flags (its argument
    is a column of :attr:`Aggregate.arguments`, none for ``COUNT(*)``)."""

    name: str
    distinct: bool = False
    star: bool = False


class Aggregate(_Sink):
    """Hash aggregation, the sink of the pipeline below it.

    Output rows are ``group key values + aggregate values``: ``groups``
    are the key expressions, ``arguments`` the argument of each aggregate
    that is not ``COUNT(*)``, in order.  The planner compiles the select
    list and HAVING against that synthetic layout.  With no GROUP BY
    there is exactly one (possibly empty) group, matching SQL's
    scalar-aggregate semantics.  Groups come out in first-seen order.

    The loop of its input pipeline computes each row's key and arguments
    where the row is made and collects each group's argument values per
    source batch; each aggregate folds a group's values from all batches
    once, by a :func:`~repro.sqldb.functions.fold` chosen at plan time.
    """

    def __init__(
        self,
        child: Operator,
        groups: Sequence[IR],
        aggregates: List[AggregateSpec],
        arguments: Sequence[IR],
        output_names: List[str],
    ) -> None:
        self.groups = tuple(groups)
        self.aggregates = aggregates
        #: The distinct arguments, each collected once.
        self.arguments = tuple(dict.fromkeys(arguments))
        #: Each aggregate's fold and the collected column it folds: its
        #: argument's, or for ``COUNT(*)`` any (only the length counts).
        arguments = iter(arguments)
        self._folds = [
            (fold(spec.name, spec.distinct, spec.star), 0 if spec.star else self.arguments.index(next(arguments)))
            for spec in aggregates
        ]
        super().__init__(child, (GROUPS, self.groups + self.arguments, len(self.groups)))
        self.output_names = list(output_names)

    def label(self) -> str:
        return (
            f"Aggregate({len(self.groups)} group key(s), "
            f"{len(self.aggregates)} aggregate(s))"
        )

    def batches(self, env: ExecutionEnv, budget: int) -> Iterable[Batch]:
        groups: Dict[Any, Tuple[List[Any], ...]] = {}
        for found in self.run(env, UNBOUNDED):
            for key, held in found.items():
                columns = groups.setdefault(key, held)
                if columns is not held:
                    for column, more in zip(columns, held):
                        column += more
        if not self.groups and not groups:
            # SELECT COUNT(*) FROM empty_table must yield one row.
            groups[()] = ([],) * (len(self.arguments) or 1)
        single = len(self.groups) == 1  # a group's key is its one value
        return as_batches(
            [
                ((key,) if single else key) + tuple([fold(held[column]) for fold, column in self._folds])
                for key, held in groups.items()
            ],
            budget,
        )


class Sort(Operator):
    """Stable multi-key sort; NULLs sort last ascending, first descending,
    numbers before strings.

    Each key is computed once as a column, by the keys'
    :func:`~repro.sqldb.pipelines.key_columns` loop over every row, and the
    rows' positions are sorted stably by one key column after the
    other, least significant first, with ``key=column.__getitem__``: no
    Python call per row.  A column is compared raw; only where a
    comparison raises ``TypeError`` (it holds NULL or mixes numbers and
    strings) is it decorated with :func:`_null_safe_key` and compared
    again.  Raw and decorated agree on every comparison that does not
    raise, so the order is the decorated one either way.

    Under a budget below its input the first batch is picked by bounded
    selection: the budget-th value of the leading key, the positions
    within it (ties included) and those sorted by every key.  They are a
    prefix of the full order, which is computed only if a consumer pulls
    past the first batch.  That holds only where the comparisons are an
    order: a key column holding a float NaN, which compares false with
    everything, is sorted in full from the start.
    """

    #: The walk of a :class:`RangeScan` of the leading key (``AccessPaths._sorted``).
    walk: Optional[Callable[..., Optional[tuple]]] = None

    def __init__(self, child: Operator, keys: Program, descending: Sequence[bool]) -> None:
        super().__init__(child.output_names, child)
        self.child = child
        self.keys = keys
        self.descending = list(descending)

    def label(self) -> str:
        return f"Sort({len(self.descending)} key(s))"

    def batches(self, env: ExecutionEnv, budget: int) -> Iterable[Batch]:
        walk = self.walk and budget < UNBOUNDED and self.walk(env, self.descending[0], budget + 1)
        if walk:
            return self._in_order(env, budget, *walk)
        rows = plan_rows(self.child, env)
        # Every key of every row: an error in a key surfaces whatever the
        # budget.
        columns = self.keys.row(Batch(rows), env, False, ())
        count = len(rows)
        if count < 2:
            return as_batches(rows, budget)
        if budget >= count or _holds_nan(columns):
            order = _ordered(range(count), columns, self.descending)
            return as_batches(list(map(rows.__getitem__, order)), budget)
        return self._selected(rows, columns, budget)

    def _in_order(self, env: ExecutionEnv, budget: int, scan: int, walk: tuple) -> Iterator[Batch]:
        """The child's rows, the *scan* walking its range in leading-key
        order: those before the last leading value seen, whole tie groups,
        are sorted by every key and sent on once *budget* are held."""
        env.orders[scan] = walk
        descending = self.descending
        rows: List[Row] = []
        columns: List[List[Any]] = [[] for __ in descending]
        for batch in self.child.batches(env, UNBOUNDED):
            rows += batch
            for column, keys in zip(columns, self.keys.row(batch, env, False, ())):
                column += keys
            cut, lead = len(rows) - 1, columns[0]
            while cut and lead[cut - 1] == lead[-1]:
                cut -= 1
            if cut >= budget:
                order = _ordered(range(cut), [column[:cut] for column in columns], descending)
                yield from as_batches(list(map(rows.__getitem__, order)), budget)
                del rows[:cut]
                for column in columns:
                    del column[:cut]
        order = _ordered(range(len(rows)), columns, descending)
        yield from as_batches(list(map(rows.__getitem__, order)), budget)

    def _selected(
        self, rows: List[Row], columns: List[List[Any]], budget: int
    ) -> Iterator[Batch]:
        descending = self.descending
        head = _compared(columns, 0, _leading, budget, descending[0])
        head = _ordered(head, columns, descending)
        yield from as_batches(list(map(rows.__getitem__, head[:budget])), budget)
        order = _ordered(range(len(rows)), columns, descending)
        yield from as_batches(list(map(rows.__getitem__, order[budget:])), budget)


def _holds_nan(columns: List[List[Any]]) -> bool:
    """Does a key column hold a float NaN, the one value unequal to
    itself?  A column of numbers is summed, at C speed (a NaN, or an
    infinity against its negative, sums to NaN); any other is compared
    with itself value by value."""
    for column in columns:
        try:
            total = sum(column)
        except (TypeError, OverflowError):
            if any(map(ne, column, column)):
                return True
        else:
            if total != total:
                return True
    return False


def _compared(columns: List[List[Any]], index: int, use: Callable, *args: Any) -> Any:
    """``use(columns[index], *args)`` on the raw values; where a
    comparison raises ``TypeError`` the column is replaced in *columns*
    by its :func:`_null_safe_key` values and used again."""
    try:
        return use(columns[index], *args)
    except TypeError:
        column = columns[index] = list(map(_null_safe_key, columns[index]))
        return use(column, *args)


def _leading(column: List[Any], budget: int, descending: bool) -> List[int]:
    """The positions, in order, whose value in *column* is no further
    down the order than its *budget*-th: ties at the bound included."""
    select, within = (nlargest, ge) if descending else (nsmallest, le)
    bound = select(budget, column)[-1]
    return list(compress(range(len(column)), map(within, column, repeat(bound))))


def _sorted_by(column: List[Any], positions: Iterable[int], descending: bool) -> List[int]:
    """*positions* sorted stably by their value in *column*."""
    return sorted(positions, key=column.__getitem__, reverse=descending)


def _ordered(
    positions: Iterable[int], columns: List[List[Any]], descending: List[bool]
) -> List[int]:
    """*positions* sorted stably by the key *columns*, least significant
    first."""
    for index in range(len(columns) - 1, -1, -1):
        positions = _compared(columns, index, _sorted_by, positions, descending[index])
    return positions


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
    """Skip the first N rows: the input's budget is N more than its own,
    and what is left of an input batch is cut to the budget."""

    def batches(self, env: ExecutionEnv, budget: int) -> Iterator[Batch]:
        skip = self._count(env)
        for batch in self.child.batches(env, budget + skip):
            if skip >= len(batch):
                skip -= len(batch)
                continue
            if skip:
                batch = Batch(batch[skip:])
                skip = 0
            yield from (batch,) if len(batch) <= budget else as_batches(batch, budget)


class Limit(_RowCount):
    """Yield at most N rows: the input's budget is at most N, and the
    final batch is truncated."""

    def batches(self, env: ExecutionEnv, budget: int) -> Iterator[Batch]:
        remaining = self._count(env)
        if remaining == 0:
            return
        for batch in self.child.batches(env, min(budget, remaining)):
            if len(batch) < remaining:
                remaining -= len(batch)
                yield batch
            else:
                yield batch if len(batch) == remaining else Batch(batch[:remaining])
                return


#: A pipeline nests one Python block per join it fuses (Python allows 20
#: in one function); a longer chain of joins is cut into pipelines of at
#: most this many.
MAX_FUSED_JOINS = 8


def fuse(operator: Operator) -> None:
    """Give every pipeline of the tree under *operator* its generated loop.

    A pipeline is a chain of stages (``Filter``, ``Project`` and the
    joins) over a source — any other operator: a scan, an index probe, a
    CTE scan, a breaker's output — into a sink: the top stage's consumer
    takes its rows, or a :class:`_Sink` above it collects them.  A hash
    join is the top stage of its pipeline: its rows are cut to the budget
    before a stage above it runs.  A tree is fused once, when it is
    planned; a subplan's tree is fused already.
    """
    if not isinstance(operator, _Pipelined):
        for child in operator.children:
            fuse(child)
        return
    if operator.pipelined:
        return
    stages: List[_Stage] = []
    node = operator if isinstance(operator, _Stage) else operator.child
    joins = 0
    while isinstance(node, _Stage) and not node.pipelined:
        joins += isinstance(node, _Join)
        if joins > MAX_FUSED_JOINS or (stages and isinstance(node, HashJoin)):
            break
        stages.append(node)
        node = node.child
    source = node
    stages.reverse()
    steps: List[tuple] = []
    builds: List[_Build] = []
    for stage in stages:
        if isinstance(stage, Filter):
            if stage.recheck is not None:
                scanned = stage.probe == id(source)
                operator.rechecks = operator.rechecks or scanned
                steps.append((RECHECK if scanned else FILTER, (stage.recheck,), None))
            if stage.predicate is not None:
                steps.append((FILTER, (stage.predicate,), None))
        elif isinstance(stage, Project):
            if not stage.identity:
                steps.append((PROJECT, stage.exprs, None))
        elif isinstance(stage, _Join):
            residual = () if stage.residual is None else (stage.residual,)
            width = len(stage.output_names) - len(stage.child.output_names)
            shape: tuple = (len(stage.left_keys), width, stage.kind == "LEFT")
            if isinstance(stage, IndexNestedLoopJoin):
                classes = tuple(declared_classes(stage.storage, stage.index))
                shape += (stage.storage, stage.index, classes)
            elif isinstance(stage, HashJoin):
                builds.append(stage.build)
                fuse(stage.build)
            steps.append((JOIN, stage.left_keys + residual, shape))
    if steps or not isinstance(operator, _Stage):
        operator.program = pipeline(len(source.output_names), steps, operator.sink)
    operator.builds = tuple(builds)
    operator.collects = operator.sink[0] in (GROUPS, BUILD)
    for stage in stages:
        stage.program = operator.program
        stage.pipelined = True
        stage.fused = stage is not operator
    operator.pipelined = True
    for child in (source,) + operator.children[1:]:
        fuse(child)
