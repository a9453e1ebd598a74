"""Batches: what every operator's ``batches`` body passes around.

A :class:`Batch` is a horizontal slice of a relation: the list of its row
tuples.  Operators hand batches down the pipeline, so per-tuple
interpreter overhead — generator frames, closure calls, tuple indexing —
is paid once per batch instead of once per row.  NULLs stay in-band as
``None``.

The generated pipeline loops of :mod:`repro.sqldb.pipelines` read a
large batch column-wise: ``columns`` is a lazy view pivoting each column
out of the rows on its first read, set on the batch the first time a loop
needs it, so a scan pays only for the columns its plan reads.  Beside the
columns it keeps each column's set of value types (``columns.kinds``),
which a column loop checks before it runs (a batch it refuses runs the
row loop).  A cached chunk pivots a column and collects its kinds once
per table version.  A batch of at most :data:`SMALL_BATCH` rows (a point
probe's, an index join's, a fixpoint round's) is never pivoted: its
pipeline runs the row loop.

Base-table batches are built lazily from :class:`~repro.sqldb.storage.
TableStorage` and cached on the storage object, keyed by its mutation
``version`` — any insert/update/delete (including transaction rollback
replay) invalidates the cached chunks, so a scan can never see stale
data.  Batches are immutable by convention: operators build new batches
rather than mutate ones they received, because chunk rows and columns
are shared between executions through the cache.

A table version keeps the *sorted copy* of a column that range reads ask
for (:func:`sorted_column`): a range is two bisections, then a gather or
a walk in order (:func:`in_order`), and the *group numbers* a grouped
loop indexes instead of hashing each row's key (:func:`group_numbers`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import compress, count, repeat
from math import log2
from operator import is_not, itemgetter, ne
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.sqldb.stats import SEQ_TUPLE_COST

#: Rows per column chunk.  Big enough that the per-batch interpreter
#: overhead (one Python-level loop set-up per operator per batch) is
#: amortised over thousands of rows, small enough that a chunk's columns
#: stay cache-resident.
BATCH_SIZE = 2048

#: Batch loops run the row function per row up to this many rows and
#: pivot the batch above it.  The navigational flood's batches (one to a
#: few rows) and the recursive expand's fixpoint rounds sit below it; the
#: report scans' chunks (``BATCH_SIZE`` rows) above it.
SMALL_BATCH = 64

Row = Tuple[Any, ...]


class Batch(list):
    """Some rows of a relation, as the list of their tuples;
    ``columns[slot][i]`` is row *i*'s value for *slot* once a pipeline
    has pivoted it (None before)."""

    columns: Optional["Columns"] = None


class Columns(dict):
    """A batch's columns, each pivoted out of its rows on first read
    (``columns[slot]`` costs a call only then), and ``kinds[slot]``, the
    set of value types in column *slot*, likewise computed once; in a
    chunk of *table*, ``columns[slots]`` are :func:`group_numbers`."""

    __slots__ = ("_rows", "kinds", "_table")

    def __init__(self, rows: List[Row], table: Optional["Chunks"] = None) -> None:
        super().__init__()
        self._rows, self._table = rows, table
        self.kinds = _Kinds(self)

    def __missing__(self, slot: Any) -> Any:
        if slot.__class__ is tuple:  # a GROUP BY's key slots
            return self._table and group_numbers(self._table, slot, self._rows)
        column = self[slot] = list(map(itemgetter(slot), self._rows))
        return column


class _Kinds(dict):
    """``slot -> set of the types in that column`` of one :class:`Columns`."""

    __slots__ = ("_columns",)

    def __init__(self, columns: Columns) -> None:
        super().__init__()
        self._columns = columns

    def __missing__(self, slot: int) -> set:
        kinds = self[slot] = set(map(type, self._columns[slot]))
        return kinds


def table_batches(storage, batch_size: int = BATCH_SIZE, snapshot=None) -> List[Batch]:
    """The column chunks of a base table, built lazily and cached.

    The cache key is ``(stamp-or-live, storage.version, batch_size)``:
    every mutation of the heap bumps the version, so a scan after any DML
    (or a rollback) rebuilds the chunks, and two reads at the same stamp
    share them — rows and pivoted columns alike.  A read under *snapshot*
    that resolves no version chain (``storage.as_of`` says so) *is* a live
    read and uses the live chunks; one that does gets the second cache
    slot, so it never evicts the live-heap chunks.
    """
    stamp = storage.as_of(snapshot)
    key = (stamp, storage.version, batch_size)
    slot = "live" if stamp is None else "snapshot"
    cache = getattr(storage, "_columnar_cache", None)
    if cache is None:
        cache = storage._columnar_cache = {}
    cached = cache.get(slot)
    if cached is not None and cached[0] == key:
        return cached[1]
    batches = Chunks(list(storage.rows(snapshot)), batch_size)
    cache[slot] = (key, batches)
    return batches


class Chunks(list):
    """A table version's chunks, its ``rows`` in heap order, and per column
    its sorted copy (``copies``) and the rows scanned toward it (``rent``,
    also per tuple of key slots toward their group numbers)."""

    def __init__(self, rows: List[Row], size: int) -> None:
        super().__init__(Batch(rows[start : start + size]) for start in range(0, len(rows), size))
        for chunk in self:
            chunk.columns = Columns(chunk, self)
        self.rows, self.copies, self.rent = rows, {}, {}


def group_numbers(chunks: Chunks, slots: Tuple[int, ...], chunk: Batch) -> Optional[List[int]]:
    """*chunk*'s group numbers for key *slots*: per row, the position in
    the chunk of the first row whose key (the value of one slot, the tuple
    of more) is equal to its own as a dict key.  Each chunk's are built
    once the grouped reads of the table version have scanned as many rows
    as it holds (a version read once pays nothing more); None until then."""
    paid = chunks.rent.get(slots, 0)
    if paid < len(chunks.rows):
        chunks.rent[slots] = paid + len(chunk)
        return None
    for each in chunks:
        first: Dict[Any, int] = {}
        each.columns[slots] = list(map(first.setdefault, map(itemgetter(*slots), each), count()))
    return chunk.columns[slots]


#: The kinds of a sorted copy, never both: there Python's order is SQL's.
NUMBERS, STRINGS = frozenset((int, float, bool)), frozenset((str,))


class SortedColumn(NamedTuple):
    """A column's non-NULL values in order, their row positions (heap order
    among ties) and their kinds."""

    values: List[Any]
    positions: List[int]
    kinds: frozenset

    def bisected(self, operators: Sequence[str], bounds: Sequence[Any]) -> Optional[Tuple[int, int]]:
        """The slice of ``values`` where each ``value <operator> bound``
        holds (none for a NULL or NaN bound); None for a bound of another
        kind than the values (the scan decides if that raises)."""
        if any(bound is not None and bound.__class__ not in self.kinds for bound in bounds):
            return None
        values, low, high = self.values, 0, len(self.values)
        for operator, bound in zip(operators, bounds):
            if bound is None or bound != bound:
                return 0, 0
            if operator[0] == ">":
                low = max(low, (bisect_left if operator == ">=" else bisect_right)(values, bound))
            else:
                high = min(high, (bisect_right if operator == "<=" else bisect_left)(values, bound))
        return low, max(low, high)


def sorted_column(chunks: Chunks, slot: int) -> Optional[SortedColumn]:
    """The sorted copy of column *slot* (None for one mixing numbers and
    strings, of NULLs only or holding a NaN), built once the range reads
    of the table version have scanned as many rows as its sort costs,
    ``n·log₂n`` (ski rental): until then each call pays one scan."""
    copies = chunks.copies
    if slot not in copies:
        rows = chunks.rows
        kinds = set().union(*[chunk.columns.kinds[slot] for chunk in chunks]) - {type(None)}
        uniform = kinds and (kinds <= NUMBERS or kinds <= STRINGS)
        paid = chunks.rent.get(slot, 0)
        if uniform and paid < SEQ_TUPLE_COST * len(rows) * log2(len(rows)):
            chunks.rent[slot] = paid + len(rows)
            return None
        column = list(map(itemgetter(slot), rows))
        copies[slot] = None
        if uniform and not any(map(ne, column, column)):
            present = compress(range(len(rows)), map(is_not, column, repeat(None)))
            positions = sorted(present, key=column.__getitem__)
            kinds = NUMBERS if kinds <= NUMBERS else STRINGS
            copies[slot] = SortedColumn(list(map(column.__getitem__, positions)), positions, kinds)
    return copies[slot]


def in_order(chunks: Chunks, copy: SortedColumn, low: int, high: int, descending: bool, size: int):
    """The rows of slice *low*:*high* of *copy* in value order (from the
    top when *descending*), ties in heap order, in batches of *size* rows
    and then twice the last, each ending where a tie group does."""
    rows, values, positions = chunks.rows, copy.values, copy.positions
    while low < high:
        if descending:
            cut = bisect_left(values, values[max(low, high - size)], low, high)
            order = sorted(range(cut, high), key=values.__getitem__, reverse=True)
            part, high = list(map(positions.__getitem__, order)), cut
        else:
            cut = bisect_right(values, values[min(high, low + size) - 1], low, high)
            part, low = positions[low:cut], cut
        yield Batch(map(rows.__getitem__, part))
        size *= 2
