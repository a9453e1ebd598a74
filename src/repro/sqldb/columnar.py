"""Batches: what every operator's ``batches`` body passes around.

A :class:`Batch` is a horizontal slice of a relation: the list of its row
tuples.  Operators hand batches down the pipeline, so per-tuple
interpreter overhead — generator frames, closure calls, tuple indexing —
is paid once per batch instead of once per row.  NULLs stay in-band as
``None``.

The generated pipeline loops of :mod:`repro.sqldb.expressions` read a
large batch column-wise: ``columns`` is a lazy view pivoting each column
out of the rows on its first read, set on the batch the first time a loop
needs it, so a scan pays only for the columns its plan reads.  Beside the
columns it keeps each column's set of value types (``columns.kinds``),
which a loop's fast form checks before it runs.  A cached chunk pivots a
column and collects its kinds once per table version.  A batch of at most
:data:`SMALL_BATCH` rows (a point probe's, an index join's, a fixpoint
round's) is never pivoted: its pipeline runs in row form.

Base-table batches are built lazily from :class:`~repro.sqldb.storage.
TableStorage` and cached on the storage object, keyed by its mutation
``version`` — any insert/update/delete (including transaction rollback
replay) invalidates the cached chunks, so a scan can never see stale
data.  Batches are immutable by convention: operators build new batches
rather than mutate ones they received, because chunk rows and columns
are shared between executions through the cache.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, List, Optional, Tuple

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
    set of value types in column *slot*, likewise computed once."""

    __slots__ = ("_rows", "kinds")

    def __init__(self, rows: List[Row]) -> None:
        super().__init__()
        self._rows = rows
        self.kinds = _Kinds(self)

    def __missing__(self, slot: int) -> List[Any]:
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
    rows = list(storage.rows(snapshot))
    batches = []
    for start in range(0, len(rows), batch_size):
        chunk = Batch(rows[start : start + batch_size])
        chunk.columns = Columns(chunk)
        batches.append(chunk)
    cache[slot] = (key, batches)
    return batches
