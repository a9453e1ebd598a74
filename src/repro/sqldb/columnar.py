"""Column-chunk batches: what the operators' ``batches`` bodies pass around.

A :class:`Batch` is a horizontal slice of a relation stored column-wise:
one Python list (or tuple) per output slot, all of the same length.  The
``batches`` bodies in :mod:`repro.sqldb.executor` pass batches
instead of single rows, so per-tuple interpreter overhead — generator
frames, closure calls, tuple indexing — is paid once per ``BATCH_SIZE``
rows instead of once per row.  NULLs stay in-band as ``None`` (matching
the row executor), but every batch can materialise a *validity mask* per
column on demand, which the IS [NOT] NULL kernels share instead of
re-testing ``is None`` element by element.  Aggregates do not read it:
each drops the NULLs of the column slice it folds.

Base-table batches are built lazily from :class:`~repro.sqldb.storage.
TableStorage` and cached on the storage object, keyed by its mutation
``version`` — any insert/update/delete (including transaction rollback
replay) invalidates the cached chunks, so a columnar scan can never see
stale data.  Batches are immutable by convention: operators must build
new column lists rather than mutate ones they received, because chunk
columns are shared between executions through the cache.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Rows per column chunk.  Big enough that the per-batch interpreter
#: overhead (one Python-level loop set-up per operator per batch) is
#: amortised over thousands of rows, small enough that a chunk's columns
#: stay cache-resident and short-circuiting operators (LIMIT, EXISTS-style
#: early exits) never materialise much more than they consume.
BATCH_SIZE = 2048

Row = Tuple[Any, ...]


class Batch:
    """One column-chunk: ``columns[slot][i]`` is row *i*'s value for *slot*.

    ``rows()`` materialises (and memoises) the row-tuple view used by
    operators or expressions that have no columnar implementation — the
    generic fallback stays batch-at-a-time but evaluates row closures.
    A batch built from rows is the mirror image: each column is pivoted
    out of the rows on first read, so a batch that is only passed along
    (a probe's few rows, an aggregate's result) never pivots and zips
    back, and a scan reads only the columns its plan touches.
    """

    __slots__ = ("columns", "length", "_rows", "_validity")

    # Either a plain list of column sequences or a lazy view
    # (:class:`_PivotedColumns` from :meth:`from_rows`,
    # :class:`_GatheredColumns` from :meth:`gather`).
    columns: Any

    def __init__(
        self,
        columns: Sequence[Sequence[Any]],
        length: int,
        rows: Optional[List[Row]] = None,
    ) -> None:
        self.columns = list(columns)
        self.length = length
        self._rows = rows
        self._validity: Optional[Dict[int, List[bool]]] = None

    @classmethod
    def from_rows(cls, rows: List[Row], arity: int) -> "Batch":
        """A column chunk over a list of row tuples (rows kept)."""
        batch = object.__new__(cls)
        batch.columns = _PivotedColumns(rows, arity)
        batch.length = len(rows)
        batch._rows = rows
        batch._validity = None
        return batch

    def rows(self) -> List[Row]:
        """The row-tuple view of this batch (memoised)."""
        if self._rows is None:
            if self.columns:
                self._rows = list(zip(*self.columns))
            else:
                # Zero-arity relation (SELECT without FROM): every row is ().
                self._rows = [()] * self.length
        return self._rows

    def validity(self, slot: int) -> List[bool]:
        """Validity mask of one column: ``True`` where the value is non-NULL.

        Memoised per batch, so repeated IS NULL tests over the same
        cached chunk share one mask.
        """
        if self._validity is None:
            self._validity = {}
        mask = self._validity.get(slot)
        if mask is None:
            mask = [value is not None for value in self.columns[slot]]
            self._validity[slot] = mask
        return mask

    def gather(self, indices: List[int]) -> "Batch":
        """A new batch holding the given row positions (in that order).

        Columns are gathered *lazily*: a filtered batch often has only one
        or two of its columns read downstream (a narrow projection, a join
        key), so each column is materialised on first access rather than
        eagerly copied.
        """
        batch = object.__new__(Batch)
        batch.columns = _GatheredColumns(self.columns, indices)
        batch.length = len(indices)
        batch._rows = None
        batch._validity = None
        return batch

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Batch(arity={len(self.columns)}, length={self.length})"


class _LazyColumns:
    """A batch's column list, each column materialised on first read.

    Quacks like the list :class:`Batch` stores: ``[slot]`` indexing,
    ``len``, truthiness and iteration (``zip(*columns)`` in ``rows()``).
    Subclasses say how many columns there are and how one is built.
    """

    __slots__ = ("_source", "_cache")

    _source: Any
    _cache: Dict[int, List[Any]]

    def __len__(self) -> int:
        raise NotImplementedError

    def _column(self, slot: int) -> List[Any]:
        raise NotImplementedError

    def __getitem__(self, slot: int) -> List[Any]:
        column = self._cache.get(slot)
        if column is None:
            column = self._cache[slot] = self._column(slot)
        return column

    def __iter__(self):
        for slot in range(len(self)):
            yield self[slot]


class _PivotedColumns(_LazyColumns):
    """The columns of a list of row tuples.  One column is one C-level
    pass over the rows; ``zip(*rows)`` would build every column at once
    and allocate an iterator per row on the way."""

    __slots__ = ("_arity",)

    def __init__(self, rows: List[Row], arity: int) -> None:
        self._source = rows
        self._cache = {}
        self._arity = arity

    def __len__(self) -> int:
        return self._arity

    def _column(self, slot: int) -> List[Any]:
        return list(map(itemgetter(slot), self._source))


class _GatheredColumns(_LazyColumns):
    """The columns of a gathered batch: the source's, at *indices*."""

    __slots__ = ("_indices",)

    def __init__(self, source_columns, indices: List[int]) -> None:
        self._source = source_columns
        self._cache = {}
        self._indices = indices

    def __len__(self) -> int:
        return len(self._source)

    def _column(self, slot: int) -> List[Any]:
        source = self._source[slot]
        return [source[i] for i in self._indices]


def table_batches(storage, batch_size: int = BATCH_SIZE, snapshot=None) -> List[Batch]:
    """The column chunks of a base table, built lazily and cached.

    The cache key is ``(stamp-or-live, storage.version, batch_size)``:
    every mutation of the heap bumps the version, so a columnar scan
    after any DML (or a rollback) rebuilds the chunks, and two reads at
    the same stamp share them.  A read under *snapshot* that resolves no
    version chain (``storage.as_of`` says so) *is* a live read and uses
    the live chunks; one that does gets the second cache slot, so it
    never evicts the live-heap chunks.  The chunk batches keep a
    reference to the underlying row tuples, making the row-view
    (:meth:`Batch.rows`) free for fallback expressions.
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
    arity = storage.schema.arity
    batches = [
        Batch.from_rows(rows[start : start + batch_size], arity)
        for start in range(0, len(rows), batch_size)
    ]
    cache[slot] = (key, batches)
    return batches
