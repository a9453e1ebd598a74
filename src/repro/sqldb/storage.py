"""Row storage: an in-memory heap of tuples plus hash indexes.

Rows are stored as Python tuples in insertion order.  Hash indexes map a
key (tuple of column values) to the list of row ids holding that key; they
accelerate the equality lookups that dominate the paper's navigational
workload (``WHERE link.left = ?``) and the engine's hash joins.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import CatalogError, IntegrityError
from repro.sqldb.mvcc import Snapshot, VersionStore
from repro.sqldb.schema import TableSchema
from repro.sqldb.types import is_null

Row = Tuple[object, ...]


class HashIndex:
    """An equality index over one or more columns of a heap.

    NULL keys are never indexed (SQL equality with NULL is UNKNOWN, so an
    equality probe can never match them anyway).
    """

    def __init__(self, name: str, column_positions: Sequence[int], unique: bool = False) -> None:
        self.name = name
        self.column_positions = tuple(column_positions)
        self.unique = unique
        self._buckets: Dict[Tuple[object, ...], List[int]] = {}
        #: ``row -> key``, or None when a key column is NULL; built once
        #: here, so maintaining the index costs one call per row.
        self.key: Callable[[Row], Optional[Tuple[object, ...]]] = _key_function(
            self.column_positions
        )

    def add(self, row_id: int, row: Row) -> None:
        key = self.key(row)
        if key is None:
            return
        self.check_unique(key)
        self._buckets.setdefault(key, []).append(row_id)

    def fill(self, rows: Iterable[Tuple[int, Row]]) -> None:
        """Index every ``(row_id, row)`` of *rows*, in their order — what
        one :meth:`add` per row leaves, in one pass."""
        key_of = self.key
        buckets = self._buckets
        unique = self.unique
        for row_id, row in rows:
            key = key_of(row)
            if key is None:
                continue
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [row_id]
            elif unique:
                raise self._violation(key)
            else:
                bucket.append(row_id)

    def check_unique(self, key: Tuple[object, ...]) -> None:
        """Raise if indexing one more row under *key* would break
        uniqueness (callable before anything is modified).  A bucket is
        never empty — a removal that empties one deletes it."""
        if self.unique and key in self._buckets:
            raise self._violation(key)

    def _violation(self, key: Tuple[object, ...]) -> IntegrityError:
        return IntegrityError(f"unique index {self.name!r} violated by key {key!r}")

    def remove(self, row_id: int, row: Row) -> None:
        key = self.key(row)
        if key is None:
            return
        bucket = self._buckets.get(key)
        if bucket and row_id in bucket:
            bucket.remove(row_id)
            if not bucket:
                del self._buckets[key]

    def probe(self, key: Tuple[object, ...]) -> List[int]:
        """Return the row ids whose indexed columns equal *key*."""
        if any(is_null(part) for part in key):
            return []
        return list(self._buckets.get(key, ()))


def _key_function(
    positions: Tuple[int, ...]
) -> Callable[[Row], Optional[Tuple[object, ...]]]:
    """``row -> tuple of the values at *positions*``, or None when one of
    them is NULL."""
    if len(positions) == 1:
        (position,) = positions

        def single(row: Row) -> Optional[Tuple[object, ...]]:
            value = row[position]
            return None if value is None else (value,)

        return single
    pick = itemgetter(*positions)

    def composite(row: Row) -> Optional[Tuple[object, ...]]:
        key = pick(row)
        return None if None in key else key

    return composite


class TableStorage:
    """Heap storage for one table, with optional hash indexes.

    Row ids are stable for the lifetime of a row; deleted slots hold None
    and are skipped on scan.  This keeps index maintenance O(1) per
    operation without compaction machinery the workload does not need.
    """

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self._rows: List[Optional[Row]] = []
        self._live_count = 0
        self._indexes: Dict[str, HashIndex] = {}
        #: Undo log for the enclosing transaction; None when not enlisted.
        self._undo: Optional[List[tuple]] = None
        #: Redo journal sink (the database's WAL hook): called as
        #: ``journal(op, row_id, row)`` once a mutation passed its checks
        #: and before it changes the heap or an index (an update also
        #: passes the row it replaced), so a record the journal refuses
        #: leaves memory as it was.
        #: Detached (like ``_undo``) while a rollback replays inverses —
        #: an abort is logged as one ABORT record, not as compensation.
        self._journal = None
        #: Mutation counter: bumped by every insert/update/delete/restore.
        #: Derived caches (the columnar chunk cache) key on it to detect
        #: staleness without hooking every mutation path individually.
        self.version = 0
        #: Version chains of the slots an open snapshot sees differently
        #: from the heap; empty whenever no snapshot is open.  Writes never
        #: touch it: the owning database fills it from the undo log.
        self.mvcc = VersionStore()
        #: Positions of the NOT NULL columns, in column order.
        self._not_null = tuple(
            position
            for position, column in enumerate(schema.columns)
            if column.not_null
        )
        pk_position = schema.primary_key_index()
        if pk_position is not None:
            self.create_index(f"{schema.name}_pk", [schema.columns[pk_position].name], unique=True)

    # -- rows --------------------------------------------------------------

    def __len__(self) -> int:
        return self._live_count

    def insert(self, row: Sequence[object]) -> int:
        """Validate and insert *row*; return its row id."""
        if len(row) != self.schema.arity:
            raise IntegrityError(
                f"table {self.schema.name!r} expects {self.schema.arity} values, "
                f"got {len(row)}"
            )
        stored = tuple(row)
        self._check_not_null(stored)
        row_id = len(self._rows)
        self._place(row_id, stored)
        return row_id

    def _check_not_null(self, row: Row) -> None:
        for position in self._not_null:
            if row[position] is None:
                raise IntegrityError(
                    f"column {self.schema.name}.{self.schema.columns[position].name} "
                    f"is NOT NULL"
                )

    def _place(self, row_id: int, row: Row) -> None:
        """Put *row* in the free slot *row_id* (the next one, for an
        insert) and under it in every index — after checking every unique
        index and journaling the insert, so a violation or a record the
        journal refuses leaves the heap and every index untouched."""
        indexes = self._indexes.values()
        keys = [index.key(row) for index in indexes]
        for index, key in zip(indexes, keys):
            if index.unique and key is not None and key in index._buckets:
                raise index._violation(key)
        if self._journal is not None:
            self._journal("insert", row_id, row)
        for index, key in zip(indexes, keys):
            if key is not None:
                index._buckets.setdefault(key, []).append(row_id)
        if row_id == len(self._rows):
            self._rows.append(row)
        else:
            self._rows[row_id] = row
        self._live_count += 1
        self.version += 1
        if self._undo is not None:
            self._undo.append(("insert", row_id))

    def load(self, rows: Sequence[Tuple[int, Row]]) -> None:
        """Re-materialise ``(row_id, row)`` pairs in their slots (the
        recovery redo path), then fill each index once, in the pairs' order.

        Pads the heap with dead slots up to each *row_id*: transactions
        whose inserts were discarded (aborted, or in flight at a crash)
        consumed row ids too, and replay must reproduce the exact slot
        layout so the row ids inside later WAL records keep resolving.
        Skips constraint validation — each row passed it when its record
        was logged — and leaves every slot, bucket, ``_live_count`` and
        ``version`` what one row at a time would.  Raises
        :class:`IntegrityError` for an occupied slot or a duplicate unique
        key; a duplicate key is found after the rows are placed, and the
        storage is then unusable — recovery discards it.
        """
        heap = self._rows
        for row_id, row in rows:
            if row_id == len(heap):  # a checkpoint's rows come in slot order
                heap.append(row)
            elif row_id > len(heap):
                heap.extend([None] * (row_id - len(heap)))
                heap.append(row)
            elif heap[row_id] is None:
                heap[row_id] = row
            else:
                raise IntegrityError(
                    f"cannot replay insert into occupied slot {row_id} of "
                    f"{self.schema.name!r}"
                )
        for index in self._indexes.values():
            index.fill(rows)
        self._live_count += len(rows)
        self.version += len(rows)

    def pad_slots(self, total_slots: int) -> None:
        """Extend the heap with dead slots up to *total_slots* (restoring
        a checkpoint's row-id space, trailing deleted rows included)."""
        while len(self._rows) < total_slots:
            self._rows.append(None)

    def delete(self, row_id: int) -> None:
        row = self._rows[row_id]
        if row is None:
            return
        if self._journal is not None:
            self._journal("delete", row_id, row)
        for index in self._indexes.values():
            index.remove(row_id, row)
        self._rows[row_id] = None
        self._live_count -= 1
        self.version += 1
        if self._undo is not None:
            self._undo.append(("delete", row_id, row))

    def update(self, row_id: int, new_row: Sequence[object]) -> None:
        old_row = self._rows[row_id]
        if old_row is None:
            raise IntegrityError(f"row {row_id} of {self.schema.name!r} is deleted")
        stored = tuple(new_row)
        self._check_not_null(stored)
        # Only indexes whose key changed are touched — a non-key update
        # leaves the row's place in every bucket alone — and uniqueness is
        # checked, and the update journaled, before the first of them is,
        # so a violation or a refused record leaves the row as it was.
        moved = []
        for index in self._indexes.values():
            new_key = index.key(stored)
            if new_key != index.key(old_row):
                if new_key is not None:
                    index.check_unique(new_key)
                moved.append(index)
        if self._journal is not None:
            self._journal("update", row_id, stored, old_row)
        for index in moved:
            index.remove(row_id, old_row)
            index.add(row_id, stored)
        self._rows[row_id] = stored
        self.version += 1
        if self._undo is not None:
            self._undo.append(("update", row_id, old_row))

    def scan(self) -> Iterator[Tuple[int, Row]]:
        """Yield (row_id, row) for every live row in insertion order."""
        for row_id, row in enumerate(self._rows):
            if row is not None:
                yield row_id, row

    def fetch(self, row_id: int) -> Row:
        row = self._rows[row_id]
        if row is None:
            raise IntegrityError(f"row {row_id} of {self.schema.name!r} is deleted")
        return row

    # -- reads, as of a snapshot or live --------------------------------------
    #
    # The one way operators read rows and probe indexes.  *snapshot* None
    # is the live heap; a slot without a version chain — every slot, when
    # no snapshot is open — answers a snapshot exactly as it answers a
    # live read, with no extra work per row.

    def as_of(self, snapshot: Optional[Snapshot]) -> Optional[int]:
        """The stamp a read under *snapshot* has to resolve chains at, or
        None when it reads what a live read reads (the key derived caches
        file a read under)."""
        if snapshot is None or not self.mvcc.chains:
            return None
        return snapshot.stamp

    def rows(self, snapshot: Optional[Snapshot] = None) -> Iterator[Row]:
        """Yield every row visible to *snapshot*, in slot order."""
        chains = self.mvcc.chains
        if snapshot is None or not chains:
            for row in self._rows:
                if row is not None:
                    yield row
            return
        stamp = snapshot.stamp
        for row_id, row in enumerate(self._rows):
            chain = chains.get(row_id)
            if chain is not None:
                row = chain.visible(stamp)
            if row is not None:
                yield row

    def probe(
        self,
        index: HashIndex,
        key: Tuple[object, ...],
        snapshot: Optional[Snapshot] = None,
    ) -> List[Row]:
        """The rows visible to *snapshot* whose *index* columns equal *key*.

        Order: the bucket's slots in bucket order, then — the hash index
        reflects the current heap, so a row whose current value left the
        key while its visible version still matches is not in the bucket —
        the matching chained slots outside it, in slot order.  A chained
        slot's visible version is re-verified against the key; chainless
        slots are taken as the bucket gives them.
        """
        rows = self._rows
        # A key with a NULL part is never indexed, so it finds no bucket.
        bucket = index._buckets.get(key, ())
        chains = self.mvcc.chains
        if snapshot is None or not chains:
            return list(map(rows.__getitem__, bucket))
        stamp = snapshot.stamp
        matched = []
        for row_id in bucket:
            chain = chains.get(row_id)
            if chain is None:
                matched.append(rows[row_id])
            else:
                row = chain.visible(stamp)
                if row is not None and index.key(row) == key:
                    matched.append(row)
        for row_id in sorted(chains.keys() - bucket):
            row = chains[row_id].visible(stamp)
            if row is not None and index.key(row) == key:
                matched.append(row)
        return matched

    # -- transactions ---------------------------------------------------------

    def attach_undo(self, log: Optional[List[tuple]]) -> None:
        """Point mutation logging at *log* (owned by one transaction; None
        stops logging).

        The database re-attaches the executing transaction's log before
        every DML statement, so concurrent sessions each collect their own
        inverses even when they touch the same table — strict 2PL keeps
        their row sets disjoint, which is what makes per-transaction
        replay safe.
        """
        self._undo = log

    def detach_undo(self) -> None:
        """Stop logging mutations (autocommit, or after commit)."""
        self._undo = None

    def rollback_entries(self, entries: List[tuple]) -> None:
        """Replay *entries* backwards with logging detached.

        Used by per-session transactions: the rolled-back transaction's
        log is replayed without disturbing whichever log happens to be
        attached (it is re-attached by the next statement anyway).
        """
        attached = self._undo
        journal = self._journal
        self._undo = None  # replay must not log
        self._journal = None  # the WAL sees one ABORT, not compensation ops
        try:
            for entry in reversed(entries):
                kind = entry[0]
                if kind == "insert":
                    self.delete(entry[1])
                elif kind == "delete":
                    self._restore(entry[1], entry[2])
                else:
                    self.update(entry[1], entry[2])
        finally:
            self._undo = None if attached is entries else attached
            self._journal = journal

    def _restore(self, row_id: int, row: Row) -> None:
        """Re-materialise a deleted row in its original slot."""
        if self._rows[row_id] is not None:
            raise IntegrityError(
                f"cannot restore row {row_id} of {self.schema.name!r}: "
                f"slot is occupied"
            )
        self._place(row_id, row)  # undo and journal are detached here

    # -- indexes -------------------------------------------------------------

    def create_index(self, name: str, column_names: Sequence[str], unique: bool = False) -> None:
        key = name.lower()
        if key in self._indexes:
            raise CatalogError(f"index {name!r} already exists")
        positions = [self.schema.column_index(column) for column in column_names]
        index = HashIndex(name, positions, unique=unique)
        index.fill(self.scan())
        self._indexes[key] = index

    def find_index(self, column_names: Sequence[str]) -> Optional[HashIndex]:
        """Return an index whose key is exactly *column_names*, if any."""
        wanted = tuple(self.schema.column_index(column) for column in column_names)
        for index in self._indexes.values():
            if index.column_positions == wanted:
                return index
        return None

    def index_names(self) -> List[str]:
        return [index.name for index in self._indexes.values()]
