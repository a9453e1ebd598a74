"""Row storage: an in-memory heap of tuples plus hash indexes.

Rows are stored as Python tuples in insertion order.  Hash indexes map a
key (tuple of column values) to the list of row ids holding that key; they
accelerate the equality lookups that dominate the paper's navigational
workload (``WHERE link.left = ?``) and the engine's hash joins.
"""

from __future__ import annotations

from itertools import islice, repeat
from operator import indexOf, itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import CatalogError, IntegrityError
from repro.sqldb.mvcc import Snapshot, VersionStore
from repro.sqldb.schema import TableSchema

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
        self._pick = itemgetter(*self.column_positions)

    def key(self, row: Row) -> Optional[Tuple[object, ...]]:
        """*row*'s key, or None when one of its columns is NULL."""
        key = self._pick(row)
        if len(self.column_positions) == 1:
            return None if key is None else (key,)
        return None if None in key else key

    def add(self, row_id: int, row: Row) -> None:
        self.fill((row_id,), (row,))

    def keys(self, rows: Iterable[Row]) -> Iterator[Tuple[object, ...]]:
        """The key tuple of each of *rows*, NULL parts included, read with
        no Python call per row."""
        keys = map(self._pick, rows)
        return zip(keys) if len(self.column_positions) == 1 else keys

    def fill(self, row_ids: Iterable[int], rows: Iterable[Row]) -> None:
        """Index each of *rows* under its row id, in their order."""
        buckets = self._buckets
        unique = self.unique
        for row_id, key in zip(row_ids, self.keys(rows)):
            if None in key:
                continue
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [row_id]
            elif unique:
                raise self._violation(key)
            else:
                bucket.append(row_id)

    def first_taken(self, rows: Sequence[Row], count: int) -> Optional[Tuple[int, IntegrityError]]:
        """The position among the first *count* of *rows* of the first
        whose key this (unique) index or an earlier row holds, with its
        error; None when every key is free (one with a NULL part always
        is).  The common case builds no key tuple: the distinct keys (a
        single column's values as they are) are tested as a set."""
        distinct = set(map(self._pick, islice(rows, count)))
        single = len(self.column_positions) == 1
        if len(distinct) == count and self._buckets.keys().isdisjoint(
            zip(distinct) if single else distinct
        ):
            return None
        seen: set = set()
        for at, key in enumerate(self.keys(islice(rows, count))):
            if None not in key:
                if key in self._buckets or key in seen:
                    return at, self._violation(key)
                seen.add(key)
        return None

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
        if None in key:
            return []
        return list(self._buckets.get(key, ()))


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

    def check(self, rows: List[Row]) -> Tuple[int, Optional[IntegrityError]]:
        """How many of *rows* (of the table's arity), from the first, can
        be inserted in their order, and the first bad row's error (None
        when all can): no NULL in a NOT NULL column, and no unique key that
        its index or an earlier row holds.  Each check reads only the rows
        before the first bad one so far, in the order one row's checks
        run, so the error is the one inserting row by row meets first."""
        good, error = len(rows), None
        for position in self._not_null:
            try:  # the first NULL among the rows still good
                at = indexOf(map(itemgetter(position), islice(rows, good)), None)
            except ValueError:
                continue
            good, error = at, self._null_error(position)
        for index in self._indexes.values():
            taken = index.first_taken(rows, good) if index.unique else None
            if taken is not None:
                good, error = taken
        return good, error

    def _null_error(self, position: int) -> IntegrityError:
        return IntegrityError(
            f"column {self.schema.name}.{self.schema.columns[position].name} is NOT NULL"
        )

    def append(self, rows: Sequence[Row]) -> None:
        """Put checked, journaled *rows* in the next slots: the heap
        extended once, each index filled once, one undo entry per row."""
        # A list: each row id is one int, shared by every index's bucket.
        row_ids = list(range(len(self._rows), len(self._rows) + len(rows)))
        self._rows.extend(rows)
        self._index(row_ids, rows)
        if self._undo is not None:
            self._undo.extend(zip(repeat("insert"), row_ids))

    def _index(self, row_ids: Sequence[int], rows: Sequence[Row]) -> None:
        """Fill each index with *rows*, newly in slots *row_ids*, and
        count them — what placing them one at a time leaves."""
        for index in self._indexes.values():
            index.fill(row_ids, rows)
        self._live_count += len(rows)
        self.version += len(rows)

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
        self._index([row_id for row_id, __ in rows], [row for __, row in rows])

    def pad_slots(self, total_slots: int) -> None:
        """Extend the heap with dead slots up to *total_slots* (restoring
        a checkpoint's row-id space, trailing deleted rows included)."""
        while len(self._rows) < total_slots:
            self._rows.append(None)

    def delete(self, row_id: int, journal: Optional[Callable[[int], None]] = None) -> None:
        """Delete the row in slot *row_id* (a free slot is left as it is),
        first calling ``journal(row_id)`` when given (the WAL's redo
        record, written before memory changes)."""
        row = self._rows[row_id]
        if row is None:
            return
        if journal is not None:
            journal(row_id)
        for index in self._indexes.values():
            index.remove(row_id, row)
        self._rows[row_id] = None
        self._live_count -= 1
        self.version += 1
        if self._undo is not None:
            self._undo.append(("delete", row_id, row))

    def update(
        self, row_id: int, new_row: Sequence[object], journal: Optional[Callable] = None
    ) -> None:
        """Replace the row in slot *row_id* with *new_row*, first calling
        ``journal(row_id, old_row, new_row)`` when given, once the row
        passed its checks (a record the journal refuses leaves it as it
        was)."""
        old_row = self._rows[row_id]
        if old_row is None:
            raise IntegrityError(f"row {row_id} of {self.schema.name!r} is deleted")
        stored = tuple(new_row)
        for position in self._not_null:
            if stored[position] is None:
                raise self._null_error(position)
        # Only indexes whose key changed are touched — a non-key update
        # leaves the row's place in every bucket alone — and uniqueness is
        # checked, and the update journaled, before the first of them is,
        # so a violation or a refused record leaves the row as it was.
        moved = []
        for index in self._indexes.values():
            new_key = index.key(stored)
            if new_key != index.key(old_row):
                if index.unique and new_key in index._buckets:  # never a NULL key
                    raise index._violation(new_key)
                moved.append(index)
        if journal is not None:
            journal(row_id, old_row, stored)
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
        """Every row visible to *snapshot*, in slot order."""
        chains = self.mvcc.chains
        if snapshot is None or not chains:
            # A slot is None or a row of arity >= 1: its truth is liveness.
            return filter(None, self._rows)
        return self._visible(snapshot.stamp, chains)

    def _visible(self, stamp: int, chains: Dict) -> Iterator[Row]:
        for row_id, row in enumerate(self._rows):
            chain = chains.get(row_id)
            if chain is not None:
                row = chain.visible(stamp)
            if row is not None:
                yield row

    def live_probe(self, index: HashIndex) -> Tuple[Callable, Callable, Dict]:
        """``(slot -> row, key -> bucket, version chains)``: with no chain
        to resolve, :meth:`probe` of *index* is ``list(map(slot_row,
        bucket(key, ())))`` — what a generated loop calls in place of it
        (every part is the storage's own object, never replaced)."""
        return self._rows.__getitem__, index._buckets.get, self.mvcc.chains

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
        """Replay *entries* backwards with undo logging detached, and
        unjournaled: the WAL sees one ABORT, not compensation ops.

        Used by per-session transactions: the rolled-back transaction's
        log is replayed without disturbing whichever log happens to be
        attached (it is re-attached by the next statement anyway).
        """
        attached = self._undo
        self._undo = None  # replay must not log
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

    def _restore(self, row_id: int, row: Row) -> None:
        """Re-materialise a deleted row in its original slot."""
        if self._rows[row_id] is not None:
            raise IntegrityError(
                f"cannot restore row {row_id} of {self.schema.name!r}: "
                f"slot is occupied"
            )
        error = self.check([row])[1]
        if error is not None:
            raise error
        self.load([(row_id, row)])

    # -- indexes -------------------------------------------------------------

    def create_index(self, name: str, column_names: Sequence[str], unique: bool = False) -> None:
        key = name.lower()
        if key in self._indexes:
            raise CatalogError(f"index {name!r} already exists")
        positions = [self.schema.column_index(column) for column in column_names]
        index = HashIndex(name, positions, unique=unique)
        live = [row_id for row_id, row in enumerate(self._rows) if row is not None]
        index.fill(live, map(self._rows.__getitem__, live))
        self._indexes[key] = index

    def find_index(self, column_names: Sequence[str]) -> Optional[HashIndex]:
        """Return an index whose key is exactly *column_names*, if any."""
        wanted = tuple(self.schema.column_index(column) for column in column_names)
        for index in self._indexes.values():
            if index.column_positions == wanted:
                return index
        return None
