"""Row storage: an in-memory heap of tuples plus hash indexes.

Rows are stored as Python tuples in insertion order.  Hash indexes map a
key (tuple of column values) to the list of row ids holding that key; they
accelerate the equality lookups that dominate the paper's navigational
workload (``WHERE link.left = ?``) and the engine's hash joins.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import CatalogError, IntegrityError
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

    def key_for(self, row: Row) -> Optional[Tuple[object, ...]]:
        key = tuple(row[position] for position in self.column_positions)
        if any(is_null(part) for part in key):
            return None
        return key

    def add(self, row_id: int, row: Row) -> None:
        key = self.key_for(row)
        if key is None:
            return
        self.check_unique(key)
        self._buckets.setdefault(key, []).append(row_id)

    def check_unique(self, key: Tuple[object, ...]) -> None:
        """Raise if indexing one more row under *key* would break
        uniqueness (callable before anything is modified)."""
        if self.unique and self._buckets.get(key):
            raise IntegrityError(
                f"unique index {self.name!r} violated by key {key!r}"
            )

    def remove(self, row_id: int, row: Row) -> None:
        key = self.key_for(row)
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

    def distinct_keys(self) -> int:
        """Number of distinct (non-NULL) keys currently indexed."""
        return len(self._buckets)


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
        #: ``journal(op, row_id, row)`` after every successful mutation
        #: (an update also passes the row it replaced).
        #: Detached (like ``_undo``) while a rollback replays inverses —
        #: an abort is logged as one ABORT record, not as compensation.
        self._journal = None
        #: Mutation counter: bumped by every insert/update/delete/restore.
        #: Derived caches (the columnar chunk cache) key on it to detect
        #: staleness without hooking every mutation path individually.
        self.version = 0
        #: MVCC version store (``repro.sqldb.mvcc.VersionStore``) when the
        #: owning database runs with snapshot reads; None otherwise.  The
        #: committed pre-image of every write is captured here *as part of
        #: the write*, so snapshot readers never see dirty heap values.
        self.mvcc = None
        #: Database dirty-write tracker: called as ``hook(storage, row_id)``
        #: after every mutation so the enclosing transaction (or autocommit
        #: statement scope) knows which slots to version-install at commit.
        #: Detached together with ``_journal`` during rollback replay.
        self._mvcc_hook = None
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
        for column, value in zip(self.schema.columns, stored):
            if column.not_null and is_null(value):
                raise IntegrityError(
                    f"column {self.schema.name}.{column.name} is NOT NULL"
                )
        row_id = len(self._rows)
        # Index maintenance first so a unique violation leaves no trace.
        for index in self._indexes.values():
            index.add(row_id, stored)
        self._rows.append(stored)
        self._live_count += 1
        self.version += 1
        if self._undo is not None:
            self._undo.append(("insert", row_id))
        if self._journal is not None:
            self._journal("insert", row_id, stored)
        self._notify_mvcc(row_id, None)
        return row_id

    def insert_at(self, row_id: int, row: Sequence[object]) -> None:
        """Re-materialise a row in a specific slot (recovery redo path).

        Pads the heap with dead slots up to *row_id*: transactions whose
        inserts were discarded (aborted, or in flight at a crash) consumed
        row ids too, and replay must reproduce the exact slot layout so
        the row ids inside later WAL records keep resolving correctly.
        Skips constraint validation — the row passed it when the record
        was originally logged — but maintains the indexes.
        """
        while len(self._rows) <= row_id:
            self._rows.append(None)
        if self._rows[row_id] is not None:
            raise IntegrityError(
                f"cannot replay insert into occupied slot {row_id} of "
                f"{self.schema.name!r}"
            )
        stored = tuple(row)
        for index in self._indexes.values():
            index.add(row_id, stored)
        self._rows[row_id] = stored
        self._live_count += 1
        self.version += 1
        self._notify_mvcc(row_id, None)

    def pad_slots(self, total_slots: int) -> None:
        """Extend the heap with dead slots up to *total_slots* (restoring
        a checkpoint's row-id space, trailing deleted rows included)."""
        while len(self._rows) < total_slots:
            self._rows.append(None)

    def delete(self, row_id: int) -> None:
        row = self._rows[row_id]
        if row is None:
            return
        for index in self._indexes.values():
            index.remove(row_id, row)
        self._rows[row_id] = None
        self._live_count -= 1
        self.version += 1
        if self._undo is not None:
            self._undo.append(("delete", row_id, row))
        if self._journal is not None:
            self._journal("delete", row_id, row)
        self._notify_mvcc(row_id, row)

    def update(self, row_id: int, new_row: Sequence[object]) -> None:
        old_row = self._rows[row_id]
        if old_row is None:
            raise IntegrityError(f"row {row_id} of {self.schema.name!r} is deleted")
        stored = tuple(new_row)
        for column, value in zip(self.schema.columns, stored):
            if column.not_null and is_null(value):
                raise IntegrityError(
                    f"column {self.schema.name}.{column.name} is NOT NULL"
                )
        # Only indexes whose key changed are touched — a non-key update
        # leaves the row's place in every bucket alone — and uniqueness is
        # checked before the first of them is, so a violation leaves the
        # row indexed exactly as it was.
        moved = []
        for index in self._indexes.values():
            new_key = index.key_for(stored)
            if new_key != index.key_for(old_row):
                if new_key is not None:
                    index.check_unique(new_key)
                moved.append(index)
        for index in moved:
            index.remove(row_id, old_row)
            index.add(row_id, stored)
        self._rows[row_id] = stored
        self.version += 1
        if self._undo is not None:
            self._undo.append(("update", row_id, old_row))
        if self._journal is not None:
            self._journal("update", row_id, stored, old_row)
        self._notify_mvcc(row_id, old_row)

    def scan(self) -> Iterator[Tuple[int, Row]]:
        """Yield (row_id, row) for every live row in insertion order."""
        for row_id, row in enumerate(self._rows):
            if row is not None:
                yield row_id, row

    def rows(self) -> Iterator[Row]:
        """Yield every live row (without row ids)."""
        for __, row in self.scan():
            yield row

    def fetch(self, row_id: int) -> Row:
        row = self._rows[row_id]
        if row is None:
            raise IntegrityError(f"row {row_id} of {self.schema.name!r} is deleted")
        return row

    # -- MVCC snapshot reads ---------------------------------------------------

    def _notify_mvcc(self, row_id: int, old_row: Optional[Row]) -> None:
        """Version bookkeeping for one successful heap write: capture the
        committed pre-image (first write to the slot) and report the dirty
        slot to the owning database's transaction scope."""
        if self.mvcc is not None:
            self.mvcc.record_write(row_id, old_row)
        if self._mvcc_hook is not None:
            self._mvcc_hook(self, row_id)

    def snapshot_rows(self, snapshot) -> Iterator[Row]:
        """Every row visible to *snapshot*, in slot order, lock-free."""
        store = self.mvcc
        if store is None or not store.chains:
            yield from self.rows()
            return
        chains = store.chains
        stamp = snapshot.stamp
        for row_id, live in enumerate(self._rows):
            chain = chains.get(row_id)
            if chain is None:
                if live is not None:
                    yield live
                continue
            version = chain.visible(stamp)
            if version is not None:
                yield version.row

    def snapshot_fetch(self, row_id: int, snapshot) -> Optional[Row]:
        """The row *snapshot* sees in slot *row_id*, or None."""
        live = self._rows[row_id] if row_id < len(self._rows) else None
        store = self.mvcc
        if store is None:
            return live
        return store.visible_row(row_id, live, snapshot.stamp)

    def snapshot_probe(self, index: HashIndex, key: Tuple[object, ...], snapshot) -> Iterator[Row]:
        """Index-equality probe evaluated under *snapshot* visibility.

        The hash index reflects the *current* heap, which may differ from
        the snapshot: dirty/newer rows must be filtered out (re-verify the
        key against the visible version) and rows whose current value left
        the key — but whose snapshot version still matches — must be found
        through a supplemental pass over the chained slots.  GC keeps that
        chain set tiny, so the common chainless case is the plain probe.
        """
        store = self.mvcc
        if store is None or not store.chains:
            for row_id in index.probe(key):
                yield self._rows[row_id]
            return
        matched: List[Tuple[int, Row]] = []
        seen = set()
        for row_id in index.probe(key):
            seen.add(row_id)
            row = self.snapshot_fetch(row_id, snapshot)
            if row is not None and index.key_for(row) == key:
                matched.append((row_id, row))
        for row_id in store.chains:
            if row_id in seen:
                continue
            row = self.snapshot_fetch(row_id, snapshot)
            if row is not None and index.key_for(row) == key:
                matched.append((row_id, row))
        matched.sort(key=lambda pair: pair[0])
        for __, row in matched:
            yield row

    # -- transactions ---------------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        return self._undo is not None

    def attach_undo(self, log: List[tuple]) -> None:
        """Point mutation logging at *log* (owned by one transaction).

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

    def begin_undo(self) -> None:
        """Enlist this table in a transaction: start recording inverses."""
        if self._undo is None:
            self._undo = []

    def commit_undo(self) -> None:
        """Forget the undo log (changes become permanent)."""
        self._undo = None

    def rollback_undo(self) -> None:
        """Replay the attached undo log backwards, restoring the
        pre-transaction state (rows and indexes)."""
        entries = self._undo
        self._undo = None  # replay must not log
        self.rollback_entries(entries or [])

    def rollback_entries(self, entries: List[tuple]) -> None:
        """Replay *entries* backwards with logging detached.

        Used by per-session transactions: the rolled-back transaction's
        log is replayed without disturbing whichever log happens to be
        attached (it is re-attached by the next statement anyway).
        """
        attached = self._undo
        journal = self._journal
        store = self.mvcc
        hook = self._mvcc_hook
        self._undo = None  # replay must not log
        self._journal = None  # the WAL sees one ABORT, not compensation ops
        # Inverse replay restores the committed state the chains already
        # describe — re-capturing "pre-images" of the compensation writes
        # would corrupt the pending counts, so MVCC detaches too.
        self.mvcc = None
        self._mvcc_hook = None
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
            self.mvcc = store
            self._mvcc_hook = hook

    def _restore(self, row_id: int, row: Row) -> None:
        """Re-materialise a deleted row in its original slot."""
        if self._rows[row_id] is not None:
            raise IntegrityError(
                f"cannot restore row {row_id} of {self.schema.name!r}: "
                f"slot is occupied"
            )
        for index in self._indexes.values():
            index.add(row_id, row)
        self._rows[row_id] = row
        self._live_count += 1
        self.version += 1

    # -- indexes -------------------------------------------------------------

    def create_index(self, name: str, column_names: Sequence[str], unique: bool = False) -> None:
        key = name.lower()
        if key in self._indexes:
            raise CatalogError(f"index {name!r} already exists")
        positions = [self.schema.column_index(column) for column in column_names]
        index = HashIndex(name, positions, unique=unique)
        for row_id, row in self.scan():
            index.add(row_id, row)
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
