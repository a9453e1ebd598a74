"""MVCC snapshot reads beside strict 2PL (DESIGN §14).

The paper's workload is long read-only navigations — multi-level
expands, where-used audits — racing engineering-change writes.  Under
strict 2PL those reads block and get blocked by writers.  This module
is the other classic answer: versioned rows with snapshot-isolation
reads, so a ``BEGIN READ ONLY`` transaction captures a :class:`Snapshot`
at start and reads a consistent committed state without acquiring a
single lock, while writes keep taking X locks through the existing
:class:`~repro.concurrency.locks.LockManager`.

Capture rule
    A version exists only while a snapshot can need it.  With no
    snapshot open a write costs what the heap write costs and a commit
    only advances the clock: no chain, no pre-image, nothing to collect.
    While one is open, the pre-image of every uncommitted heap write is
    in a chain by the end of the writing statement.  The pre-images are
    the undo entries the write logged anyway (first entry per slot) —
    the undo log *is* the pre-image store, this module copies from it:
    a transaction's whole log when the first snapshot opens around it,
    a statement's tail afterwards.  When the last snapshot closes every
    chain is dropped; a writer still in flight is captured again from
    its undo log if another snapshot opens.

Version format
    Each heap slot may own a :class:`VersionChain` of committed
    :class:`RowVersion` entries stamped ``[begin, end)`` with values of
    a monotonic commit counter (the :class:`MvccManager` clock).  The
    heap row itself is the *newest* state — possibly dirty while a write
    transaction is open.  A slot with **no chain** is trivially visible:
    the heap row, when present, is committed and unchanged since before
    every open snapshot.

Visibility rule
    Version ``v`` is visible to snapshot ``s`` iff
    ``v.begin <= s.stamp < v.end`` (``end is None`` = still current).
    Chains hold only *committed* versions — dirty heap values never
    enter a chain until the writer's commit installs them — so a
    snapshot can never observe a torn or uncommitted row.

Garbage collection
    The low-water mark is the minimum stamp over open snapshots.
    Versions dead to it are pruned; a chain that degenerates to a single
    live version equal to the heap row (and visible to every open
    snapshot) is dropped entirely, restoring the chainless fast path.
    Every version that enters a chain is counted in ``versions_created``
    and every one that leaves in ``versions_gc``, so the two are equal
    whenever no chain is left.

Everything is deterministic: stamps come from the commit counter, GC is
a pure function of the chain/snapshot state, and iteration orders are
sorted — same seed, byte-identical reports.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    MutableMapping,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:
    from repro.sqldb.storage import TableStorage

Row = Tuple[object, ...]

#: One entry of a storage undo log: ``("insert", row_id)``, or
#: ``("update" | "delete", row_id, replaced_row)``.
UndoEntry = Tuple[Any, ...]

#: What writers changed: each storage written, with the undo entries
#: logged there.
Writes = Iterable[Tuple["TableStorage", Sequence[UndoEntry]]]

#: Begin stamp of a pre-image version: the row was committed before any
#: snapshot that can still be open, so it is visible "since forever".
PRE_IMAGE_STAMP = 0


class Snapshot:
    """A point-in-time visibility token captured at transaction start."""

    __slots__ = ("stamp", "sid")

    def __init__(self, stamp: int, sid: int) -> None:
        #: Commit-clock value at capture: the snapshot sees exactly the
        #: transactions with commit stamp <= ``stamp``.
        self.stamp = stamp
        #: Registry id inside the owning :class:`MvccManager`.
        self.sid = sid

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Snapshot(stamp={self.stamp}, sid={self.sid})"


class RowVersion:
    """One committed version of a row: value plus ``[begin, end)`` stamps."""

    __slots__ = ("begin", "end", "row")

    def __init__(self, begin: int, end: Optional[int], row: Row) -> None:
        self.begin = begin
        self.end = end
        self.row = row

    def visible_to(self, stamp: int) -> bool:
        return self.begin <= stamp and (self.end is None or stamp < self.end)

    def as_tuple(self) -> Tuple[int, Optional[int], Row]:
        return (self.begin, self.end, self.row)


class VersionChain:
    """The committed version history of one heap slot.

    ``pending`` marks a slot holding an uncommitted heap write (strict
    2PL guarantees at most one transaction writes it at a time); a
    pending chain is pinned against GC because its bookkeeping is still
    in flight.  An *empty* pending chain is the insert marker: the
    uncommitted heap row exists but no snapshot may see it.
    """

    __slots__ = ("versions", "pending")

    def __init__(self) -> None:
        self.versions: List[RowVersion] = []
        self.pending = False

    def visible(self, stamp: int) -> Optional[Row]:
        """The row snapshot *stamp* sees in this slot (None = invisible)."""
        for version in reversed(self.versions):
            if version.visible_to(stamp):
                return version.row
        return None

    def live_tail(self) -> Optional[RowVersion]:
        if self.versions and self.versions[-1].end is None:
            return self.versions[-1]
        return None


class VersionStore:
    """Version chains of one table, keyed by heap row id (slot)."""

    __slots__ = ("chains",)

    def __init__(self) -> None:
        self.chains: Dict[int, VersionChain] = {}

    # -- write side --------------------------------------------------------

    def capture(self, entries: Iterable[UndoEntry]) -> int:
        """Mark the slots *entries* wrote as holding uncommitted values.

        A slot's first entry carries its committed pre-image (none for
        an insert), which goes into a fresh chain so snapshot readers
        keep resolving the slot while the heap value is dirty.  Later
        entries find the chain in place — the dirty intermediate values
        must never become versions.  Returns the pre-images captured.
        """
        captured = 0
        chains = self.chains
        for entry in entries:
            chain = chains.get(entry[1])
            if chain is None:
                chain = chains[entry[1]] = VersionChain()
                if len(entry) > 2:
                    chain.versions.append(
                        RowVersion(PRE_IMAGE_STAMP, None, entry[2])
                    )
                    captured += 1
            chain.pending = True
        return captured

    def install(
        self, row_ids: List[int], heap: List[Optional[Row]], stamp: int
    ) -> int:
        """Commit the writes to *row_ids* as versions stamped *stamp*.

        The heap already holds the committed state (writes are in-place);
        installing terminates each superseded live version at *stamp* and
        appends the new state — or only terminates, for a delete.
        Returns the number of versions created.
        """
        created = 0
        for row_id in row_ids:
            chain = self.chains[row_id]
            chain.pending = False
            live = heap[row_id]
            tail = chain.live_tail()
            if live is None:
                if tail is not None:
                    tail.end = stamp
                continue
            if tail is not None:
                if tail.row == live:
                    continue  # no net change (e.g. update back to old value)
                tail.end = stamp
            chain.versions.append(RowVersion(stamp, None, live))
            created += 1
        return created

    def abort(self, row_ids: List[int], heap: List[Optional[Row]]) -> None:
        """Forget the pending writes to *row_ids* (rollback already
        restored the heap).  An aborted insert's empty marker chain is
        dropped so the dead slot stays invisible-and-chainless."""
        for row_id in row_ids:
            chain = self.chains[row_id]
            chain.pending = False
            if not chain.versions and heap[row_id] is None:
                del self.chains[row_id]

    def gc(self, low_water: int, heap: List[Optional[Row]]) -> int:
        """Prune versions invisible to every open (and future) snapshot.

        Returns the number of versions dropped.  Chains with pending
        writes are pinned; a chain reduced to one live version equal to
        the heap row with ``begin <= low_water`` is redundant (the
        chainless fast path gives the same answer to every snapshot that
        can still exist) and is removed whole.
        """
        dropped = 0
        for row_id in sorted(self.chains):
            chain = self.chains[row_id]
            if chain.pending:
                continue
            kept = [
                version
                for version in chain.versions
                if version.end is None or version.end > low_water
            ]
            dropped += len(chain.versions) - len(kept)
            chain.versions = kept
            live = heap[row_id]
            if not kept:
                if live is None:
                    del self.chains[row_id]
                continue
            if (
                len(kept) == 1
                and kept[0].end is None
                and kept[0].begin <= low_water
                and kept[0].row == live
            ):
                dropped += 1
                del self.chains[row_id]
        return dropped

    def clear(self) -> int:
        """Drop every chain (no snapshot is left to read one); returns
        the number of versions dropped."""
        dropped = sum(len(chain.versions) for chain in self.chains.values())
        self.chains.clear()
        return dropped

    def dump(self) -> Dict[int, List[Tuple[int, Optional[int], Row]]]:
        """Deterministic chain dump for tests and recovery audits."""
        return {
            row_id: [version.as_tuple() for version in chain.versions]
            for row_id, chain in sorted(self.chains.items())
        }


def _row_ids(entries: Sequence[UndoEntry]) -> List[int]:
    return sorted({entry[1] for entry in entries})


class MvccManager:
    """Commit clock, snapshot registry, and GC across a database's tables."""

    def __init__(
        self, statistics: Optional[MutableMapping[str, int]] = None
    ) -> None:
        #: Stamp of the most recent committed write transaction.
        self.clock = 0
        self._snapshot_seq = 0
        #: Open snapshots: sid -> stamp (the GC low-water mark inputs).
        self._open: Dict[int, int] = {}
        #: The database's table storages, in registration order.
        self._tables: List[TableStorage] = []
        #: Shared counter sink (the owning Database's ``statistics``).
        self.statistics = statistics if statistics is not None else {}

    # -- registration ------------------------------------------------------

    def register(self, storage: TableStorage) -> None:
        """Track *storage* (its ``mvcc`` store holds the table's chains)."""
        self._tables.append(storage)

    def forget(self, storage: TableStorage) -> None:
        """Stop tracking a dropped table; its chains go with it."""
        self._bump("versions_gc", storage.mvcc.clear())
        self._tables.remove(storage)

    # -- snapshots ---------------------------------------------------------

    def open_snapshot(self, in_flight: Writes = ()) -> Snapshot:
        """Open a snapshot at the current clock.

        *in_flight* is what the open write transactions have written so
        far.  It is consumed only when no snapshot is open yet: those
        writes went uncaptured, so their slots get their pre-images from
        the undo logs now.  With a snapshot already open every statement
        has been capturing its own writes.
        """
        if not self._open:
            for storage, entries in in_flight:
                self.capture(storage, entries)
        self._snapshot_seq += 1
        snapshot = Snapshot(stamp=self.clock, sid=self._snapshot_seq)
        self._open[snapshot.sid] = snapshot.stamp
        return snapshot

    def close_snapshot(self, snapshot: Snapshot) -> None:
        self._open.pop(snapshot.sid, None)
        if self._open:
            self._collect()
            return
        # Nobody is left to read a chain, pending ones included: a writer
        # still in flight is captured afresh if a snapshot opens again.
        for storage in self._tables:
            if storage.mvcc.chains:
                self._bump("versions_gc", storage.mvcc.clear())

    @property
    def open_snapshots(self) -> int:
        return len(self._open)

    # -- capture / commit / abort ------------------------------------------

    def capture(
        self, storage: TableStorage, entries: Iterable[UndoEntry]
    ) -> None:
        """Shield the uncommitted writes *entries* made to *storage* from
        snapshot readers (call only while a snapshot is open)."""
        self._bump("versions_created", storage.mvcc.capture(entries))

    def commit(self, writes: Writes = ()) -> int:
        """One writer commits: advance the clock and return its stamp.

        Called exactly once per committing transaction (or autocommit
        statement, or replayed transaction) that wrote — never for a
        read-only or empty one — which keeps the clock a pure function
        of the committed write history, and that is what lets recovery
        replay rebuild it exactly.  *writes* become versions at the new
        stamp when a snapshot is open to need them; the caller passes
        nothing when it knows none is.
        """
        self.clock += 1
        if self._open:
            created = 0
            for storage, entries in writes:
                created += storage.mvcc.install(
                    _row_ids(entries), storage._rows, self.clock
                )
            self._bump("versions_created", created)
            self._collect()
        return self.clock

    def tick(self, count: int) -> None:
        """*count* writers commit one after another while no snapshot is
        open: what *count* :meth:`commit` calls with no writes leave."""
        self.clock += count

    def abort(self, writes: Writes) -> None:
        """One writer rolled back (the heap is already restored)."""
        if not self._open:
            return
        for storage, entries in writes:
            storage.mvcc.abort(_row_ids(entries), storage._rows)
        self._collect()

    def _collect(self) -> None:
        """Run GC over every table against the oldest open snapshot."""
        low_water = min(self._open.values())
        dropped = 0
        for storage in self._tables:
            if storage.mvcc.chains:
                dropped += storage.mvcc.gc(low_water, storage._rows)
        self._bump("versions_gc", dropped)

    def _bump(self, key: str, amount: int) -> None:
        if amount:
            self.statistics[key] = self.statistics.get(key, 0) + amount

    # -- introspection -----------------------------------------------------

    def chain_count(self) -> int:
        return sum(len(storage.mvcc.chains) for storage in self._tables)

    def dump(self) -> Dict[str, object]:
        """Deterministic full state: clock plus per-table chain dumps.

        The recovery test's yardstick: recovering the same log twice (or
        checkpoint-restoring and replaying) must reproduce this dump
        byte-for-byte.
        """
        tables: Dict[str, Dict[int, List[Tuple[int, Optional[int], Row]]]] = {}
        for storage in sorted(self._tables, key=lambda s: s.schema.name):
            if storage.mvcc.chains:
                tables[storage.schema.name] = storage.mvcc.dump()
        return {"clock": self.clock, "tables": tables}
