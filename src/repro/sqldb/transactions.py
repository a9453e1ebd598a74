"""Who holds which transaction, and how it ends.

:class:`Transactions` (``Database.transactions``) owns each session's open
transaction, the session the executing statement belongs to, the
force-abort flags of deadlock victims, the transaction-id sequences, and
a statement's lock owner and lock acquires.  ``Database`` keeps its public
transaction methods as calls into it; every other module uses its public
methods and reads none of its fields.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import count
from typing import Any, Dict, Hashable, Optional

from repro.errors import DeadlockError, ExecutionError, LockTimeout


class _Transaction:
    """One open transaction: its undo logs, and its snapshot when it is
    READ ONLY."""

    __slots__ = ("txn_id", "logs", "read_only", "snapshot")

    def __init__(self, txn_id: int, read_only: bool) -> None:
        self.txn_id = txn_id
        #: storage -> its undo entries for this transaction, in first-enlist
        #: order (rollback replays in reverse).
        self.logs: Dict[Any, list] = {}
        #: READ ONLY transactions reject DML and read a snapshot instead
        #: of taking shared locks.
        self.read_only = read_only
        #: The :class:`repro.sqldb.mvcc.Snapshot` captured at BEGIN for a
        #: read-only transaction; None otherwise.
        self.snapshot = None

    def log_for(self, storage) -> list:
        return self.logs.setdefault(storage, [])

    def writes(self) -> list:
        """``(storage, undo entries)`` for every storage this transaction
        changed: what it must undo, and what its versions are built from."""
        return [(storage, log) for storage, log in self.logs.items() if log]


class Transactions:
    """The open transaction of each session — any hashable token: ``None``
    is the default one, a server passes each client's id — and its end."""

    def __init__(self, database) -> None:
        #: The owning database: its ``mvcc``, ``statistics``, and the
        #: ``locks`` and ``wal`` it attached (None when not attached).
        self.database = database
        #: Session of the executing statement (set by ``Database.execute``).
        self.session: Hashable = None
        self._open: Dict[Hashable, _Transaction] = {}
        #: Sessions whose transaction was force-aborted (deadlock victim,
        #: lock timeout) -> reason; surfaced as :class:`DeadlockError` on
        #: the session's next statement or commit.
        self._aborted: Dict[Hashable, str] = {}
        #: Transaction ids when no lock manager issues them (larger id =
        #: younger transaction), and the implicit (autocommit) WAL ids: a
        #: disjoint high range, so the two never merge in the log.
        self._txn_ids = count(1)
        self._implicit_txn_ids = count((1 << 32) + 1)
        #: ``Granularity.ROWS``, resolved once by :meth:`attach`: only an
        #: attached lock manager makes a footprint's granularity matter.
        self._rows = None

    def get(self, session: Hashable) -> Optional[_Transaction]:
        """The open transaction of *session*, or None."""
        return self._open.get(session)

    def any_open(self) -> bool:
        """Whether any session has an open transaction."""
        return bool(self._open)

    def check_aborted(self, session: Hashable) -> None:
        """Raise :class:`DeadlockError` once for a force-aborted session."""
        reason = self._aborted.pop(session, None)
        if reason is not None:
            raise DeadlockError(reason)

    def begin(self, session: Hashable, read_only: bool) -> int:
        self.check_aborted(session)
        if session in self._open:
            raise ExecutionError("a transaction is already active")
        db = self.database
        txn_id = next(self._txn_ids) if db.locks is None else db.locks.begin(owner=session)
        txn = _Transaction(txn_id, read_only)
        if read_only:
            db.statistics["readonly_txns"] += 1
            txn.snapshot = db.mvcc.open_snapshot(
                written
                for other in self._open.values()
                for written in other.writes()
            )
        self._open[session] = txn
        return txn_id

    def commit(self, session: Hashable) -> None:
        self.check_aborted(session)
        txn = self._open.pop(session, None)
        if txn is None:
            raise ExecutionError("no transaction is active")
        for storage, log in txn.logs.items():
            # Detach only if this transaction's log is still the one
            # attached — another session's statement may have re-pointed
            # the storage since our last write.
            if storage._undo is log:
                storage.detach_undo()
        db = self.database
        if db.wal is not None and not txn.read_only:
            # The commit record is the durability point: if the disk dies
            # on this very append (DiskCrashed propagates), the outcome is
            # ambiguous on purpose — exactly like a real commit racing a
            # power cut — and recovery decides by what hit the platter.
            db.wal.commit(txn.txn_id)
        # Versions install only after the commit record is durable, so a
        # crash between the two leaves no committed-but-unlogged version
        # for a snapshot to see after recovery.
        if txn.snapshot is not None:
            db.mvcc.close_snapshot(txn.snapshot)
        else:
            writes = txn.writes()
            if writes:
                db.mvcc.commit(writes)
        if db.locks is not None:
            db.locks.release_all(txn.txn_id)

    def end(self, session: Hashable) -> bool:
        """Roll back the session's transaction, or acknowledge (consume)
        its force-abort flag: the work is already undone.  False when the
        session had neither — nothing was left to end."""
        if self._aborted.pop(session, None) is not None:
            return True
        txn = self._open.pop(session, None)
        if txn is None:
            return False
        self._rollback(txn)
        return True

    def _rollback(self, txn: _Transaction) -> None:
        for storage, log in reversed(txn.logs.items()):
            storage.rollback_entries(log)
        db = self.database
        if db.wal is not None and not txn.read_only:
            db.wal.abort(txn.txn_id)
        if txn.snapshot is not None:
            db.mvcc.close_snapshot(txn.snapshot)
        else:
            db.mvcc.abort(txn.writes())
        if db.locks is not None:
            db.locks.release_all(txn.txn_id)

    def _abort(self, txn_id: int) -> None:
        """Force-abort the transaction with *txn_id* (deadlock victim).

        Called back by the lock manager while some *other* session's
        acquire is in progress; the victim's session learns about it via
        :class:`DeadlockError` on its next statement, commit, or (as a
        no-op) rollback.
        """
        for session, txn in list(self._open.items()):
            if txn.txn_id == txn_id:
                self.end(session)
                self._aborted[session] = (
                    f"transaction {txn_id} was aborted as a deadlock victim; "
                    f"restart the transaction"
                )
                return

    def statement_txn(self, txn: Optional[_Transaction]) -> int:
        """A statement's WAL transaction id: its transaction's, or a new
        implicit one that the statement's end commits."""
        return next(self._implicit_txn_ids) if txn is None else txn.txn_id

    def attach(self, manager) -> None:
        """Abort *manager*'s deadlock victims through :meth:`_abort`."""
        from repro.concurrency.footprint import Granularity  # local: avoid cycle

        self._rows = Granularity.ROWS
        manager.abort_callback = self._abort

    @contextmanager
    def lock_scope(self, requests):
        """Lock-owner scope of one statement, the table locks of its
        footprint *requests* taken (see :meth:`acquire`).

        Inside a transaction, locks attach to it and live until
        commit/rollback (strict 2PL).  Autocommit statements get an
        ephemeral owner released at statement end; their conflicts fail
        fast (``park=False``) because there is no transaction to keep a
        queue position for.  Yields ``(owner_id, parkable)`` or
        ``(None, False)`` when no lock manager is attached.
        """
        locks = self.database.locks
        if locks is None:
            yield None, False
            return
        txn = self.get(self.session)
        if txn is not None:
            self.acquire(txn.txn_id, True, requests)
            yield txn.txn_id, True
            return
        owner = locks.begin(owner="autocommit")
        try:
            self.acquire(owner, False, requests)
            yield owner, False
        finally:
            locks.release_all(owner)

    def acquire(self, owner, parkable, requests, row_ids=None) -> None:
        """Acquire a static lock footprint (:mod:`repro.concurrency.footprint`,
        the shared source of truth with the transaction analyzer): its
        table-granularity requests, or — given the matched *row_ids*, known
        before the first mutation — one row lock per row for each of its
        row-granularity requests."""
        if owner is None:
            return
        bound = row_ids is not None
        try:
            for request in requests:
                if (request.granularity is self._rows) == bound:
                    for row_id in row_ids if bound else (None,):
                        self.database.locks.acquire(
                            owner, request.table, row_id, request.mode, park=parkable
                        )
        except (DeadlockError, LockTimeout):
            # This session is the victim: its transaction (if any) is
            # rolled back here so the raised error leaves a clean slate.
            self.end(self.session)
            raise
