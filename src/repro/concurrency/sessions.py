"""Per-client server sessions mapping wire clients onto transactions.

A session is keyed by the ``client_id`` every SEQUENCED frame already
carries (and which the OPEN_SESSION handshake states explicitly), and the
database runs the client's statements on the session of that id.  Each
session owns at most one open transaction inside the shared
:class:`~repro.sqldb.database.Database`, so two clients hold independent
undo logs and lock sets while the default session (``None``) keeps
working for server procedures and embedded use.  The manager knows only
which client ids are open or were evicted; their transactions live in
``Database.transactions``, which ends them.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Set

from repro.errors import SessionError
from repro.sqldb.database import Database


class SessionManager:
    """Session registry for one :class:`DatabaseServer`.

    Constructing it with a lock manager attaches that manager to the
    database, turning on strict 2PL for every session (the default
    session included).
    """

    def __init__(
        self, database: Database, lock_manager: Optional[Any] = None
    ) -> None:
        self.database = database
        self.lock_manager = lock_manager
        if lock_manager is not None:
            database.attach_lock_manager(lock_manager)
        #: Client ids with an open session, in the order they opened (a
        #: dict, not a set: :meth:`evict_all` tears them down in that order).
        self._open: Dict[int, None] = {}
        #: Client ids whose session the *server* tore down (eviction or
        #: crash).  Their later statements must fail with SessionError —
        #: silently routing them to the default session would commit what
        #: the client believes is inside its (dead) transaction.  Cleared
        #: by the client's next OPEN_SESSION.
        self._evicted: Set[int] = set()
        self.statistics = {
            "opened": 0,
            "closed": 0,
            "evicted": 0,
        }

    # -- lifecycle ----------------------------------------------------------

    def open(self, client_id: int) -> None:
        """Open the session for *client_id*, unless it is open already.

        Idempotent: a retransmitted OPEN_SESSION must not fail, and the
        replay cache cannot cover the unsequenced first handshake.
        """
        if client_id not in self._open:
            self._open[client_id] = None
            self.statistics["opened"] += 1
        self._evicted.discard(client_id)

    def close(self, client_id: int) -> None:
        """Close the session, rolling back any transaction it left open."""
        if client_id not in self._open:
            raise SessionError(f"no open session for client {client_id}")
        self.statistics["closed"] += 1
        self._teardown(client_id)

    def evict(self, client_id: int) -> bool:
        """Server-side close of a session whose client went away.

        This is the fix for the lock-leak: a client that stops sending
        frames (network death, process kill) used to leave its 2PL locks
        held forever, starving every parked waiter behind them.  Eviction
        runs the same teardown as :meth:`close` — roll back the open
        transaction, which releases its locks and wakes FIFO waiters —
        but is idempotent (returns False for unknown sessions) because
        the server calls it for *every* client at crash time.
        """
        if client_id not in self._open:
            return False
        self._evicted.add(client_id)
        self.statistics["evicted"] += 1
        self._teardown(client_id)
        return True

    def _teardown(self, client_id: int) -> None:
        """Forget the session and end its transaction: roll back what it
        left open, or consume a pending force-abort flag — the session is
        going away, nobody is left to observe the DeadlockError."""
        del self._open[client_id]
        self.database.transactions.end(client_id)

    def evict_all(self) -> int:
        """Evict every open session (server crash/restart); returns the
        number evicted.  Uses the same per-session path as :meth:`evict`,
        so restart cannot leak locks any more than a single eviction can."""
        count = 0
        for client_id in list(self._open):
            if self.evict(client_id):
                count += 1
        return count

    def rebind(self, database: Database) -> None:
        """Point the manager at the recovered database after a restart.

        All sessions must have been evicted first (a session refers to
        transaction state inside the old, discarded database)."""
        if self._open:
            raise SessionError(
                f"cannot rebind with {len(self._open)} session(s) "
                f"still open; evict them first"
            )
        self.database = database
        if self.lock_manager is not None:
            database.attach_lock_manager(self.lock_manager)

    def is_open(self, client_id: Optional[int]) -> bool:
        return client_id in self._open

    def was_evicted(self, client_id: int) -> bool:
        """Whether the server tore this client's session down (and the
        client has not re-opened one since)."""
        return client_id in self._evicted

    def require(self, client_id: int) -> None:
        if client_id not in self._open:
            raise SessionError(
                f"client {client_id} has no open session "
                f"(send OPEN_SESSION first)"
            )

    @property
    def open_count(self) -> int:
        return len(self._open)

    # -- transactions --------------------------------------------------------

    def begin(self, client_id: int, read_only: bool = False) -> int:
        self.require(client_id)
        return self.database.begin(client_id, read_only=read_only)

    def commit(self, client_id: int) -> None:
        self.require(client_id)
        self.database.commit(client_id)

    def rollback(self, client_id: int) -> None:
        """Roll back the session's transaction.

        No-op success when no transaction is open: the common caller is a
        retry harness acknowledging a force-aborted (deadlock victim)
        transaction, and a rollback must never fail for already being
        done.
        """
        self.require(client_id)
        self.database.transactions.end(client_id)
