"""Eviction of dead sessions: the 2PL lock-leak regression tests.

A client that stops sending frames (process kill, network death) used
to leave its session's exclusive locks held forever, starving every
parked waiter behind them.  ``SessionManager.evict`` is the fix: it
rolls the open transaction back through the same path as a client
CLOSE_SESSION, releasing the locks and waking FIFO waiters.  Server
crash/restart reuses the same path for every session at once.
"""

import pytest

from repro.concurrency import LockManager, SessionManager
from repro.errors import LockUnavailable, SessionError
from repro.network.clock import SimulatedClock
from repro.network.link import NetworkLink
from repro.server.client import RemoteConnection
from repro.server.server import DatabaseServer
from repro.sqldb import Database


@pytest.fixture
def stack():
    db = Database()
    db.execute("CREATE TABLE acct (id INTEGER PRIMARY KEY, balance INTEGER)")
    db.execute("INSERT INTO acct VALUES (1, 100), (2, 200)")
    clock = SimulatedClock()
    locks = LockManager(clock=clock)
    sessions = SessionManager(db, locks)
    server = DatabaseServer(db, sessions=sessions)
    connections = [
        RemoteConnection(
            server, NetworkLink(latency_s=0.01, dtr_kbit_s=512, clock=clock)
        )
        for __ in range(2)
    ]
    return db, sessions, connections


class TestEvict:
    def test_parked_waiter_granted_after_eviction(self, stack):
        db, sessions, (dead, waiter) = stack
        # The doomed client takes an exclusive lock ... and goes silent.
        dead.begin()
        dead.execute("UPDATE acct SET balance = 0 WHERE id = 1")
        # The waiter parks behind it.
        waiter.begin()
        with pytest.raises(LockUnavailable):
            waiter.execute("UPDATE acct SET balance = 1 WHERE id = 1")
        # Eviction rolls the dead transaction back and frees its locks:
        # the parked statement now succeeds on retry.
        assert sessions.evict(dead.client_id)
        waiter.execute("UPDATE acct SET balance = 1 WHERE id = 1")
        waiter.commit()
        assert db.execute(
            "SELECT balance FROM acct WHERE id = 1"
        ).scalar() == 1

    def test_eviction_rolls_the_transaction_back(self, stack):
        db, sessions, (dead, __) = stack
        dead.begin()
        dead.execute("UPDATE acct SET balance = 0 WHERE id = 1")
        sessions.evict(dead.client_id)
        assert db.execute(
            "SELECT balance FROM acct WHERE id = 1"
        ).scalar() == 100

    def test_eviction_is_idempotent(self, stack):
        __, sessions, (dead, __c) = stack
        dead.open_session()
        assert sessions.evict(dead.client_id)
        assert not sessions.evict(dead.client_id)
        assert sessions.statistics["evicted"] == 1

    def test_evicted_client_statements_fail_loudly(self, stack):
        __, sessions, (dead, __c) = stack
        dead.begin()
        sessions.evict(dead.client_id)
        # The client still believes it is inside a transaction; routing
        # its statements to the default session would autocommit them.
        with pytest.raises(SessionError):
            dead.execute("UPDATE acct SET balance = 0 WHERE id = 1")

    def test_reopen_clears_the_eviction(self, stack):
        db, sessions, (dead, __c) = stack
        dead.begin()
        sessions.evict(dead.client_id)
        dead.mark_session_lost()
        dead.begin()  # re-opens the session
        dead.execute("UPDATE acct SET balance = 5 WHERE id = 1")
        dead.commit()
        assert db.execute(
            "SELECT balance FROM acct WHERE id = 1"
        ).scalar() == 5

    def test_evict_all_clears_every_session(self, stack):
        __, sessions, (a, b) = stack
        a.begin()
        b.open_session()
        assert sessions.evict_all() == 2
        assert sessions.open_count == 0

    def test_idle_session_eviction_consumes_abort_flag(self, stack):
        """Evicting a deadlock victim that never acknowledged its abort
        must not leave the abort behind for an unrelated future session
        with the same client id."""
        db, sessions, (survivor, victim) = stack
        survivor.begin()
        victim.begin()  # the younger transaction: the deadlock's victim
        victim.execute("UPDATE acct SET balance = 0 WHERE id = 1")
        survivor.execute("UPDATE acct SET balance = 0 WHERE id = 2")
        with pytest.raises(LockUnavailable):
            victim.execute("UPDATE acct SET balance = 1 WHERE id = 2")
        # Closing the cycle aborts the victim and grants the survivor.
        survivor.execute("UPDATE acct SET balance = 1 WHERE id = 1")
        survivor.commit()
        assert sessions.evict(victim.client_id)
        sessions.open(victim.client_id)
        sessions.begin(victim.client_id)  # no DeadlockError
        sessions.rollback(victim.client_id)
        assert db.execute("SELECT balance FROM acct ORDER BY id").rows == [(1,), (0,)]

    def test_rebind_requires_empty_registry(self, stack):
        __, sessions, (a, __c) = stack
        a.open_session()
        with pytest.raises(SessionError):
            sessions.rebind(Database())
