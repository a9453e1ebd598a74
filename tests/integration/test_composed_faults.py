"""Faults where they compose: disk crash x snapshot reader x lossy link.

Every fault in this repo has its own harness — ``CrashChaosSim`` crashes
the disk under token writers, ``ContentionSim``'s ``audit_eco`` runs
snapshot auditors beside writers, the ``FaultyLink`` suites drop frames
under one client.  This module puts all three into *one* seeded schedule
without a third simulator and without a new configuration field: it is
assembled from the simulator kernel's public pieces
(:func:`repro.concurrency.interleave`, :func:`attempt_txn`) and the
crash workload's own (:meth:`CrashChaosSim.client`,
:meth:`CrashChaosSim.restart_if_crashed`, :meth:`CrashChaosSim.report`).

The extra client is an auditor on its own connection over
``FaultyLink(DROP_5)`` with a ``RetryPolicy`` (so its frames travel
SEQUENCED and are retried across drops *and* restarts).  Each audit is
one ``BEGIN TRANSACTION READ ONLY`` reading ``SUM(value) FROM counters``
and ``COUNT(*) FROM applied`` in the same snapshot: whatever the writers,
the crash and the recovery are doing, a snapshot must show exactly two
increments per applied token.
"""

from __future__ import annotations

import pytest

from repro.concurrency import TxnLabels, attempt_txn, interleave
from repro.errors import SESSION_LOST_ERRORS
from repro.network.faults import DROP_5, FaultyLink, RetryPolicy
from repro.network.link import NetworkLink
from repro.recovery import CRASH_FAILURES, CrashChaosSim, CrashConfig, violations
from repro.server import RemoteConnection

CRASH_POINTS = (3, 7, 11)
SEEDS = (0, 1, 2)
AUDITS = 6

_AUDIT = TxnLabels(
    begin="begin-ro",
    wait="ro-wait",
    abort="ro-restart",
    commit="commit-ro",
    waits="ro_waits",
    deadlocks="ro_aborts",
    timeouts="ro_aborts",
    crashes="ro_sessions_lost",
)
_STATEMENTS = [
    ("SELECT SUM(value) FROM counters", [], "sum"),
    ("SELECT COUNT(*) FROM applied", [], "count"),
]


class ComposedRun:
    """The crash workload's writers plus one snapshot auditor behind a
    lossy link, interleaved by the kernel's scheduler."""

    def __init__(self, crash_at: int, failure: str, seed: int) -> None:
        config = CrashConfig(crash_at_append=crash_at, failure=failure, seed=seed)
        self.sim = CrashChaosSim(config)
        self.link = FaultyLink.wrap(
            NetworkLink(
                latency_s=config.latency_s,
                dtr_kbit_s=config.dtr_kbit_s,
                clock=self.sim.clock,
            ),
            DROP_5,
            seed=seed,
        )
        self.connection = RemoteConnection(
            self.sim.server, self.link, retry_policy=RetryPolicy()
        )
        self.counts = dict.fromkeys(
            ("ro_waits", "ro_aborts", "ro_sessions_lost"), 0
        )
        #: (SUM(value), COUNT(*)) of every audit that committed.
        self.audits = []
        sim = self.sim
        clients = [sim.client(index) for index in range(config.clients)]
        sim.schedule, sim.schedule_hash = interleave(
            clients + [self.auditor()],
            seed,
            sim.MAX_STEPS,
            between=sim.restart_if_crashed,
        )
        self.report = sim.report()

    def auditor(self):
        while len(self.audits) < AUDITS:
            seen = {}
            error = yield from attempt_txn(
                self.connection,
                _STATEMENTS,
                self.counts,
                _AUDIT,
                read_only=True,
                on_statement=lambda label, seconds, result: seen.update(
                    {label: result.scalar()}
                ),
            )
            if error is None:
                self.audits.append((seen["sum"], seen["count"]))
            else:
                # Its session died with the server: let the scheduler
                # restart it before the audit is taken again.
                assert isinstance(error, SESSION_LOST_ERRORS), error
                yield "audit-lost"
        try:
            self.connection.close_session()
        except SESSION_LOST_ERRORS:
            self.connection.mark_session_lost()
        yield "close"


@pytest.fixture(scope="module")
def runs():
    return {
        (crash_at, failure, seed): ComposedRun(crash_at, failure, seed)
        for crash_at in CRASH_POINTS
        for failure in CRASH_FAILURES
        for seed in SEEDS
    }


def test_durability_invariants_hold_in_every_cell(runs):
    for cell, run in runs.items():
        assert violations(run.report) == [], cell
        assert run.report["acked_txns"] == 9, cell


def test_every_committed_audit_saw_a_consistent_snapshot(runs):
    for cell, run in runs.items():
        assert len(run.audits) == AUDITS, cell
        for total, tokens in run.audits:
            assert total == 2 * tokens, (cell, run.audits)
        # Snapshot readers take no locks: they never wait and never die.
        assert run.counts["ro_waits"] == run.counts["ro_aborts"] == 0, cell


def test_audits_overlapped_the_writers_and_the_faults(runs):
    """The grid is not vacuous: audits ran while tokens were being
    applied, some auditor lost its session to a crash, and the lossy link
    did drop frames that the retry envelope then re-sent."""
    token_counts = {
        tokens for run in runs.values() for __, tokens in run.audits
    }
    assert len(token_counts) > 2
    assert any(run.counts["ro_sessions_lost"] for run in runs.values())
    assert sum(run.link.stats.drops for run in runs.values()) > 0
    assert sum(run.link.stats.retries for run in runs.values()) > 0


def test_quiescent_at_the_end(runs):
    for cell, run in runs.items():
        sim = run.sim
        assert sim.server.database.mvcc.chain_count() == 0, cell
        for table in ("counters", "applied"):
            assert sim.locks.holders((table, None)) == {}, cell
        assert sim.sessions.open_count == 0, cell
        assert sim.server.counters()["sessions_open"] == 0, cell


def test_same_seed_same_schedule(runs):
    for cell in ((3, "torn", 0), (7, "corrupt", 1), (11, "clean", 2)):
        again = ComposedRun(*cell)
        assert again.sim.schedule_hash == runs[cell].sim.schedule_hash
        assert again.audits == runs[cell].audits
        assert again.link.stats.drops == runs[cell].link.stats.drops
