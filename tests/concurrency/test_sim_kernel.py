"""The client-simulator kernel, pinned before it is trusted.

``ContentionSim`` and ``CrashChaosSim`` are two workloads over one
kernel (``repro.concurrency.sim``: scheduler, client protocol, wiring),
and every concurrency, snapshot and durability claim in this repo rests
on the schedules that kernel produces.  The golden half of this module
freezes the four schedule hashes ``benchmarks/run_all.py --scale small``
prints and the SHA-256 of the full ``report_json`` of the cells behind
them, so an edit that moves a label, a counter or a step fails tier-1 —
not only CI's ``cmp`` of two smoke reports.  The other half drives the
kernel's pieces directly.

A digest that moves means a schedule or a report changed.  If that is
the intent, regenerate with ``python tests/concurrency/test_sim_kernel.py``
and say so in CHANGES.md; otherwise the change has a bug.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
from typing import Dict, Tuple

import pytest

from repro.concurrency import (
    ContentionConfig,
    ContentionSim,
    LockManager,
    SessionManager,
    TxnLabels,
    attempt_txn,
    execute_parked,
    interleave,
    report_json,
)
from repro.errors import (
    ConcurrencyError,
    DeadlockError,
    LockUnavailable,
    ServerUnavailable,
)
from repro.network import LAN
from repro.network.clock import SimulatedClock
from repro.recovery import CrashChaosSim, CrashConfig, run_crash_sweep
from repro.server import DatabaseServer, RemoteConnection
from repro.sqldb import Database

SEED = 42

#: The cells run_all.py gates, by the names it prints their hashes under.
CELLS = {
    "contention": lambda: ContentionSim(
        ContentionConfig(clients=4, ops_per_client=8, conflict_rate=0.7, seed=SEED)
    ),
    "bench_mvcc.2pl": lambda: ContentionSim(_audit_eco(read_only_audits=False)),
    "bench_mvcc.mvcc": lambda: ContentionSim(_audit_eco(read_only_audits=True)),
    "crash": lambda: CrashChaosSim(
        CrashConfig(crash_at_append=7, failure="torn", seed=SEED)
    ),
}

#: cell -> (schedule hash, SHA-256 of report_json).
GOLDEN: Dict[str, Tuple[str, str]] = {
    "contention": (
        "e760ef7dac305190be55a0e4d23ae464c8e448dc4f8b7e8d9b0de650cb706604",
        "85f802da7683a30d4a58a4f1511b5421109504da85e1893ce2da5096d279246d",
    ),
    "bench_mvcc.2pl": (
        "a0c831385e5ef35cefa94d295593f2924ed32e0fc5b1284a8ec2be74cfa6eac2",
        "0770d38c675871b92b08d4b51d694484955e2742c9f3b3eef86eb45fd208c725",
    ),
    "bench_mvcc.mvcc": (
        "a5cf8dfd6590654d6eecc9f6b3b20cb5c3a0ec0112b46da54ac79a86176b3db8",
        "ed9de3353d2f486a7e75d957d61314e3d7f049905e37632fb230a125c7ce3a97",
    ),
    "crash": (
        "8e8313572c2e1e5f9840b2f22a4b28116a447139aa0608656fcc25daab583cb4",
        "5413bff89b1ab844dd5e48218b94600b4723db1092e7713af0f11f701a7abbd6",
    ),
}


def _audit_eco(read_only_audits: bool) -> ContentionConfig:
    return ContentionConfig(
        clients=6,
        ops_per_client=6,
        conflict_rate=0.5,
        seed=SEED,
        scenario="audit_eco",
        read_only_audits=read_only_audits,
    )


def compute(cell: str) -> Tuple[str, str]:
    report = CELLS[cell]().run()
    digest = hashlib.sha256(report_json(report).encode("utf-8")).hexdigest()
    return report["schedule"]["hash"], digest


class TestGolden:
    @pytest.mark.parametrize("cell", sorted(GOLDEN))
    def test_schedule_and_report_are_pinned(self, cell):
        assert compute(cell) == GOLDEN[cell]

    def test_no_new_knob(self):
        """The merge added names, not options: both workloads are
        configured and constructed exactly as before it."""
        assert [f.name for f in dataclasses.fields(ContentionConfig)] == [
            "clients", "ops_per_client", "conflict_rate", "seed",
            "hot_counters", "private_counters", "mix", "lock_timeout_s",
            "latency_s", "dtr_kbit_s", "tree_depth", "tree_branching",
            "read_only_audits", "scenario",
        ]
        assert [f.name for f in dataclasses.fields(CrashConfig)] == [
            "clients", "txns_per_client", "hot_counters", "crash_at_append",
            "failure", "seed", "lock_timeout_s", "latency_s", "dtr_kbit_s",
        ]
        for sim in (ContentionSim, CrashChaosSim):
            assert list(inspect.signature(sim).parameters) == ["config"]
        assert list(inspect.signature(run_crash_sweep).parameters) == [
            "seed", "max_crash_at", "failures", "clients", "txns_per_client",
        ]


class TestInterleave:
    @staticmethod
    def client(*labels):
        yield from labels

    def test_trace_hash_and_done_steps(self):
        trace, digest = interleave(
            [self.client("a", "b"), self.client("c")], seed=1, max_steps=10
        )
        # Five resumptions: three labels plus one "done" per client.
        assert [entry.split(":")[0] for entry in trace] == list("01234")
        assert sorted(entry.split(":", 1)[1] for entry in trace) == [
            "0:a", "0:b", "0:done", "1:c", "1:done",
        ]
        assert digest == hashlib.sha256("\n".join(trace).encode()).hexdigest()

    def test_same_seed_same_order(self):
        def run(seed):
            clients = [self.client(*"abc"), self.client(*"def")]
            return interleave(clients, seed=seed, max_steps=20)

        assert run(3) == run(3)
        assert len({run(seed)[1] for seed in range(8)}) > 1

    def test_between_runs_before_each_step_and_once_after(self):
        calls = []

        def between():
            calls.append(len(calls))
            return "tick" if len(calls) in (2, 4) else None

        trace, __ = interleave([self.client("a")], 0, 10, between=between)
        # Two steps (a, done) => three calls; the labelled ones are traced
        # under the step they precede, without a client index.
        assert calls == [0, 1, 2]
        assert trace == ["0:0:a", "1:tick", "1:0:done"]

    def test_step_cap_raises_typed_error(self):
        def forever():
            while True:
                yield "spin"

        with pytest.raises(ConcurrencyError, match="livelock"):
            interleave([forever()], seed=0, max_steps=25)


class ScriptedConnection:
    """Just enough of ``RemoteConnection`` for the protocol generators:
    ``execute`` pops the next scripted outcome (raising exceptions)."""

    class _Link:
        class clock:
            now = 0.0

    link = _Link

    def __init__(self, *outcomes):
        self.outcomes = list(outcomes)
        self.calls = []

    def _next(self, call):
        self.calls.append(call)
        outcome = self.outcomes.pop(0) if self.outcomes else "ok"
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def begin(self, read_only=False):
        return self._next("begin-ro" if read_only else "begin")

    def execute(self, sql, params=()):
        return self._next(sql)

    def commit(self):
        return self._next("commit")

    def rollback(self):
        return self._next("rollback")

    def mark_session_lost(self):
        self.calls.append("lost")


def drive(generator):
    """Exhaust a protocol generator: (labels yielded, return value)."""
    labels = []
    while True:
        try:
            labels.append(next(generator))
        except StopIteration as stop:
            return labels, stop.value


class TestClientProtocol:
    LABELS = TxnLabels(crashes="lost_sessions")
    STATEMENTS = [("s1", [], "one"), ("s2", [], "two")]

    def counts(self):
        return dict.fromkeys(
            ("write_retries", "deadlock_aborts", "timeout_aborts", "lost_sessions"),
            0,
        )

    def test_parked_statement_is_retried_until_it_runs(self):
        connection = ScriptedConnection(
            LockUnavailable("busy"), LockUnavailable("busy"), "rows"
        )
        counts = self.counts()
        labels, result = drive(
            execute_parked(connection, "s", [], counts, self.LABELS)
        )
        assert labels == ["write-wait", "write-wait"]
        assert result == "rows"
        assert counts["write_retries"] == 2

    def test_commit_returns_none_and_feeds_the_hook(self):
        seen = []
        connection = ScriptedConnection("txn", "r1", LockUnavailable("x"), "r2")
        labels, error = drive(
            attempt_txn(
                connection,
                self.STATEMENTS,
                self.counts(),
                self.LABELS,
                read_only=True,
                on_statement=lambda *args: seen.append(args),
            )
        )
        assert error is None
        assert labels == ["begin", "one", "write-wait", "two", "commit"]
        assert connection.calls == ["begin-ro", "s1", "s2", "s2", "commit"]
        assert seen == [("one", 0.0, "r1"), ("two", 0.0, "r2")]

    def test_abort_is_acknowledged_with_a_rollback(self):
        victim = DeadlockError("victim")
        connection = ScriptedConnection("txn", "r1", victim)
        counts = self.counts()
        labels, error = drive(
            attempt_txn(connection, self.STATEMENTS, counts, self.LABELS)
        )
        assert error is victim
        assert labels == ["begin", "one", "restart"]
        assert connection.calls[-1] == "rollback"
        assert counts["deadlock_aborts"] == 1

    def test_lost_session_ends_the_attempt_without_a_step(self):
        crashed = ServerUnavailable("down")
        connection = ScriptedConnection(crashed)
        counts = self.counts()
        labels, error = drive(
            attempt_txn(connection, self.STATEMENTS, counts, self.LABELS)
        )
        assert (labels, error) == ([], crashed)
        assert connection.calls == ["begin", "lost"]
        assert counts["lost_sessions"] == 1


class TestSessionGauge:
    """``sessions_open`` is the session manager's own count, read live by
    ``DatabaseServer.counters()`` — no copy on the server or the link to
    go stale when a session dies without a CLOSE_SESSION."""

    def test_crash_cell_leaves_no_session_open_anywhere(self):
        sim = CrashChaosSim(
            CrashConfig(crash_at_append=7, failure="torn", seed=SEED)
        )
        report = sim.run()
        assert report["crash"]["occurred"]
        assert sim.sessions.open_count == 0
        assert sim.server.counters()["sessions_open"] == 0
        assert "sessions_open" not in sim.server.statistics

    def test_mark_session_lost_is_idempotent(self):
        database = Database()
        sessions = SessionManager(database, LockManager(clock=SimulatedClock()))
        server = DatabaseServer(database, sessions=sessions)
        connection = RemoteConnection(server, LAN.create_link())
        connection.open_session()
        assert server.counters()["sessions_open"] == 1
        # Evicted behind the server's back: the assigned copy stayed at 1.
        sessions.evict(connection.client_id)
        assert server.counters()["sessions_open"] == 0
        connection.mark_session_lost()
        connection.mark_session_lost()
        connection.begin()  # re-opens the session first
        assert server.counters()["sessions_open"] == 1
        assert sessions.statistics["opened"] == 2


if __name__ == "__main__":
    print("GOLDEN: Dict[str, Tuple[str, str]] = {")
    for name in GOLDEN:
        schedule_hash, digest = compute(name)
        print(f'    "{name}": (\n        "{schedule_hash}",\n        "{digest}",\n    ),')
    print("}")
