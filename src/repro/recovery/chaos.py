"""Deterministic crash-chaos simulator: contention workload + crash points.

A second workload over the kernel of :mod:`repro.concurrency.sim`
(scheduler, client protocol, wiring, rendering — none repeated here): the
server runs on a :class:`Durability` bundle (WAL on a :class:`SimDisk`)
whose disk is armed with a seeded crash point: on the Nth WAL append it
dies (optionally leaving a torn final record or a bit-flipped corrupt
tail).  The server crashes, evicts every session, and the scheduler's
``between`` hook restarts it through WAL recovery before resuming the
clients, which reconcile and finish their workload.

Every transaction is crash-idempotent via the *applied-token* pattern:
it inserts one unique token row in the same transaction as its two
counter increments.  After a crash the client cannot know whether an
in-flight commit made it to disk, so it queries its token — present
means the transaction is durable (count it committed), absent means it
was discarded at recovery (re-run it).

The audit at the end (verdict: :func:`violations`) checks byte-exactly:

* **zero lost committed updates** — every transaction a client counted
  as committed has its token row in the recovered database;
* **zero resurrected uncommitted writes** — the counter total equals
  exactly ``2 x`` the number of applied tokens, so no discarded
  transaction's increments survived (and none was applied twice).

A final clean restart then replays the full log once more and the state
is compared before/after — recovery of the finished log must be a
fixpoint.  Reports are a pure function of the configuration (wire client
ids are excluded), so two runs with the same seed are byte-identical.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.concurrency.locks import LockManager
from repro.concurrency.sessions import SessionManager
from repro.concurrency.sim import (
    TxnLabels,
    attempt_txn,
    connect_clients,
    counter_group,
    execute_parked,
    interleave,
)
from repro.errors import SESSION_LOST_ERRORS, DurabilityError
from repro.network.clock import SimulatedClock
from repro.recovery.recover import Durability, RecoveryReport
from repro.recovery.simdisk import DiskFaultProfile, SimDisk
from repro.server.client import RemoteConnection
from repro.server.server import DatabaseServer
from repro.sqldb.database import Database

#: Fault flavours a crash point can take.
CRASH_FAILURES: Tuple[str, str, str] = ("clean", "torn", "corrupt")

_INCREMENT_SQL = "UPDATE counters SET value = value + 1 WHERE id = ?"
_TOKEN_SQL = "INSERT INTO applied (token, client) VALUES (?, ?)"
_TOKEN_CHECK_SQL = "SELECT token FROM applied WHERE token = ?"

#: Schedule labels and ``counts`` keys of the token transactions.
_TOKEN_TXN = TxnLabels(
    wait="wait", abort="abort", waits="lock_waits", crashes="crash_observations"
)
_RECONCILE = TxnLabels(wait="reconcile-wait", waits="lock_waits")


@dataclass(frozen=True)
class CrashConfig:
    """Configuration of one crash-chaos run.

    ``crash_at_append`` counts WAL appends *after* setup (schema, seed
    rows and the post-setup checkpoint are never the crash victim);
    ``None`` runs the workload on a perfect disk.  ``failure`` selects
    what the dying append leaves behind: ``clean`` (nothing), ``torn``
    (a prefix of the record) or ``corrupt`` (the record with one flipped
    bit).
    """

    clients: int = 3
    txns_per_client: int = 3
    hot_counters: int = 4
    crash_at_append: Optional[int] = None
    failure: str = "clean"
    seed: int = 0
    lock_timeout_s: float = 300.0
    latency_s: float = 0.05
    dtr_kbit_s: float = 512.0

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ValueError("clients must be >= 1")
        if self.txns_per_client < 1:
            raise ValueError("txns_per_client must be >= 1")
        if self.hot_counters < 2:
            raise ValueError("hot_counters must be >= 2 (txns touch two)")
        if self.failure not in CRASH_FAILURES:
            raise ValueError(f"failure must be one of {CRASH_FAILURES}")
        if self.crash_at_append is not None and self.crash_at_append < 1:
            raise ValueError("crash_at_append must be >= 1")

    def profile(self) -> DiskFaultProfile:
        """The disk fault profile this configuration arms."""
        if self.crash_at_append is None:
            raise ValueError("no crash point configured")
        return DiskFaultProfile(
            name=f"crash@{self.crash_at_append}-{self.failure}",
            crash_at_append=self.crash_at_append,
            torn=self.failure == "torn",
            corrupt=self.failure == "corrupt",
        )


class CrashChaosSim:
    """One deterministic crash-chaos run (see module docstring)."""

    #: Hard cap on scheduler steps; hitting it means livelock, a bug.
    MAX_STEPS = 50_000

    def __init__(self, config: CrashConfig) -> None:
        self.config = config
        self.clock = SimulatedClock()
        self.disk = SimDisk()
        self.durability = Durability(self.disk)
        database = self.durability.open()
        self._setup_schema(database)
        # Checkpoint the seed state so every recovery in this run starts
        # from the snapshot, then arm the crash point: workload appends
        # only from here on.
        self.durability.checkpoint()
        if config.crash_at_append is not None:
            self.disk.arm(config.profile(), seed=config.seed)
        self.locks = LockManager(
            clock=self.clock, timeout_s=config.lock_timeout_s
        )
        self.sessions = SessionManager(database, self.locks)
        self.server = DatabaseServer(
            database, sessions=self.sessions, durability=self.durability
        )
        self.connections: List[RemoteConnection] = connect_clients(
            self.server, self.clock, config
        )
        self.acked: Dict[int, List[int]] = {
            index: [] for index in range(config.clients)
        }
        self.counts: Dict[str, int] = {
            "committed": 0,
            "lock_waits": 0,
            "deadlock_aborts": 0,
            "timeout_aborts": 0,
            "crash_observations": 0,
            "reconciled_committed": 0,
            "reconciled_retried": 0,
        }
        self.restarts = 0
        #: Recovery report of the *crash* restart (the first one) — this
        #: is the scan that sees the torn/corrupt tail, unlike the final
        #: fixpoint recovery which reads an already-truncated log.
        self.crash_recovery: Optional[Dict[str, Any]] = None
        self.schedule: List[str] = []
        self.schedule_hash: Optional[str] = None

    # -- setup ---------------------------------------------------------------

    def _setup_schema(self, database: Database) -> None:
        database.execute(
            "CREATE TABLE counters (id INTEGER PRIMARY KEY, value INTEGER)"
        )
        database.execute(
            "CREATE TABLE applied (token INTEGER PRIMARY KEY, client INTEGER)"
        )
        for counter_id in range(1, self.config.hot_counters + 1):
            database.execute(
                "INSERT INTO counters (id, value) VALUES (?, ?)",
                [counter_id, 0],
            )

    # -- client behaviour ----------------------------------------------------

    def _token(self, index: int, txn: int) -> int:
        return (index + 1) * 1_000_000 + txn

    def client(self, index: int) -> Generator[str, None, None]:
        """One client: open a session, run its transactions, close."""
        config = self.config
        connection = self.connections[index]
        rng = random.Random(config.seed * 1_000_003 + index)
        yield from self._open_session(connection)
        txn = 0
        while txn < config.txns_per_client:
            token = self._token(index, txn)
            first = rng.randrange(1, config.hot_counters + 1)
            second = rng.randrange(1, config.hot_counters + 1)
            while second == first:
                second = rng.randrange(1, config.hot_counters + 1)
            error = yield from attempt_txn(
                connection,
                [
                    (_TOKEN_SQL, [token, index], "token"),
                    (_INCREMENT_SQL, [first], "inc1"),
                    (_INCREMENT_SQL, [second], "inc2"),
                ],
                self.counts,
                _TOKEN_TXN,
            )
            if error is None:
                self.acked[index].append(token)
                self.counts["committed"] += 1
                txn += 1
            elif isinstance(error, SESSION_LOST_ERRORS):
                applied = yield from self._reconcile(connection, token)
                if applied:
                    self.acked[index].append(token)
                    self.counts["reconciled_committed"] += 1
                    txn += 1
                else:
                    self.counts["reconciled_retried"] += 1
            # else a deadlock/timeout victim: retry the same token.
        try:
            connection.close_session()
        except SESSION_LOST_ERRORS:
            connection.mark_session_lost()
        yield "close"

    def _open_session(
        self, connection: RemoteConnection
    ) -> Generator[str, None, None]:
        """Open the session, waiting out crashes until it succeeds."""
        while True:
            try:
                connection.open_session()
            except SESSION_LOST_ERRORS:
                connection.mark_session_lost()
                self.counts["crash_observations"] += 1
                yield "crash-wait"
            else:
                yield "open"
                return

    def _reconcile(
        self, connection: RemoteConnection, token: int
    ) -> Generator[str, None, bool]:
        """After a crash: is this transaction's token durable?

        The autocommit read needs no session; it parks like any reader
        behind another client's open transaction on the token table, and
        a still-crashed server (or a not-yet-cleared eviction) is waited
        out.
        """
        yield "crashed"
        while True:
            try:
                result = yield from execute_parked(
                    connection, _TOKEN_CHECK_SQL, [token], self.counts, _RECONCILE
                )
            except SESSION_LOST_ERRORS:
                connection.mark_session_lost()
                yield _RECONCILE.wait
            else:
                yield "reconcile"
                return len(result.rows) > 0

    # -- run -----------------------------------------------------------------

    def run(self) -> Dict[str, Any]:
        """Drive all clients to completion and return the audited report."""
        self.schedule, self.schedule_hash = interleave(
            [self.client(index) for index in range(self.config.clients)],
            self.config.seed,
            self.MAX_STEPS,
            between=self.restart_if_crashed,
        )
        return self.report()

    def restart_if_crashed(self) -> Optional[str]:
        """The scheduler's ``between`` hook: bring a crashed server back
        through WAL recovery (``restart`` goes into the trace).  Runs once
        more after the last step, for a crash on the very last append."""
        if not self.server.crashed:
            return None
        self.server.restart()
        self.restarts += 1
        last = self.durability.last_report
        if self.crash_recovery is None and last is not None:
            self.crash_recovery = self._scrub_recovery(last)
        return "restart"

    @staticmethod
    def _scrub_recovery(last: RecoveryReport) -> Dict[str, Any]:
        # Wire client ids are allocated from a process-global counter, so
        # the high-water-mark map would differ between two in-process
        # runs of the same configuration; report only its cardinality.
        recovery = last.as_dict()
        recovery.pop("hwm", None)
        recovery["hwm_clients"] = len(last.hwm)
        return recovery

    # -- audit ---------------------------------------------------------------

    def _state(self) -> Tuple[List[int], List[Tuple[int, int]], int]:
        database = self.server.database
        tokens = sorted(
            int(row[0])
            for row in database.execute("SELECT token FROM applied").rows
        )
        counters = sorted(
            (int(row[0]), int(row[1]))
            for row in database.execute(
                "SELECT id, value FROM counters"
            ).rows
        )
        return tokens, counters, sum(value for __, value in counters)

    def report(self) -> Dict[str, Any]:
        tokens, counters, counter_sum = self._state()
        acked = sorted(
            token for tokens_ in self.acked.values() for token in tokens_
        )
        lost_committed = sorted(set(acked) - set(tokens))
        resurrected = counter_sum - 2 * len(tokens)
        # Fixpoint check: one more clean recovery of the finished log
        # must reproduce the exact same state.
        self.server.restart()
        tokens_after, counters_after, __ = self._state()
        fixpoint = tokens_after == tokens and counters_after == counters
        last = self.durability.last_report
        recovery = {} if last is None else self._scrub_recovery(last)
        snapshot = self.server.counters()
        return {
            "config": asdict(self.config),
            "schedule": {"steps": len(self.schedule), "hash": self.schedule_hash},
            "counts": dict(self.counts),
            "restarts": self.restarts,
            "acked_txns": len(acked),
            "applied_txns": len(tokens),
            "counter_sum": counter_sum,
            "lost_committed": lost_committed,
            "resurrected": resurrected,
            "final_recovery_fixpoint": fixpoint,
            "crash": {
                "configured_at_append": self.config.crash_at_append,
                "failure": self.config.failure,
                "occurred": self.restarts > 0,
            },
            "disk": {
                "total_appends": self.disk.total_appends,
                "size_bytes": self.disk.size,
            },
            "crash_recovery": self.crash_recovery or {},
            "final_recovery": recovery,
            "wal": counter_group(snapshot, "wal_"),
            "server": {
                key: snapshot[key]
                for key in (
                    "crashes", "recoveries", "replayed_records",
                    "hwm_suppressed", "unavailable_refusals",
                )
            },
            # Named, not grouped: ``sessions_open`` is the live gauge.
            "sessions": {
                key: snapshot[f"sessions_{key}"]
                for key in ("opened", "closed", "evicted")
            },
            "locks": counter_group(snapshot, "locks_"),
        }


def violations(report: Dict[str, Any]) -> List[str]:
    """The verdict on a :class:`CrashChaosSim` report: every invariant it
    breaks, one message each (empty when all hold)."""
    lost, resurrected = report["lost_committed"], report["resurrected"]
    crash_at = report["crash"]["configured_at_append"]
    checks = [
        (lost, f"lost committed transactions {lost}"),
        (resurrected, f"{resurrected} resurrected uncommitted increments"),
        (
            not report["final_recovery_fixpoint"],
            "final recovery is not a fixpoint",
        ),
        (
            crash_at is not None and not report["crash"]["occurred"],
            f"crash point {crash_at} never fired",
        ),
    ]
    return [message for broken, message in checks if broken]


def run_crash_chaos(config: CrashConfig) -> Dict[str, Any]:
    """Run one configuration and return its report."""
    return CrashChaosSim(config).run()


def sweep_profiles(
    max_crash_at: int = 17,
    failures: Tuple[str, ...] = CRASH_FAILURES,
) -> List[Tuple[int, str]]:
    """The (crash_at, failure) grid of a sweep: every append position in
    ``1..max_crash_at`` under every failure flavour."""
    return [
        (crash_at, failure)
        for crash_at in range(1, max_crash_at + 1)
        for failure in failures
    ]


def run_crash_sweep(
    seed: int = 0,
    max_crash_at: int = 17,
    failures: Tuple[str, ...] = CRASH_FAILURES,
    clients: int = 3,
    txns_per_client: int = 3,
) -> Dict[str, Any]:
    """Sweep the crash-point grid and audit every run.

    Raises :class:`DurabilityError` on the first violated invariant;
    otherwise returns a summary with one compact line per run.
    """
    runs: List[Dict[str, Any]] = []
    for crash_at, failure in sweep_profiles(max_crash_at, failures):
        config = CrashConfig(
            clients=clients,
            txns_per_client=txns_per_client,
            crash_at_append=crash_at,
            failure=failure,
            seed=seed,
        )
        report = run_crash_chaos(config)
        broken = violations(report)
        if broken:
            raise DurabilityError(
                f"{'; '.join(broken)} at crash point {crash_at} ({failure})"
            )
        runs.append(
            {
                "crash_at": crash_at,
                "failure": failure,
                "restarts": report["restarts"],
                "acked": report["acked_txns"],
                "applied": report["applied_txns"],
                "counter_sum": report["counter_sum"],
                "tail_status": report["crash_recovery"].get("tail_status"),
                "discarded": report["crash_recovery"].get("txns_discarded"),
                "schedule_hash": report["schedule"]["hash"],
            }
        )
    return {
        "seed": seed,
        "profiles": len(runs),
        "clients": clients,
        "txns_per_client": txns_per_client,
        "all_invariants_held": True,
        "runs": runs,
    }
