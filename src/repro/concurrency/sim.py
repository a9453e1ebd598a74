"""Deterministic contention simulator: N clients, one server, one clock.

The server is single-threaded, so true parallelism is neither possible
nor needed — what matters for contention is the *interleaving* of
statements from different sessions.  Each simulated client is a Python
generator that performs exactly one wire operation (or one retry of a
parked statement) per resumption and then yields; a seeded scheduler
picks which client to resume next.  All clients share one
:class:`~repro.network.clock.SimulatedClock` through their own
:class:`~repro.network.link.NetworkLink`s, so every round trip, lock
wait and backoff advances the same timeline.

Determinism: the schedule is a pure function of the seed (a
``random.Random(seed)`` drives both the scheduler and each client's
workload choices through derived per-client seeds), the clock is
simulated, and the report deliberately excludes values that vary from
run to run inside one process (such as globally allocated wire client
ids).  Two runs with the same configuration produce byte-identical
reports — the schedule hash makes that checkable at a glance.

The workload mixes the paper's three access patterns:

* ``expand`` — a recursive subtree expansion (read-only, autocommit),
  or, with probability ``conflict_rate``, an *audit* read of the shared
  counter table that collides with open write transactions;
* ``increment`` — a wire transaction updating two counter rows (hot,
  shared rows with probability ``conflict_rate``, else client-private
  rows), the classic lost-update workload;
* ``checkout`` — the server-side check-out/check-in procedure pair on a
  randomly chosen subtree.

Clients wait *patiently* on lock conflicts: a parked statement is
retried on the next resumption while the transaction stays open, which
is exactly how deadlock cycles form; deadlock victims acknowledge the
abort with a rollback and restart their transaction from scratch.

A second scenario, ``audit_eco``, splits the clients into long-running
auditors (multi-level expand + counter audit inside one transaction)
racing ECO write bursts (hot-counter increments plus an assembly-row
update per transaction).  ``read_only_audits`` says how the auditors
open that transaction: with a plain ``BEGIN`` they acquire S locks and
fight the writers; with ``BEGIN TRANSACTION READ ONLY`` they read a
snapshot and never wait — the same seed, the same engine, directly
comparable reports.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import asdict, dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.concurrency.locks import LockManager
from repro.concurrency.sessions import SessionManager
from repro.errors import (
    CheckOutError,
    ConcurrencyError,
    DeadlockError,
    LockTimeout,
    LockUnavailable,
)
from repro.model.parameters import TreeParameters
from repro.network.clock import SimulatedClock
from repro.network.link import NetworkLink
from repro.sqldb.database import Database

# The server and PDM layers are imported inside ContentionSim.__init__:
# they (transitively) import repro.analysis, which imports this package
# for the shared lock-footprint model — a module-level import here would
# close that cycle.

#: Recursive subtree expansion (the paper's expand-all action).
_EXPAND_SQL = """
WITH RECURSIVE subtree (obid) AS
(SELECT assy.obid FROM assy WHERE assy.obid = ?
 UNION
 SELECT link.right FROM subtree JOIN link ON subtree.obid = link.left)
SELECT obid FROM subtree
"""

#: Whole-table read colliding with open increment transactions.
_AUDIT_SQL = "SELECT SUM(value) FROM counters"

_INCREMENT_SQL = "UPDATE counters SET value = value + 1 WHERE id = ?"

#: ECO write burst touches product structure too, so it collides with
#: the auditors' subtree expands, not just with the counter audit.
_ECO_SQL = "UPDATE assy SET name = ? WHERE obid = ?"


def workload_scripts() -> List[Tuple[str, str, bool]]:
    """The contention workload as (name, script text, sequenced) triples.

    These are the *static* twins of the operations :class:`ContentionSim`
    clients perform: the analyzer's C001 predictions over this corpus are
    cross-validated against the deadlocks seeded sim runs actually
    produce (every observed cycle must be predicted).  ``sequenced`` is
    True throughout because sim clients open sessions, so every statement
    travels in a SEQUENCED frame — the at-most-once retry envelope that
    makes the non-idempotent increment safe to retry (C002 stays quiet).

    Check-out is deliberately absent: it maps onto all-or-nothing
    persistent locks that never wait, so it cannot join a deadlock cycle.
    """
    increment = "BEGIN;\n{u};\n{u};\nCOMMIT".format(u=_INCREMENT_SQL)
    return [
        ("expand", _EXPAND_SQL.strip(), True),
        ("audit", _AUDIT_SQL, True),
        ("increment", increment, True),
    ]


@dataclass(frozen=True)
class ContentionConfig:
    """One contention experiment: N clients over a shared server."""

    clients: int = 4
    ops_per_client: int = 8
    #: Probability that an operation targets shared (hot) data.
    conflict_rate: float = 0.5
    seed: int = 0
    #: Shared counter rows fought over by conflicting increments.
    hot_counters: int = 2
    #: Private counter rows per client (conflict-free increments).
    private_counters: int = 2
    #: Operation mix weights: (expand/audit, increment, checkout).
    mix: Tuple[float, float, float] = (0.3, 0.5, 0.2)
    #: Lock-wait timeout on the simulated clock (the deadlock backstop).
    lock_timeout_s: float = 300.0
    latency_s: float = 0.05
    dtr_kbit_s: float = 512.0
    #: Product tree for expand/check-out targets.
    tree_depth: int = 3
    tree_branching: int = 3
    #: How ``audit_eco`` auditors open their transaction: True sends
    #: ``BEGIN TRANSACTION READ ONLY`` (snapshot reads, no locks), False a
    #: plain ``BEGIN`` (S locks held to commit — the 2PL comparison).
    read_only_audits: bool = False
    #: ``mixed`` is the classic three-way workload; ``audit_eco`` races
    #: auditors against ECO write bursts.
    scenario: str = "mixed"

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ConcurrencyError("need at least one client")
        if self.scenario not in ("mixed", "audit_eco"):
            raise ConcurrencyError(
                f"unknown scenario {self.scenario!r} "
                f"(expected 'mixed' or 'audit_eco')"
            )
        if self.hot_counters < 2:
            raise ConcurrencyError(
                "need at least two hot counters to form deadlock cycles"
            )
        if not 0.0 <= self.conflict_rate <= 1.0:
            raise ConcurrencyError("conflict_rate must be within [0, 1]")
        if sum(self.mix) <= 0 or any(w < 0 for w in self.mix):
            raise ConcurrencyError("mix weights must be non-negative, sum > 0")


def exact_percentile(sorted_values: List[float], q: float) -> Optional[float]:
    """Exact linear-interpolation percentile of pre-sorted data."""
    if not sorted_values:
        return None
    position = q * (len(sorted_values) - 1)
    lower = math.floor(position)
    upper = math.ceil(position)
    if lower == upper:
        return sorted_values[lower]
    fraction = position - lower
    return (
        sorted_values[lower] * (1.0 - fraction)
        + sorted_values[upper] * fraction
    )


class ContentionSim:
    """Build, run and report one seeded contention experiment."""

    #: Scheduler-step ceiling — generous (a client op is a handful of
    #: steps even with retries); hitting it means livelock, a bug.
    MAX_STEPS = 200_000

    def __init__(self, config: ContentionConfig) -> None:
        # Function-scoped: see the note next to the module imports.
        from repro.pdm.generator import generate_product
        from repro.pdm.schema import (
            create_pdm_schema,
            install_checkout_procedures,
            load_product,
        )
        from repro.server.client import RemoteConnection
        from repro.server.server import DatabaseServer

        self.config = config
        self.clock = SimulatedClock()
        self.database = Database()
        create_pdm_schema(self.database)
        product = generate_product(
            TreeParameters(
                depth=config.tree_depth,
                branching=config.tree_branching,
                visibility=1.0,
            ),
            seed=config.seed,
        )
        load_product(self.database, product)
        self.root_obid = product.root_obid
        #: Check-out targets: the product root plus its direct children
        #: (distinct children are disjoint subtrees, so conflicts arise
        #: only when two clients pick the same target or the root).
        self.checkout_roots = [product.root_obid] + sorted(
            link.right
            for link in product.links
            if link.left == product.root_obid
        )
        self.locks = LockManager(
            clock=self.clock, timeout_s=config.lock_timeout_s
        )
        self.sessions = SessionManager(self.database, self.locks)
        self.server = DatabaseServer(self.database, sessions=self.sessions)
        install_checkout_procedures(self.server)
        self._create_counters()
        self.connections: List[Any] = []
        for __ in range(config.clients):
            link = NetworkLink(
                latency_s=config.latency_s,
                dtr_kbit_s=config.dtr_kbit_s,
                clock=self.clock,
            )
            self.connections.append(RemoteConnection(self.server, link))
        self.counts: Dict[str, int] = {
            "expands": 0,
            "audits": 0,
            "increments": 0,
            "checkouts": 0,
            "checkins": 0,
            "checkout_conflicts": 0,
            "read_retries": 0,
            "write_retries": 0,
            "txn_restarts": 0,
            "deadlock_aborts": 0,
            "timeout_aborts": 0,
            # audit_eco scenario; always present so report shape is stable.
            "ro_txns": 0,
            "ro_lock_waits": 0,
            "ro_aborts": 0,
            "eco_commits": 0,
        }
        self.committed_increments = 0
        self.latencies: List[float] = []
        #: Latency of each successful multi-level expand statement inside
        #: an audit transaction (includes its lock waits).
        self.expand_latencies: List[float] = []
        self.schedule: List[str] = []
        self.schedule_hash: Optional[str] = None

    # -- setup ----------------------------------------------------------------

    def _create_counters(self) -> None:
        self.database.execute(
            "CREATE TABLE counters (id INTEGER PRIMARY KEY, value INTEGER)"
        )
        for counter_id in self._hot_ids():
            self.database.execute(
                "INSERT INTO counters VALUES (?, 0)", [counter_id]
            )
        for client in range(self.config.clients):
            for counter_id in self._private_ids(client):
                self.database.execute(
                    "INSERT INTO counters VALUES (?, 0)", [counter_id]
                )

    def _hot_ids(self) -> List[int]:
        return list(range(1, self.config.hot_counters + 1))

    def _private_ids(self, client: int) -> List[int]:
        base = 1000 + client * 100
        return list(range(base, base + self.config.private_counters))

    # -- client workload ------------------------------------------------------

    def _pick_op(self, rng: random.Random) -> str:
        weights = self.config.mix
        total = sum(weights)
        draw = rng.random() * total
        if draw < weights[0]:
            return "expand"
        if draw < weights[0] + weights[1]:
            return "increment"
        return "checkout"

    def _client(self, index: int) -> Iterator[str]:
        """One client's whole life as a cooperative generator.

        Every ``yield`` marks one completed wire operation (or one retry
        of a parked statement); the yielded label goes into the schedule
        trace.
        """
        rng = random.Random(self.config.seed * 1_000_003 + index)
        connection = self.connections[index]
        connection.open_session()
        yield "open"
        auditor = self.config.scenario == "audit_eco" and index % 2 == 0
        for __ in range(self.config.ops_per_client):
            start = self.clock.now
            if self.config.scenario == "audit_eco":
                runner = (
                    self._run_audit_txn if auditor else self._run_eco
                )
                for label in runner(index, rng):
                    yield label
                self.latencies.append(self.clock.now - start)
                continue
            op = self._pick_op(rng)
            if op == "expand":
                for label in self._run_read(index, rng):
                    yield label
            elif op == "increment":
                for label in self._run_increment(index, rng):
                    yield label
            else:
                for label in self._run_checkout(index, rng):
                    yield label
            self.latencies.append(self.clock.now - start)
        connection.close_session()
        yield "close"

    def _run_read(self, index: int, rng: random.Random) -> Iterator[str]:
        """Autocommit read: subtree expand, or (with ``conflict_rate``)
        an audit of the counter table that collides with open write
        transactions.  Autocommit statements fail fast on conflict
        (nothing to deadlock with), so the client just retries later."""
        audit = rng.random() < self.config.conflict_rate
        connection = self.connections[index]
        while True:
            try:
                if audit:
                    connection.execute(_AUDIT_SQL)
                    self.counts["audits"] += 1
                    yield "audit"
                else:
                    connection.execute(_EXPAND_SQL, [self.root_obid])
                    self.counts["expands"] += 1
                    yield "expand"
                return
            except LockUnavailable:
                self.counts["read_retries"] += 1
                yield "read-wait"

    def _run_increment(self, index: int, rng: random.Random) -> Iterator[str]:
        """One wire transaction incrementing two counter rows.

        Parked statements are retried patiently (the transaction stays
        open — this is what lets deadlock cycles form); a deadlock or
        timeout abort is acknowledged with a rollback and the whole
        transaction restarted.
        """
        connection = self.connections[index]
        if (
            rng.random() < self.config.conflict_rate
            or self.config.private_counters < 2
        ):
            targets = rng.sample(self._hot_ids(), 2)
        else:
            targets = rng.sample(self._private_ids(index), 2)
        while True:
            connection.begin()
            yield "begin"
            aborted = False
            for counter_id in targets:
                while True:
                    try:
                        connection.execute(_INCREMENT_SQL, [counter_id])
                        yield "update"
                        break
                    except LockUnavailable:
                        self.counts["write_retries"] += 1
                        yield "write-wait"
                    except DeadlockError:
                        self.counts["deadlock_aborts"] += 1
                        aborted = True
                        break
                    except LockTimeout:
                        self.counts["timeout_aborts"] += 1
                        aborted = True
                        break
                if aborted:
                    break
            if aborted:
                connection.rollback()  # acknowledges a force-abort too
                self.counts["txn_restarts"] += 1
                yield "restart"
                continue
            connection.commit()
            self.committed_increments += len(targets)
            self.counts["increments"] += 1
            yield "commit"
            return

    def _run_audit_txn(self, index: int, rng: random.Random) -> Iterator[str]:
        """One long audit: a multi-level subtree expand and a whole-table
        counter audit inside a single transaction.

        Opened with a plain ``BEGIN`` the selects take S locks held to
        commit, so the auditor parks behind (and deadlocks with) ECO
        writers; opened READ ONLY the same statements read a snapshot and
        never wait.  The expand statement's latency — queueing included —
        is recorded separately so the two settings can be compared per
        statement.
        """
        connection = self.connections[index]
        while True:
            connection.begin(read_only=self.config.read_only_audits)
            self.counts["ro_txns"] += 1
            yield "begin-ro"
            aborted = False
            for sql, params, label in (
                (_EXPAND_SQL, [self.root_obid], "expand"),
                (_AUDIT_SQL, [], "audit"),
            ):
                start = self.clock.now
                while True:
                    try:
                        connection.execute(sql, params)
                        if label == "expand":
                            self.expand_latencies.append(
                                self.clock.now - start
                            )
                            self.counts["expands"] += 1
                        else:
                            self.counts["audits"] += 1
                        yield label
                        break
                    except LockUnavailable:
                        self.counts["ro_lock_waits"] += 1
                        yield "ro-wait"
                    except (DeadlockError, LockTimeout):
                        self.counts["ro_aborts"] += 1
                        aborted = True
                        break
                if aborted:
                    break
            if aborted:
                connection.rollback()  # acknowledges the force-abort
                self.counts["txn_restarts"] += 1
                yield "ro-restart"
                continue
            connection.commit()
            yield "commit-ro"
            return

    def _run_eco(self, index: int, rng: random.Random) -> Iterator[str]:
        """One ECO write burst: bump two hot counters and touch one
        assembly row, all inside one wire transaction.  Same patient
        retry / deadlock-restart protocol as :meth:`_run_increment`."""
        connection = self.connections[index]
        targets = rng.sample(self._hot_ids(), 2)
        part = rng.choice(self.checkout_roots)
        statements: List[Tuple[str, List[Any], str]] = [
            (_INCREMENT_SQL, [targets[0]], "update"),
            (_INCREMENT_SQL, [targets[1]], "update"),
            (_ECO_SQL, [f"eco-{index}", part], "eco-update"),
        ]
        while True:
            connection.begin()
            yield "begin"
            aborted = False
            for sql, params, label in statements:
                while True:
                    try:
                        connection.execute(sql, params)
                        yield label
                        break
                    except LockUnavailable:
                        self.counts["write_retries"] += 1
                        yield "write-wait"
                    except DeadlockError:
                        self.counts["deadlock_aborts"] += 1
                        aborted = True
                        break
                    except LockTimeout:
                        self.counts["timeout_aborts"] += 1
                        aborted = True
                        break
                if aborted:
                    break
            if aborted:
                connection.rollback()
                self.counts["txn_restarts"] += 1
                yield "restart"
                continue
            connection.commit()
            self.committed_increments += 2
            self.counts["eco_commits"] += 1
            yield "commit"
            return

    def _run_checkout(self, index: int, rng: random.Random) -> Iterator[str]:
        """Check out a subtree, then check it back in (two procedure
        calls with a scheduling point between them, so overlapping
        check-outs by other clients can collide)."""
        connection = self.connections[index]
        root = rng.choice(self.checkout_roots)
        user = f"user{index}"
        try:
            connection.call_procedure("check_out_tree", [root, user])
        except CheckOutError:
            self.counts["checkout_conflicts"] += 1
            yield "checkout-conflict"
            return
        self.counts["checkouts"] += 1
        yield "checkout"
        connection.call_procedure("check_in_tree", [root, user])
        self.counts["checkins"] += 1
        yield "checkin"

    # -- scheduler ------------------------------------------------------------

    def run(self) -> dict:
        """Interleave all clients to completion; return the report."""
        scheduler = random.Random(self.config.seed)
        generators: Dict[int, Iterator[str]] = {}
        for index in range(self.config.clients):
            generators[index] = self._client(index)
        alive = sorted(generators)
        steps = 0
        while alive:
            if steps >= self.MAX_STEPS:
                raise ConcurrencyError(
                    f"scheduler exceeded {self.MAX_STEPS} steps — livelock"
                )
            index = alive[scheduler.randrange(len(alive))]
            try:
                label = next(generators[index])
            except StopIteration:
                alive.remove(index)
                label = "done"
            self.schedule.append(f"{steps}:{index}:{label}")
            steps += 1
        self.schedule_hash = hashlib.sha256(
            "\n".join(self.schedule).encode("utf-8")
        ).hexdigest()
        return self._report(steps)

    # -- reporting ------------------------------------------------------------

    def _report(self, steps: int) -> dict:
        actual = int(
            self.database.execute("SELECT SUM(value) FROM counters").scalar()
        )
        expected = self.committed_increments
        ops_done = (
            self.counts["expands"]
            + self.counts["audits"]
            + self.counts["increments"]
            + self.counts["checkouts"]
            + self.counts["checkout_conflicts"]
            + self.counts["eco_commits"]
        )
        latencies = sorted(self.latencies)
        expand_latencies = sorted(self.expand_latencies)
        db_stats = self.database.statistics
        elapsed = self.clock.now
        report = {
            "config": asdict(self.config),
            "schedule": {"steps": steps, "hash": self.schedule_hash},
            "totals": dict(self.counts),
            "committed_increments": expected,
            "counter_sum": actual,
            "lost_updates": expected - actual,
            "locks": dict(self.locks.statistics),
            "server": {
                "lock_waits": self.server.statistics["lock_waits"],
                "deadlocks": self.server.statistics["deadlocks"],
                "txn_aborts": self.server.statistics["txn_aborts"],
                "sessions_open": self.server.statistics["sessions_open"],
                "readonly_txns": self.server.statistics["readonly_txns"],
            },
            "mvcc": {
                "read_only_audits": self.config.read_only_audits,
                "snapshot_reads": db_stats["snapshot_reads"],
                "versions_created": db_stats["versions_created"],
                "versions_gc": db_stats["versions_gc"],
                "readonly_txns": db_stats["readonly_txns"],
                "chains": self.database.mvcc.chain_count(),
            },
            "elapsed_s": elapsed,
            "throughput_ops_per_s": ops_done / elapsed if elapsed else 0.0,
            "latency_s": {
                "count": len(latencies),
                "mean": sum(latencies) / len(latencies) if latencies else None,
                "p50": exact_percentile(latencies, 0.50),
                "p95": exact_percentile(latencies, 0.95),
                "p99": exact_percentile(latencies, 0.99),
                "max": latencies[-1] if latencies else None,
            },
            # Per-statement latency of the auditors' multi-level expands
            # (empty outside the audit_eco scenario).
            "expand_latency_s": {
                "count": len(expand_latencies),
                "mean": (
                    sum(expand_latencies) / len(expand_latencies)
                    if expand_latencies
                    else None
                ),
                "p50": exact_percentile(expand_latencies, 0.50),
                "p95": exact_percentile(expand_latencies, 0.95),
                "p99": exact_percentile(expand_latencies, 0.99),
                "max": expand_latencies[-1] if expand_latencies else None,
            },
        }
        return report


def run_contention(config: ContentionConfig) -> dict:
    """Convenience wrapper: build, run, report."""
    return ContentionSim(config).run()


def report_json(report: dict) -> str:
    """Canonical (byte-stable) JSON rendering of a report."""
    return json.dumps(report, sort_keys=True, indent=2)
