"""Deterministic client simulator: N clients, one server, one clock.

The server is single-threaded, so true parallelism is neither possible
nor needed — what matters for contention is the *interleaving* of
statements from different sessions.  Each simulated client is a Python
generator that performs exactly one wire operation (or one retry of a
parked statement) per resumption and then yields; a seeded scheduler
picks which client to resume next.  All clients share one
:class:`~repro.network.clock.SimulatedClock` through their own
:class:`~repro.network.link.NetworkLink`s, so every round trip, lock
wait and backoff advances the same timeline.

The first half of this module is the **kernel** every simulated
workload is assembled from, and the only code that knows it:
:func:`interleave` (the seeded scheduler, its trace and its hash);
:func:`execute_parked` and :func:`attempt_txn` (the client protocol: a
statement parked on ``LockUnavailable`` is retried on the next
resumption while the transaction stays open — exactly how deadlock
cycles form — a deadlock or timeout victim acknowledges the abort with
a rollback, a crashed server costs the client its session; each
workload's schedule labels and ``counts`` keys come in as
:class:`TxnLabels`); :func:`connect_clients`, :func:`latency_summary`,
:func:`counter_group` and :func:`report_json` (wiring and rendering).
The second half is one workload over it, :class:`ContentionSim`, and the
verdict on its reports, :func:`violations`; the other workload is
:class:`repro.recovery.chaos.CrashChaosSim`.

Determinism: the schedule is a pure function of the seed (a
``random.Random(seed)`` drives both the scheduler and each client's
workload choices through derived per-client seeds), the clock is
simulated, and the report deliberately excludes values that vary from
run to run inside one process (such as globally allocated wire client
ids).  Two runs with the same configuration produce byte-identical
reports — the schedule hash makes that checkable at a glance.

The ``mixed`` scenario mixes the paper's three access patterns:
``expand`` — a recursive subtree expansion (read-only, autocommit) or,
with probability ``conflict_rate``, an *audit* read of the shared
counter table that collides with open write transactions; ``increment``
— a wire transaction updating two counter rows (hot, shared rows with
probability ``conflict_rate``, else client-private rows), the classic
lost-update workload; ``checkout`` — the server-side check-out/check-in
procedure pair on a randomly chosen subtree.

The ``audit_eco`` scenario splits the clients into long-running
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
from typing import (
    Any, Callable, Dict, Generator, Iterator, List, Optional, Sequence, Tuple,
)

from repro.concurrency.locks import LockManager
from repro.concurrency.sessions import SessionManager
from repro.errors import (
    SESSION_LOST_ERRORS,
    CheckOutError,
    ConcurrencyError,
    DeadlockError,
    LockTimeout,
    LockUnavailable,
    ReproError,
)
from repro.model.parameters import TreeParameters
from repro.network.clock import SimulatedClock
from repro.network.link import NetworkLink
from repro.server.client import RemoteConnection
from repro.server.server import DatabaseServer
from repro.sqldb.database import Database

# The PDM layer is imported inside the function that needs it: it
# imports repro.analysis for its IN-list bucket constant
# (PLAN_CACHE_KEY_BUCKETS), and repro.analysis imports this package for
# the shared lock-footprint model — a module-level import here would
# close that cycle.

#: Errors that abort the transaction but keep the session alive.
ABORT_ERRORS = (DeadlockError, LockTimeout)

#: One statement of a simulated transaction: SQL, parameters and the
#: schedule label its completion is recorded under.
Statement = Tuple[str, Sequence[Any], str]


def interleave(
    clients: Sequence[Iterator[str]],
    seed: int,
    max_steps: int,
    between: Optional[Callable[[], Optional[str]]] = None,
) -> Tuple[List[str], str]:
    """Resume *clients* one step at a time in an order drawn from
    ``random.Random(seed)`` until all are exhausted; return the trace and
    its SHA-256.

    Every resumption is recorded as ``"{step}:{client}:{label}"`` with
    the label the client yielded (``done`` for the resumption that found
    it exhausted).  *between* runs before each step and once after the
    last; a label it returns is recorded as ``"{step}:{label}"`` (the
    crash workload restarts its server there).  Exceeding *max_steps*
    means livelock — a bug — and raises :class:`ConcurrencyError`.
    """
    scheduler = random.Random(seed)
    alive = list(range(len(clients)))
    trace: List[str] = []
    steps = 0
    while True:
        note = between() if between is not None else None
        if note is not None:
            trace.append(f"{steps}:{note}")
        if not alive:
            break
        if steps >= max_steps:
            raise ConcurrencyError(
                f"scheduler exceeded {max_steps} steps — livelock"
            )
        index = alive[scheduler.randrange(len(alive))]
        try:
            label = next(clients[index])
        except StopIteration:
            alive.remove(index)
            label = "done"
        trace.append(f"{steps}:{index}:{label}")
        steps += 1
    digest = hashlib.sha256("\n".join(trace).encode("utf-8")).hexdigest()
    return trace, digest


@dataclass(frozen=True)
class TxnLabels:
    """What one workload calls the events of the client protocol: the
    schedule labels it yields and the ``counts`` keys it bumps."""

    begin: str = "begin"
    wait: str = "write-wait"
    abort: str = "restart"
    commit: str = "commit"
    waits: str = "write_retries"
    deadlocks: str = "deadlock_aborts"
    timeouts: str = "timeout_aborts"
    #: Key counting lost sessions; None where the server cannot crash.
    crashes: Optional[str] = None


def execute_parked(
    connection: Any,
    sql: str,
    params: Sequence[Any],
    counts: Dict[str, int],
    labels: TxnLabels,
) -> Generator[str, None, Any]:
    """Execute one statement, parking on ``LockUnavailable``: the request
    stays queued server-side (a transaction keeps its other locks), so
    the client yields ``labels.wait`` and retries on its next resumption.
    Returns the result set; every other error propagates."""
    while True:
        try:
            return connection.execute(sql, params)
        except LockUnavailable:
            counts[labels.waits] += 1
            yield labels.wait


def attempt_txn(
    connection: Any,
    statements: Sequence[Statement],
    counts: Dict[str, int],
    labels: TxnLabels,
    read_only: bool = False,
    on_statement: Optional[Callable[[str, float, Any], None]] = None,
) -> Generator[str, None, Optional[ReproError]]:
    """One attempt at a wire transaction; returns ``None`` once it has
    committed, else the error that ended the attempt.

    A deadlock or timeout abort is acknowledged with a rollback before
    the error is returned (restarting is the caller's decision); a
    crashed server or evicted session, wherever it shows, marks the
    connection's session lost so the next ``begin`` re-opens one.
    *on_statement* sees each completed statement's label, its simulated
    seconds (lock waits included) and its result.
    """
    clock = connection.link.clock
    try:
        try:
            connection.begin(read_only=read_only)
            yield labels.begin
            for sql, params, label in statements:
                start = clock.now
                result = yield from execute_parked(
                    connection, sql, params, counts, labels
                )
                if on_statement is not None:
                    on_statement(label, clock.now - start, result)
                yield label
            connection.commit()
        except ABORT_ERRORS as error:
            victim = isinstance(error, DeadlockError)
            counts[labels.deadlocks if victim else labels.timeouts] += 1
            connection.rollback()  # acknowledges a force-abort too
            yield labels.abort
            return error
    except SESSION_LOST_ERRORS as error:
        connection.mark_session_lost()
        if labels.crashes is not None:
            counts[labels.crashes] += 1
        return error
    yield labels.commit
    return None


def connect_clients(
    server: Any, clock: SimulatedClock, config: Any
) -> List[Any]:
    """One :class:`RemoteConnection` per ``config.clients``, each over its
    own ``config.latency_s`` / ``dtr_kbit_s`` link, all on the one *clock*."""
    return [
        RemoteConnection(
            server,
            NetworkLink(
                latency_s=config.latency_s,
                dtr_kbit_s=config.dtr_kbit_s,
                clock=clock,
            ),
        )
        for __ in range(config.clients)
    ]


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


def latency_summary(values: Sequence[float]) -> Dict[str, Optional[float]]:
    """Count, mean, exact p50/p95/p99 and max of a latency sample."""
    ordered = sorted(values)
    return {
        "count": len(ordered),
        "mean": sum(ordered) / len(ordered) if ordered else None,
        "p50": exact_percentile(ordered, 0.50),
        "p95": exact_percentile(ordered, 0.95),
        "p99": exact_percentile(ordered, 0.99),
        "max": ordered[-1] if ordered else None,
    }


def counter_group(counters: Dict[str, Any], prefix: str) -> Dict[str, Any]:
    """One layer's entries of a ``DatabaseServer.counters()`` snapshot,
    *prefix* stripped (``"locks_"`` gives the lock manager's counters)."""
    return {
        name[len(prefix):]: value
        for name, value in counters.items()
        if name.startswith(prefix)
    }


def report_json(report: Dict[str, Any]) -> str:
    """Canonical (byte-stable) JSON rendering of a report."""
    return json.dumps(report, sort_keys=True, indent=2)


# -- the contention workload -------------------------------------------------

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

#: Increment and ECO transactions use :class:`TxnLabels`' defaults; the
#: auditors' transactions are told apart in the trace and the counters.
_WRITE_TXN = TxnLabels()
_AUTOCOMMIT_READ = TxnLabels(wait="read-wait", waits="read_retries")
_AUDIT_TXN = TxnLabels(
    begin="begin-ro",
    wait="ro-wait",
    abort="ro-restart",
    commit="commit-ro",
    waits="ro_lock_waits",
    deadlocks="ro_aborts",
    timeouts="ro_aborts",
)


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
        self.connections = connect_clients(self.server, self.clock, config)
        self.counts: Dict[str, int] = dict.fromkeys(
            (
                "expands", "audits", "increments", "checkouts", "checkins",
                "checkout_conflicts", "read_retries", "write_retries",
                "txn_restarts", "deadlock_aborts", "timeout_aborts",
                # audit_eco scenario; always present so report shape is stable.
                "ro_txns", "ro_lock_waits", "ro_aborts", "eco_commits",
            ),
            0,
        )
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

    def client(self, index: int) -> Iterator[str]:
        """One client's whole life as a cooperative generator.

        Every ``yield`` marks one completed wire operation (or one retry
        of a parked statement); the yielded label goes into the schedule
        trace.
        """
        rng = random.Random(self.config.seed * 1_000_003 + index)
        connection = self.connections[index]
        connection.open_session()
        yield "open"
        if self.config.scenario == "mixed":
            operation = self._run_mixed
        elif index % 2 == 0:
            operation = self._run_audit_txn
        else:
            operation = self._run_eco
        for __ in range(self.config.ops_per_client):
            start = self.clock.now
            yield from operation(index, rng)
            self.latencies.append(self.clock.now - start)
        connection.close_session()
        yield "close"

    def _run_mixed(self, index: int, rng: random.Random) -> Iterator[str]:
        """One operation drawn from the ``mix`` weights."""
        weights = self.config.mix
        draw = rng.random() * sum(weights)
        if draw < weights[0]:
            return self._run_read(index, rng)
        if draw < weights[0] + weights[1]:
            return self._run_increment(index, rng)
        return self._run_checkout(index, rng)

    def _run_read(self, index: int, rng: random.Random) -> Iterator[str]:
        """Autocommit read: subtree expand, or (with ``conflict_rate``)
        an audit of the counter table that collides with open write
        transactions.  Autocommit statements fail fast on conflict
        (nothing to deadlock with), so the client just retries later."""
        if rng.random() < self.config.conflict_rate:
            sql, params, label, key = _AUDIT_SQL, [], "audit", "audits"
        else:
            sql, params, label, key = (
                _EXPAND_SQL, [self.root_obid], "expand", "expands",
            )
        yield from execute_parked(
            self.connections[index], sql, params, self.counts, _AUTOCOMMIT_READ
        )
        self.counts[key] += 1
        yield label

    def _until_committed(
        self,
        index: int,
        statements: Sequence[Statement],
        labels: TxnLabels,
        **options: Any,
    ) -> Generator[str, None, int]:
        """Restart one transaction (*options* as :func:`attempt_txn`'s)
        from scratch until it commits; returns the number of attempts.
        An attempt ends in a deadlock or timeout abort or not at all:
        this workload's server cannot crash."""
        attempts = 0
        while True:
            attempts += 1
            error = yield from attempt_txn(
                self.connections[index], statements, self.counts, labels,
                **options,
            )
            if error is None:
                return attempts
            if not isinstance(error, ABORT_ERRORS):
                raise error
            self.counts["txn_restarts"] += 1

    def _run_increment(self, index: int, rng: random.Random) -> Iterator[str]:
        """One wire transaction incrementing two counter rows — hot ones
        with ``conflict_rate``, else this client's private rows."""
        if (
            rng.random() < self.config.conflict_rate
            or self.config.private_counters < 2
        ):
            targets = rng.sample(self._hot_ids(), 2)
        else:
            targets = rng.sample(self._private_ids(index), 2)
        yield from self._until_committed(
            index,
            [(_INCREMENT_SQL, [target], "update") for target in targets],
            _WRITE_TXN,
        )
        self.committed_increments += len(targets)
        self.counts["increments"] += 1

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

        def record(label: str, seconds: float, result: Any) -> None:
            if label == "expand":
                self.expand_latencies.append(seconds)
                self.counts["expands"] += 1
            else:
                self.counts["audits"] += 1

        attempts = yield from self._until_committed(
            index,
            [
                (_EXPAND_SQL, [self.root_obid], "expand"),
                (_AUDIT_SQL, [], "audit"),
            ],
            _AUDIT_TXN,
            read_only=self.config.read_only_audits,
            on_statement=record,
        )
        self.counts["ro_txns"] += attempts

    def _run_eco(self, index: int, rng: random.Random) -> Iterator[str]:
        """One ECO write burst: bump two hot counters and touch one
        assembly row, all inside one wire transaction."""
        targets = rng.sample(self._hot_ids(), 2)
        part = rng.choice(self.checkout_roots)
        yield from self._until_committed(
            index,
            [
                (_INCREMENT_SQL, [targets[0]], "update"),
                (_INCREMENT_SQL, [targets[1]], "update"),
                (_ECO_SQL, [f"eco-{index}", part], "eco-update"),
            ],
            _WRITE_TXN,
        )
        self.committed_increments += 2
        self.counts["eco_commits"] += 1

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

    # -- run and report ---------------------------------------------------------

    def run(self) -> dict:
        """Interleave all clients to completion; return the report."""
        self.schedule, self.schedule_hash = interleave(
            [self.client(index) for index in range(self.config.clients)],
            self.config.seed,
            self.MAX_STEPS,
        )
        return self.report()

    def report(self) -> dict:
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
        counters = self.server.counters()
        elapsed = self.clock.now
        return {
            "config": asdict(self.config),
            "schedule": {"steps": len(self.schedule), "hash": self.schedule_hash},
            "totals": dict(self.counts),
            "committed_increments": expected,
            "counter_sum": actual,
            "lost_updates": expected - actual,
            "locks": counter_group(counters, "locks_"),
            "server": {
                "lock_waits": counters["lock_waits"],
                "deadlocks": counters["deadlocks"],
                "txn_aborts": counters["txn_aborts"],
                "sessions_open": counters["sessions_open"],
                "readonly_txns": counters["db_readonly_txns"],
            },
            "mvcc": {
                "read_only_audits": self.config.read_only_audits,
                "snapshot_reads": counters["db_snapshot_reads"],
                "versions_created": counters["db_versions_created"],
                "versions_gc": counters["db_versions_gc"],
                "readonly_txns": counters["db_readonly_txns"],
                "chains": self.database.mvcc.chain_count(),
            },
            "elapsed_s": elapsed,
            "throughput_ops_per_s": ops_done / elapsed if elapsed else 0.0,
            "latency_s": latency_summary(self.latencies),
            # Per-statement latency of the auditors' multi-level expands
            # (empty outside the audit_eco scenario).
            "expand_latency_s": latency_summary(self.expand_latencies),
        }


def violations(report: dict) -> List[str]:
    """The verdict on a :class:`ContentionSim` report: every invariant it
    breaks, one message each (empty when all hold)."""
    totals, versions = report["totals"], report["mvcc"]
    lost, left_open = report["lost_updates"], report["server"]["sessions_open"]
    restarts, chains = totals["txn_restarts"], versions["chains"]
    aborts = (
        totals["deadlock_aborts"]
        + totals["timeout_aborts"]
        + totals["ro_aborts"]
    )
    created, collected = versions["versions_created"], versions["versions_gc"]
    checks = [
        (lost, f"{lost} updates lost"),
        (
            restarts != aborts,
            f"{aborts} transactions aborted but {restarts} restarted",
        ),
        (left_open, f"{left_open} sessions left open"),
        (chains, f"{chains} version chains outlived the last snapshot"),
        (
            created != collected,
            f"{created} versions created but {collected} collected",
        ),
    ]
    return [message for broken, message in checks if broken]


def run_contention(config: ContentionConfig) -> dict:
    """Convenience wrapper: build, run, report."""
    return ContentionSim(config).run()
