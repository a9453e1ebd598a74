"""Every event has one home: drive it once, see exactly one count move.

The rows of ``EVENTS`` are the event -> home table of DESIGN §7.  Each
drives one event through a full stack — durable server, sessions and
2PL, two clients on faulty links with the retry envelope, a recorder
attached — and diffs *every* always-on count around it:
``DatabaseServer.counters()`` plus the integer fields of the acting
link's ``TrafficStats``.  What moved must be the home, by the expected
amount, and the row's declared carriers (the statement, the frame, the
lock grant that any such action costs — each a different event with its
own row or its own meaning) and nothing else: a second store for the
same event shows up as an unexpected key wherever it is added.
"""

from __future__ import annotations

import dataclasses
import pathlib
import re
from types import SimpleNamespace

import pytest

import repro
import repro.obs
from repro.concurrency import LockManager, SessionManager
from repro.errors import DeadlockError, LockUnavailable
from repro.network.clock import SimulatedClock
from repro.network.faults import FaultProfile, FaultyLink, RetryPolicy
from repro.network.link import NetworkLink
from repro.network.stats import TrafficStats
from repro.obs import TraceRecorder, instrument_stack
from repro.recovery import Durability, SimDisk
from repro.server.client import RemoteConnection
from repro.server.server import DatabaseServer

#: Two dark windows on the simulated clock.  A request sent at 100.0 is
#: lost on the way out; one sent at 200.0 arrives, and its answer (0.1 s
#: of latency later) is lost on the way back.  Either way the client
#: waits out its 2 s timeout, which ends after the window, and re-sends.
OUTAGES = FaultProfile(
    name="two-windows", outages=((100.0, 100.5), (200.05, 200.5))
)

#: Traffic volume, not events: moved by every frame.
VOLUME = {"messages", "packets", "payload_bytes", "requests", "responses"}


def make_stack() -> SimpleNamespace:
    clock = SimulatedClock()
    durability = Durability(SimDisk())
    database = durability.open()
    database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
    database.executemany(
        "INSERT INTO t VALUES (?, ?)", [(n, n % 5) for n in range(1, 11)]
    )
    durability.checkpoint()
    locks = LockManager(clock=clock, timeout_s=300.0)
    sessions = SessionManager(database, locks)
    server = DatabaseServer(database, sessions=sessions, durability=durability)
    connections = [
        RemoteConnection(
            server,
            FaultyLink.wrap(
                NetworkLink(latency_s=0.1, dtr_kbit_s=512, clock=clock),
                OUTAGES,
            ),
            retry_policy=RetryPolicy(),
        )
        for __ in range(2)
    ]
    first, second = connections
    recorder = instrument_stack(
        TraceRecorder(),
        link=first.link,
        connection=first,
        server=server,
        database=database,
    )
    first.open_session()
    return SimpleNamespace(
        clock=clock,
        durability=durability,
        sessions=sessions,
        server=server,
        first=first,
        second=second,
        recorder=recorder,
    )


def snapshot(stack: SimpleNamespace) -> dict:
    counts = dict(stack.server.counters())
    for name, value in vars(stack.first.link.stats).items():
        if isinstance(value, int) and name not in VOLUME:
            counts[f"link.{name}"] = value
    return counts


def moved(stack: SimpleNamespace, drive) -> dict:
    """What *drive* moved.  A drive that needs a stage set first does so
    and returns the step to measure."""
    before = snapshot(stack)
    step = drive(stack)
    if step is not None:
        before = snapshot(stack)
        step(stack)
    after = snapshot(stack)
    return {
        name: after[name] - before.get(name, 0)
        for name in after
        if after[name] != before.get(name, 0)
    }


def at(stack: SimpleNamespace, when: float) -> None:
    stack.clock.advance(when - stack.clock.now)


# -- one drive per event -----------------------------------------------------

POINT = "SELECT v FROM t WHERE id = 1"
SCAN = "SELECT id FROM t WHERE v < 2"
#: One row, like POINT, from a plan with no batch body (EXCEPT).
EXCEPT = "SELECT v FROM t WHERE id = 1 EXCEPT SELECT v FROM t WHERE id = 2"
WRITE = "UPDATE t SET v = v + 1 WHERE id = ?"


def begin_read_only(stack):
    stack.first.begin(read_only=True)


def snapshot_read(stack):
    stack.first.begin(read_only=True)
    return lambda stack: stack.first.execute(POINT)


def columnar_run(stack):
    stack.first.execute(SCAN)


def columnar_fallback(stack):
    stack.first.execute(EXCEPT)


def wal_append(stack):
    stack.first.execute(WRITE, [1])


def checkpoint(stack):
    stack.durability.checkpoint()


def crash(stack):
    stack.server.crash()


def recovery(stack):
    stack.first.execute(WRITE, [1])
    stack.server.crash()
    return lambda stack: stack.server.restart()


def lost_request(stack):
    at(stack, 100.0)
    stack.first.execute(POINT)


def lost_response(stack):
    at(stack, 200.0)
    stack.first.execute(WRITE, [1])


def session_opens(stack):
    stack.second.open_session()


def lock_wait(stack):
    stack.second.begin()
    stack.second.execute(WRITE, [1])
    stack.first.begin()

    def parked(stack):
        with pytest.raises(LockUnavailable):
            stack.first.execute(WRITE, [1])

    return parked


def deadlock(stack):
    stack.first.begin()
    stack.second.begin()
    stack.first.execute(WRITE, [1])
    stack.second.execute(WRITE, [2])
    with pytest.raises(LockUnavailable):
        stack.first.execute(WRITE, [2])

    def closes_the_cycle(stack):
        with pytest.raises(DeadlockError):
            stack.second.execute(WRITE, [1])

    return closes_the_cycle


def rollback(stack):
    stack.first.begin()
    return lambda stack: stack.first.rollback()


#: What one statement on the wire costs besides its own event.
QUERY = {"queries": 1, "sequenced_requests": 1, "db_statements": 1}
#: One lost frame: the link drops it, the client times out and re-sends.
LOST = {"link.drops": 1, "link.timeouts": 1, "link.retries": 1}
#: An autocommit UPDATE logs BEGIN, the row and COMMIT.
LOGGED = {"wal_appends": 3, "wal_commits": 1, "locks_acquisitions": 1}
#: The point SELECT whose request was lost once.
RESENT_SELECT = {
    **QUERY, **LOST, "db_rows_returned": 1, "db_columnar_statements": 1,
    "locks_acquisitions": 1,
}

#: (event, drive, home, amount, carriers)
EVENTS = [
    (
        "BEGIN READ ONLY", begin_read_only, "db_readonly_txns", 1,
        {"sequenced_requests": 1},
    ),
    (
        "snapshot read", snapshot_read, "db_snapshot_reads", 1,
        {**QUERY, "db_rows_returned": 1, "db_columnar_statements": 1},
    ),
    (
        "columnar run", columnar_run, "db_columnar_statements", 1,
        {**QUERY, "db_rows_returned": 4, "locks_acquisitions": 1},
    ),
    (
        "columnar fallback", columnar_fallback, "db_columnar_fallbacks", 1,
        {**QUERY, "db_rows_returned": 1, "locks_acquisitions": 1},
    ),
    ("WAL append", wal_append, "wal_appends", 3, {**QUERY, **LOGGED}),
    ("checkpoint", checkpoint, "wal_checkpoints", 1, {"wal_appends": 1}),
    (
        "crash", crash, "crashes", 1,
        {"sessions_evicted": 1, "sessions_open": -1},
    ),
    ("recovery", recovery, "recoveries", 1, {"replayed_records": 1}),
    ("replayed records", recovery, "replayed_records", 1, {"recoveries": 1}),
    ("retry", lost_request, "link.retries", 1, RESENT_SELECT),
    ("timeout", lost_request, "link.timeouts", 1, RESENT_SELECT),
    (
        # The statement ran once; its re-sent frame was answered from the
        # replay cache.
        "replay-cache hit", lost_response, "duplicates_suppressed", 1,
        {**QUERY, **LOGGED, **LOST, "sequenced_requests": 2},
    ),
    (
        # The gauge, beside the manager's cumulative ``opened``.
        "session opens", session_opens, "sessions_open", 1,
        {"sequenced_requests": 1, "sessions_opened": 1},
    ),
    (
        # Refusal sent (server) and LockUnavailable raised for a parked
        # request (lock manager): two events, two counts.
        "lock wait", lock_wait, "lock_waits", 1,
        {
            **QUERY, "errors": 1, "db_plan_cache_hits": 1,
            "locks_acquisitions": 1, "locks_waits": 1,
        },
    ),
    (
        # Cycle found (lock manager) and victim told (server); the abort
        # is logged and the survivor's parked request granted.
        "deadlock", deadlock, "deadlocks", 1,
        {
            **QUERY, "errors": 1, "db_plan_cache_hits": 1, "txn_aborts": 1,
            "wal_appends": 1, "wal_aborts": 1, "locks_acquisitions": 1,
            "locks_deadlocks": 1, "locks_grants_after_wait": 1,
        },
    ),
    (
        "abort seen by the client", rollback, "txn_aborts", 1,
        {"sequenced_requests": 1},
    ),
]


@pytest.mark.parametrize(
    "event, drive, home, amount, carriers",
    EVENTS,
    ids=[row[0].replace(" ", "-") for row in EVENTS],
)
def test_event_moves_its_home_and_nothing_else(
    event, drive, home, amount, carriers
):
    movement = moved(make_stack(), drive)
    if drive is recovery:
        # A restart replaces the engine and the WAL writer; their counts
        # start over, which is not an event.
        movement = {
            name: delta
            for name, delta in movement.items()
            if not name.startswith(("db_", "wal_"))
        }
    assert movement == {**carriers, home: amount}, event


def test_stats_frame_is_the_snapshot():
    stack = make_stack()
    assert stack.first.server_stats() == stack.server.counters()
    assert {"wal_checkpoints", "locks_waits", "sessions_evicted"} <= set(
        stack.server.counters()
    )


def test_trace_summary_is_the_movement_since_instrument_stack():
    from repro.bench.report import trace_summary

    stack = make_stack()
    lost_request(stack)
    summary = trace_summary(stack.recorder)
    assert "counters" not in summary["metrics"]
    # open_session and the statement: two frames the server saw.
    assert summary["counters"]["sequenced_requests"] == 2
    assert summary["counters"]["db_columnar_statements"] == 1
    assert "db_versions_created" not in summary["counters"]  # did not move
    assert (summary["link"]["retries"], summary["link"]["timeouts"]) == (1, 1)


def test_deleted_stores_stay_deleted():
    stack = make_stack()
    assert len(dataclasses.fields(TrafficStats)) == 18
    assert not hasattr(stack.durability, "statistics")
    assert not {"readonly_txns", "sessions_open"} & set(stack.server.statistics)
    assert not hasattr(repro.obs, "Counter")


def test_no_registry_counter_in_the_source():
    source = pathlib.Path(repro.__file__).parent
    offenders = [
        f"{path.relative_to(source)}:{number}"
        for path in sorted(source.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"\.metrics\.counter\(", line)
    ]
    assert not offenders, offenders
