"""Concurrent sessions: 2PL locking, per-client transactions, contention.

The paper's measurements are single-user, but its setting — hundreds of
engineers against one PDM server — is not.  This package supplies the
concurrency substrate: a strict two-phase :class:`LockManager` with
parked FIFO waiters and wait-for-graph deadlock detection, a
:class:`SessionManager` mapping wire clients onto independent database
transactions, and the deterministic client simulator: one kernel
(:func:`interleave`, :func:`attempt_txn`, :func:`execute_parked`) that
interleaves N cooperative clients over one simulated clock, with
:class:`ContentionSim` as its first workload and :func:`violations` as
the verdict on that workload's reports.
"""

from repro.concurrency.footprint import (
    Granularity,
    LockRequest,
    delete_footprint,
    insert_footprint,
    may_conflict,
    may_overlap,
    select_footprint,
    statement_footprint,
    update_footprint,
)
from repro.concurrency.locks import LockManager, LockMode, compatible
from repro.concurrency.sessions import Session, SessionManager
from repro.concurrency.sim import (
    ContentionConfig,
    ContentionSim,
    TxnLabels,
    attempt_txn,
    exact_percentile,
    execute_parked,
    interleave,
    report_json,
    run_contention,
    violations,
    workload_scripts,
)

__all__ = [
    "Granularity",
    "LockManager",
    "LockMode",
    "LockRequest",
    "Session",
    "SessionManager",
    "ContentionConfig",
    "ContentionSim",
    "TxnLabels",
    "attempt_txn",
    "compatible",
    "delete_footprint",
    "insert_footprint",
    "may_conflict",
    "may_overlap",
    "execute_parked",
    "interleave",
    "run_contention",
    "report_json",
    "exact_percentile",
    "select_footprint",
    "statement_footprint",
    "update_footprint",
    "violations",
    "workload_scripts",
]
