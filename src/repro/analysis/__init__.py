"""Static query/plan analyzer for the PDM reproduction.

Three rule families over the :mod:`repro.sqldb` AST (and, when a database
is available, its plans):

* **Recursion safety** (R001-R003): linearity, monotonicity, termination
  of recursive CTEs.
* **Pushdown safety** (P001-P003): Section 5.5 placement of rule
  predicates, sargability, plan-cache-friendly IN-list shapes.
* **WAN anti-patterns** (W001-W003): navigational point-SELECTs,
  index-ignoring full scans, cartesian products.
* **Transaction scripts** (C001-C005): lock-order inversion (static
  deadlock risk), retry idempotence, X-locks held across round trips,
  table-lock escalation, DDL inside transactions — over the shared
  static lock-footprint model of :mod:`repro.concurrency.footprint`.

Entry points: :func:`analyze_sql` / :func:`analyze_statement` for one
statement (pass ``database=`` for the index- and plan-aware rules),
:func:`analyze_workload` for a statement sequence,
:func:`analyze_transaction_sql` / :func:`analyze_transaction_workload`
for transaction scripts, and ``python -m repro.analysis`` (``--scripts``
for script corpora) for the CLI.  It is an offline tool: no engine or
server path runs it.  The one check that must hold at run time — R001 /
R002, recursion without a fixpoint — the planner enforces itself, with
the same predicates (:mod:`repro.sqldb.ast_walk`).

This package imports only :mod:`repro.errors`, :mod:`repro.sqldb`, and
:mod:`repro.concurrency` (the pure lock-footprint model) — the PDM layer
re-exports its bucket constant, so anything higher would cycle.
"""

from repro.analysis.analyzer import analyze_sql, analyze_statement
from repro.analysis.findings import (
    PLAN_CACHE_KEY_BUCKETS,
    RULE_CATALOG,
    Finding,
    RuleInfo,
    Severity,
    is_lint_clean,
    max_severity,
)
from repro.analysis.txn import (
    SEQUENCED_PRAGMA,
    DeadlockPrediction,
    ScriptStatement,
    TxnScript,
    TxnSegment,
    TxnWorkloadReport,
    analyze_transaction_script,
    analyze_transaction_sql,
    analyze_transaction_workload,
    parse_txn_script,
    script_is_sequenced,
)
from repro.analysis.workload import (
    REPEAT_THRESHOLD,
    WorkloadReport,
    analyze_workload,
)

__all__ = [
    "PLAN_CACHE_KEY_BUCKETS",
    "REPEAT_THRESHOLD",
    "RULE_CATALOG",
    "SEQUENCED_PRAGMA",
    "DeadlockPrediction",
    "Finding",
    "RuleInfo",
    "ScriptStatement",
    "Severity",
    "TxnScript",
    "TxnSegment",
    "TxnWorkloadReport",
    "WorkloadReport",
    "analyze_sql",
    "analyze_statement",
    "analyze_transaction_script",
    "analyze_transaction_sql",
    "analyze_transaction_workload",
    "analyze_workload",
    "is_lint_clean",
    "max_severity",
    "parse_txn_script",
    "script_is_sequenced",
]
