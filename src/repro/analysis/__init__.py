"""Static query and transaction-script analyzer for the PDM reproduction.

It keeps only the rules that state a paper argument the engine cannot
decide from one statement:

* **R003** unguarded ``UNION ALL`` recursion (Section 5.6): whether the
  data holds a cycle is not in the query.
* **P001** a tree condition inside the recursive part (Section 5.5
  steps A-B).
* **W001** the navigational point-SELECT (Table 2), escalated when a
  workload repeats it per node.
* **C001** lock-order inversion between transaction scripts, over the
  shared static lock-footprint model of
  :mod:`repro.concurrency.footprint`; **C002** DML a lost-reply retry
  would apply twice outside the SEQUENCED envelope.

What the engine decides, it shows in ``EXPLAIN`` or refuses itself:
recursion without a fixpoint is a planner ``ParseError``, a probe priced
against a scan prints ``keys=N probed|scanned``, and a keyless join edge
prints ``NestedLoopJoin(CROSS)``.

Entry points: :func:`analyze_sql` / :func:`analyze_statement` for one
statement, :func:`analyze_workload` for a statement sequence,
:func:`analyze_transaction_sql` / :func:`analyze_transaction_workload`
for transaction scripts (``database=`` resolves views and primary keys),
and ``python -m repro.analysis`` for the CLI.  It is an offline tool:
no module of :mod:`repro` outside this package imports it.
"""

from repro.analysis.analyzer import analyze_sql, analyze_statement
from repro.analysis.findings import (
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
