"""Static analysis of multi-statement transaction scripts.

A PDM action (check-out, release, where-used update) is a *script*: a
semicolon-separated statement sequence, usually wrapped in BEGIN ...
COMMIT, shipped to the server one round trip per statement.  This module
parses such scripts, attaches each statement's static lock footprint
(:mod:`repro.concurrency.footprint` — the same model the runtime
acquires from, not a re-implementation), segments the script into
lock-holding spans, and runs the C-rule family over single scripts and
script *sets*:

* **C001** lock-order inversion between two scripts (or two concurrent
  instances of one script): a statically predicted deadlock risk.
* **C002** non-idempotent DML (``x = x + 1``, keyless INSERT) outside a
  retry envelope.

A statement inside ``BEGIN TRANSACTION READ ONLY`` has the empty
footprint, as at run time: the engine serves it from a snapshot without
taking a lock, so it can neither wait nor be waited for.

Everything here is purely static: scripts are parsed and their
footprints built, but nothing is ever executed and no lock is ever
acquired — analyzing a script leaves every table byte-identical.

Entry points: :func:`analyze_transaction_sql` (one script's text),
:func:`analyze_transaction_workload` (the CLI ``--scripts`` mode and the
ContentionSim cross-validation), :func:`parse_txn_script` for callers
that want the model itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Set, Tuple

from repro.analysis.analyzer import analyze_statement
from repro.analysis.findings import Finding, Severity
from repro.analysis.findings import max_severity as _max_severity
from repro.concurrency.footprint import (
    LockRequest,
    TablesOf,
    statement_footprint,
)
from repro.sqldb import ast_nodes as ast
from repro.sqldb import ast_walk
from repro.sqldb.parser import parse_script
from repro.sqldb.render import render_statement

#: Comment pragma marking a script as running under the SEQUENCED
#: at-most-once envelope: the server's replay cache absorbs retries, so
#: non-idempotent DML (C002) is safe.  Written as ``-- pragma: sequenced``
#: on any line of the script.
SEQUENCED_PRAGMA = "pragma: sequenced"


@dataclass(frozen=True)
class ScriptStatement:
    """One statement of a script, with its static lock footprint."""

    index: int
    statement: Any
    sql: str
    footprint: Tuple[LockRequest, ...]


@dataclass(frozen=True)
class TxnSegment:
    """A maximal span of statements whose locks are held together.

    An *explicit* segment covers BEGIN .. COMMIT/ROLLBACK (or the end of
    the script): under strict 2PL every lock acquired inside it is held
    until the terminator.  An autocommit statement forms its own
    single-statement segment (its locks release at statement end, and
    the server acquires them non-parking — autocommit cannot deadlock).
    """

    explicit: bool
    statements: Tuple[ScriptStatement, ...]


@dataclass(frozen=True)
class TxnScript:
    """A parsed script: statements, lock-holding segments, retry mode."""

    name: str
    statements: Tuple[ScriptStatement, ...]
    segments: Tuple[TxnSegment, ...]
    #: True when the script runs under the SEQUENCED at-most-once
    #: envelope (session client, or the ``-- pragma: sequenced`` marker).
    sequenced: bool


@dataclass(frozen=True)
class DeadlockPrediction:
    """A statically predicted hold-and-wait cycle between two script
    instances (possibly two instances of the same script)."""

    scripts: Tuple[str, str]
    #: Sorted tables the two instances would be waiting on — comparable
    #: against ``LockManager.deadlock_cycles`` entries.
    tables: Tuple[str, ...]


@dataclass
class TxnWorkloadReport:
    """Findings plus the conflict graph over a set of scripts."""

    findings: List[Finding] = field(default_factory=list)
    scripts: List[TxnScript] = field(default_factory=list)
    #: (script a, script b, table): a lock of *a* and a lock of *b* on
    #: *table* are incompatible and may cover a common resource — one
    #: instance may wait for the other there.
    conflict_edges: List[Tuple[str, str, str]] = field(default_factory=list)
    cycles: List[DeadlockPrediction] = field(default_factory=list)

    @property
    def max_severity(self) -> Severity:
        return _max_severity(self.findings)


def script_is_sequenced(text: str) -> bool:
    """Whether *text* carries the ``-- pragma: sequenced`` marker."""
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("--") and SEQUENCED_PRAGMA in stripped.lower():
            return True
    return False


def parse_txn_script(
    name: str,
    text: str,
    database: Optional[Any] = None,
    sequenced: Optional[bool] = None,
) -> TxnScript:
    """Parse *text* into a :class:`TxnScript` with footprints attached.

    With a *database* the footprints see through views (the runtime's
    own table resolution); without one they use the syntactic
    :func:`repro.sqldb.ast_walk.referenced_tables`.  *sequenced* forces
    the retry-envelope flag; when None it is read from the pragma.
    """
    if sequenced is None:
        sequenced = script_is_sequenced(text)
    tables_of: TablesOf = (
        database._referenced_tables
        if database is not None
        else ast_walk.referenced_tables
    )
    statements: List[ScriptStatement] = []
    read_only = False
    for index, parsed in enumerate(parse_script(text)):
        if isinstance(parsed, ast.BeginTransaction):
            read_only = parsed.read_only
        elif isinstance(
            parsed, (ast.CommitTransaction, ast.RollbackTransaction)
        ):
            read_only = False
        statements.append(
            ScriptStatement(
                index=index,
                statement=parsed,
                sql=render_statement(parsed),
                footprint=(
                    () if read_only else statement_footprint(parsed, tables_of)
                ),
            )
        )
    return TxnScript(
        name=name,
        statements=tuple(statements),
        segments=_segment(statements),
        sequenced=sequenced,
    )


def _segment(
    statements: Sequence[ScriptStatement],
) -> Tuple[TxnSegment, ...]:
    segments: List[TxnSegment] = []
    current: Optional[List[ScriptStatement]] = None
    for stmt in statements:
        node = stmt.statement
        if isinstance(node, ast.BeginTransaction):
            if current is not None:
                # BEGIN inside an open transaction: the server rejects
                # it; statically, close the dangling segment.
                segments.append(TxnSegment(True, tuple(current)))
            current = []
        elif isinstance(
            node, (ast.CommitTransaction, ast.RollbackTransaction)
        ):
            if current is not None:
                segments.append(TxnSegment(True, tuple(current)))
                current = None
            # A stray COMMIT outside a transaction is a runtime error
            # with no lock consequences; nothing to record statically.
        elif current is not None:
            current.append(stmt)
        else:
            segments.append(TxnSegment(False, (stmt,)))
    if current is not None:
        segments.append(TxnSegment(True, tuple(current)))
    return tuple(segments)


# -- analysis entry points ---------------------------------------------------


def analyze_transaction_sql(
    script_text: str,
    database: Optional[Any] = None,
    sequenced: Optional[bool] = None,
    name: str = "script",
) -> List[Finding]:
    """Parse and analyze one script's text."""
    script = parse_txn_script(
        name, script_text, database=database, sequenced=sequenced
    )
    return analyze_transaction_script(script, database=database)


def analyze_transaction_script(
    script: TxnScript, database: Optional[Any] = None
) -> List[Finding]:
    """All findings for one script: every statement through the base
    analyzer (node paths prefixed ``stmt[i].``), C002, and the C001
    self-pair (two concurrent instances of this script against each
    other)."""
    from repro.analysis import rules_txn  # local: rules_txn imports us

    findings = _script_findings(script, database)
    findings.extend(
        rules_txn.inversion_findings(rules_txn.predict_deadlocks(script, script))
    )
    return sorted(findings, key=lambda f: (f.node_path, f.rule_id))


def _script_findings(
    script: TxnScript, database: Optional[Any]
) -> List[Finding]:
    from repro.analysis import rules_txn  # local: rules_txn imports us

    findings: List[Finding] = []
    for stmt in script.statements:
        for finding in analyze_statement(stmt.statement):
            findings.append(
                Finding(
                    finding.rule_id,
                    finding.severity,
                    finding.message,
                    f"stmt[{stmt.index}].{finding.node_path}",
                )
            )
    findings.extend(rules_txn.check_idempotence(script, database))
    return findings


def analyze_transaction_workload(
    scripts: Sequence[TxnScript], database: Optional[Any] = None
) -> TxnWorkloadReport:
    """Analyze a script set: per-script findings (prefixed
    ``script[name].``), the pairwise may-conflict graph, and every C001
    lock-order inversion over all unordered script pairs — self-pairs
    included, because two clients running the *same* action concurrently
    is the common PDM case."""
    from repro.analysis import rules_txn  # local: rules_txn imports us

    report = TxnWorkloadReport(scripts=list(scripts))
    for script in scripts:
        for finding in sorted(
            _script_findings(script, database),
            key=lambda f: (f.node_path, f.rule_id),
        ):
            report.findings.append(
                Finding(
                    finding.rule_id,
                    finding.severity,
                    finding.message,
                    f"script[{script.name}].{finding.node_path}",
                )
            )
    edges: Set[Tuple[str, str, str]] = set()
    for position, first in enumerate(scripts):
        for second in scripts[position:]:
            edges.update(rules_txn.conflict_edges(first, second))
            inversions = rules_txn.predict_deadlocks(first, second)
            report.cycles.extend(inv.prediction for inv in inversions)
            report.findings.extend(rules_txn.inversion_findings(inversions))
    report.conflict_edges = sorted(edges)
    return report
