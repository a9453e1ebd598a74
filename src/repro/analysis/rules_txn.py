"""C-rules: transaction-script checks over static lock footprints.

The rules reason about :class:`repro.concurrency.footprint.LockRequest`
tuples — the same acquisition model the runtime executes — so a
predicted conflict is a conflict the :class:`LockManager` could actually
produce.  ``may_conflict`` is conservative (parameters and ranges are
unbounded), so the rules over-predict rather than under-predict: every
deadlock the ContentionSim can reach on these scripts is covered by a
C001 prediction, which the cross-validation test enforces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import Finding, Severity
from repro.analysis.txn import (
    DeadlockPrediction,
    ScriptStatement,
    TxnScript,
    TxnSegment,
)
from repro.concurrency.footprint import (
    LockRequest,
    may_conflict,
)
from repro.concurrency.locks import compatible
from repro.errors import SQLError
from repro.sqldb import ast_nodes as ast


# -- C001: lock-order inversion ----------------------------------------------


@dataclass(frozen=True)
class Inversion:
    """One predicted hold-and-wait cycle with its report text."""

    prediction: DeadlockPrediction
    message: str
    node_path: str


def predict_deadlocks(
    first: TxnScript, second: TxnScript
) -> List[Inversion]:
    """C001 candidates between an instance of *first* and an instance of
    *second* (pass the same script twice for the self-pair case).

    The shape: instance A acquires ``held_a`` then requests ``want_a``;
    instance B acquires ``held_b`` then requests ``want_b``; A's request
    may block on B's held lock and vice versa — a hold-and-wait cycle.
    Requests are ordered by acquisition sequence *within one explicit
    segment*, because strict 2PL holds them to the terminator; autocommit
    statements acquire non-parking (fail fast) and cannot deadlock.
    """
    inversions: List[Inversion] = []
    seen: Set[Tuple[str, str, Tuple[str, ...]]] = set()
    for seg_a in _explicit_segments(first):
        held_seq_a = _acquisition_sequence(seg_a)
        for seg_b in _explicit_segments(second):
            held_seq_b = _acquisition_sequence(seg_b)
            for pos_a, stmt_a, held_a in held_seq_a:
                for pos_a2, stmt_a2, want_a in held_seq_a:
                    if pos_a2 <= pos_a:
                        continue
                    for pos_b, stmt_b, held_b in held_seq_b:
                        # Both first-acquired locks must be co-holdable:
                        # two certainly-overlapping incompatible
                        # table-covering locks cannot be held at once,
                        # so no hold-and-wait can start from them.
                        if _certainly_conflicting(held_a, held_b):
                            continue
                        for pos_b2, stmt_b2, want_b in held_seq_b:
                            if pos_b2 <= pos_b:
                                continue
                            if not may_conflict(want_a, held_b):
                                continue
                            if not may_conflict(want_b, held_a):
                                continue
                            tables = tuple(
                                sorted({want_a.table, want_b.table})
                            )
                            key = (first.name, second.name, tables)
                            if key in seen:
                                continue
                            seen.add(key)
                            inversions.append(
                                _describe_inversion(
                                    first,
                                    second,
                                    tables,
                                    (stmt_a, held_a, stmt_a2, want_a),
                                    (stmt_b, held_b, stmt_b2, want_b),
                                )
                            )
    return inversions


def inversion_findings(inversions: Sequence[Inversion]) -> List[Finding]:
    """C001 findings for *inversions* (one WARNING each)."""
    return [
        Finding("C001", Severity.WARNING, inv.message, inv.node_path)
        for inv in inversions
    ]


def conflict_edges(
    first: TxnScript, second: TxnScript
) -> List[Tuple[str, str, str]]:
    """May-conflict graph edges: one ``(first, second, table)`` per table
    where a lock of one script and a lock of the other are incompatible
    and may cover a common resource."""
    edges: Set[Tuple[str, str, str]] = set()
    for stmt_a in first.statements:
        for req_a in stmt_a.footprint:
            for stmt_b in second.statements:
                for req_b in stmt_b.footprint:
                    if may_conflict(req_a, req_b):
                        edges.add((first.name, second.name, req_a.table))
    return sorted(edges)


def _explicit_segments(script: TxnScript) -> List[TxnSegment]:
    return [segment for segment in script.segments if segment.explicit]


def _acquisition_sequence(
    segment: TxnSegment,
) -> List[Tuple[int, ScriptStatement, LockRequest]]:
    """The segment's lock requests in acquisition order: statement order
    first, footprint order within a statement (a statement can hold its
    earlier requests while waiting for a later one)."""
    sequence: List[Tuple[int, ScriptStatement, LockRequest]] = []
    position = 0
    for stmt in segment.statements:
        for request in stmt.footprint:
            sequence.append((position, stmt, request))
            position += 1
    return sequence


def _certainly_conflicting(a: LockRequest, b: LockRequest) -> bool:
    """Whether two requests *always* conflict — they can never be held
    by two transactions at the same time."""
    return (
        a.table == b.table
        and a.covers_table()
        and b.covers_table()
        and not compatible(a.mode, b.mode)
    )


def _describe_inversion(
    first: TxnScript,
    second: TxnScript,
    tables: Tuple[str, ...],
    chain_a: Tuple[ScriptStatement, LockRequest, ScriptStatement, LockRequest],
    chain_b: Tuple[ScriptStatement, LockRequest, ScriptStatement, LockRequest],
) -> Inversion:
    stmt_a, held_a, stmt_a2, want_a = chain_a
    stmt_b, held_b, stmt_b2, want_b = chain_b
    if first.name == second.name:
        subject = f"two concurrent instances of script {first.name!r}"
    else:
        subject = f"scripts {first.name!r} and {second.name!r}"
    message = (
        f"lock-order inversion: {subject} can deadlock — one holds "
        f"{held_a.describe()} (stmt[{stmt_a.index}]) and requests "
        f"{want_a.describe()} (stmt[{stmt_a2.index}]) while the other "
        f"holds {held_b.describe()} (stmt[{stmt_b.index}]) and requests "
        f"{want_b.describe()} (stmt[{stmt_b2.index}]); "
        f"cycle tables: {', '.join(tables)}"
    )
    return Inversion(
        prediction=DeadlockPrediction(
            scripts=(first.name, second.name), tables=tables
        ),
        message=message,
        node_path=f"pair[{first.name},{second.name}]",
    )


# -- C002: retry idempotence -------------------------------------------------


def check_idempotence(
    script: TxnScript, database: Optional[Any]
) -> List[Finding]:
    """C002, the one script-local rule: DML a lost-reply retry would
    apply twice.

    Suppressed entirely for SEQUENCED scripts: the server's replay cache
    returns the recorded reply instead of re-executing, so the retry is
    exactly-once.  A keyless INSERT is only detectable against a catalog
    (a primary key makes the retry fail loudly on the unique index, which
    is safe); without one, INSERTs get the benefit of the doubt.
    """
    if script.sequenced:
        return []
    findings: List[Finding] = []
    for stmt in script.statements:
        node = stmt.statement
        if isinstance(node, ast.Update):
            column = _self_referential_assignment(node)
            if column is not None:
                findings.append(
                    Finding(
                        "C002",
                        Severity.ERROR,
                        f"non-idempotent UPDATE on {node.table!r}: the "
                        f"value assigned to {column!r} reads a column the "
                        f"statement assigns, so a retry after a lost "
                        f"reply applies the change twice; run it under a "
                        f"SEQUENCED session (or mark the script "
                        f"'-- pragma: sequenced')",
                        f"stmt[{stmt.index}]",
                    )
                )
        elif isinstance(node, ast.Insert):
            reason = _keyless_insert(node, database)
            if reason is not None:
                findings.append(
                    Finding(
                        "C002",
                        Severity.ERROR,
                        f"keyless INSERT into {node.table!r}: {reason}, "
                        f"so a retry after a lost reply inserts a "
                        f"duplicate row instead of failing; run it under "
                        f"a SEQUENCED session (or mark the script "
                        f"'-- pragma: sequenced')",
                        f"stmt[{stmt.index}]",
                    )
                )
    return findings


def _self_referential_assignment(node: ast.Update) -> Optional[str]:
    assigned = {column.lower() for column, __ in node.assignments}
    for column, value in node.assignments:
        for sub in ast.walk_expression(value):
            if (
                isinstance(sub, ast.ColumnRef)
                and sub.name.lower() in assigned
            ):
                return column
    return None


def _keyless_insert(
    node: ast.Insert, database: Optional[Any]
) -> Optional[str]:
    if database is None:
        return None
    try:
        schema = database.catalog.lookup(node.table).schema
    except SQLError:
        return None
    pk_position = schema.primary_key_index()
    if pk_position is None:
        return f"table {node.table!r} has no primary key"
    pk_name = schema.columns[pk_position].name.lower()
    if node.columns and pk_name not in (
        column.lower() for column in node.columns
    ):
        return f"the column list omits the primary key {pk_name!r}"
    return None
