"""Finding and rule-catalog data types of the static analyzer.

Severity semantics:

* ``ERROR``   — the statement is semantically unsafe (non-linear or
  non-monotonic recursion, a tree condition pushed into the recursive
  part).  The planner itself refuses the R001/R002 shapes.
* ``WARNING`` — the statement will execute correctly but with a cost
  profile the paper warns about (unguarded UNION ALL recursion, plan-
  cache-defeating IN-lists, full scans, cartesian products).
* ``INFO``    — a shape worth knowing about in context (a single
  navigational point-SELECT is fine; ten thousand of them are Table 2).

"Lint-clean" means: no finding at WARNING or above.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple


class Severity(enum.IntEnum):
    """Ordered severity levels; comparisons follow the integer order."""

    INFO = 10
    WARNING = 20
    ERROR = 30


@dataclass(frozen=True)
class Finding:
    """One analyzer finding, anchored to a location in the statement."""

    rule_id: str
    severity: Severity
    message: str
    node_path: str

    def as_row(self) -> Tuple[str, str, str, str]:
        """The finding as a flat row (the CLI's JSON fields, in order)."""
        return (self.rule_id, self.severity.name, self.message, self.node_path)


@dataclass(frozen=True)
class RuleInfo:
    """Catalog entry: what a rule checks and where the paper motivates it."""

    rule_id: str
    title: str
    default_severity: Severity
    paper_section: str


#: rule_id -> catalog entry.  The paper-section mapping is documented in
#: ARCHITECTURE.md section 8.
RULE_CATALOG: Dict[str, RuleInfo] = {
    rule.rule_id: rule
    for rule in (
        RuleInfo(
            "R001",
            "non-linear recursion (recursive relation referenced more than "
            "once in one recursive branch)",
            Severity.ERROR,
            "5.2 (SQL:1999 linear recursion)",
        ),
        RuleInfo(
            "R002",
            "non-monotonic recursion (EXCEPT/INTERSECT, aggregation, or "
            "negated membership over the recursive member)",
            Severity.ERROR,
            "5.2 (fixpoint monotonicity)",
        ),
        RuleInfo(
            "R003",
            "unguarded recursion (UNION ALL with neither cycle protection "
            "nor a depth guard)",
            Severity.WARNING,
            "5.2 / 5.6 (termination on cyclic data, partial expand)",
        ),
        RuleInfo(
            "P001",
            "tree condition pushed into the recursive part (∀rows / "
            "tree-aggregate predicates belong in the outer SELECT)",
            Severity.ERROR,
            "5.5 steps A-B",
        ),
        RuleInfo(
            "P002",
            "non-sargable predicate (indexed column wrapped in an "
            "expression, or LIKE with a leading wildcard)",
            Severity.WARNING,
            "5.4 (access-path tuning)",
        ),
        RuleInfo(
            "P003",
            "unpadded parameter IN-list (defeats the plan cache's "
            "fixed-shape bucketing)",
            Severity.WARNING,
            "6 (prepared statements; PR-1 bucketed IN-lists)",
        ),
        RuleInfo(
            "W001",
            "navigational point-SELECT (per-node fetch shape that should "
            "be batched or recursive over a WAN)",
            Severity.INFO,
            "2 / 4.2 (Table 2 response times)",
        ),
        RuleInfo(
            "W002",
            "full scan on an indexed column (the plan ignores a usable "
            "index)",
            Severity.WARNING,
            "5.4 (index usage)",
        ),
        RuleInfo(
            "W003",
            "cartesian product (FROM relations not connected by any join "
            "predicate)",
            Severity.WARNING,
            "6 (transfer volume dominates)",
        ),
        RuleInfo(
            "C001",
            "lock-order inversion across transaction scripts (two "
            "concurrent instances can each hold a lock the other waits "
            "for: static deadlock risk)",
            Severity.WARNING,
            "6 (multi-user PDM operation; DESIGN §9 wait-for cycles)",
        ),
        RuleInfo(
            "C002",
            "non-idempotent DML outside a retry envelope (a retried "
            "x = x + 1 or keyless INSERT applies twice)",
            Severity.ERROR,
            "4.3 (WAN failures force retries; SEQUENCED at-most-once)",
        ),
        RuleInfo(
            "C003",
            "exclusive locks held across client round trips (every "
            "blocked peer pays the WAN latency per trip)",
            Severity.WARNING,
            "2 / 6 (round-trip cost dominates over a WAN)",
        ),
        RuleInfo(
            "C004",
            "table-lock escalation inside a long transaction (a "
            "table-wide X in a multi-statement transaction serialises "
            "every reader and writer of the table)",
            Severity.WARNING,
            "6 (check-out granularity: lock subtrees, not tables)",
        ),
        RuleInfo(
            "C005",
            "DDL inside a transaction script (catalog changes are not "
            "undo-logged; the server rejects DDL mid-transaction)",
            Severity.ERROR,
            "5.1 (schema changes are offline operations)",
        ),
    )
}


#: IN-list sizes the batched expand pads its frontier chunks to.  A fixed
#: set of shapes bounds the number of distinct SQL texts, so the server's
#: plan cache starts hitting after the first few levels.  This is the
#: canonical definition; :mod:`repro.pdm.operations` re-exports it.
PLAN_CACHE_KEY_BUCKETS: Tuple[int, ...] = (1, 4, 16, 64, 256)


def max_severity(findings: Sequence[Finding]) -> Severity:
    """Highest severity among *findings* (INFO when empty)."""
    return max(
        (finding.severity for finding in findings), default=Severity.INFO
    )


def is_lint_clean(findings: Sequence[Finding]) -> bool:
    """True when nothing at WARNING or above was found."""
    return all(finding.severity < Severity.WARNING for finding in findings)
