"""Finding and rule-catalog data types of the static analyzer.

Severity semantics:

* ``ERROR``   — the statement or script is unsafe: a tree condition
  pushed into the recursive part, or DML a lost-reply retry applies
  twice.
* ``WARNING`` — it will execute correctly but with a cost profile the
  paper warns about (unguarded UNION ALL recursion, a lock-order
  inversion between scripts, a navigational shape repeated per node).
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


#: rule_id -> catalog entry.  DESIGN.md section 8 maps each rule to the
#: paper argument it states.
RULE_CATALOG: Dict[str, RuleInfo] = {
    rule.rule_id: rule
    for rule in (
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
            "W001",
            "navigational point-SELECT (per-node fetch shape that should "
            "be batched or recursive over a WAN)",
            Severity.INFO,
            "2 / 4.2 (Table 2 response times)",
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
    )
}


def max_severity(findings: Sequence[Finding]) -> Severity:
    """Highest severity among *findings* (INFO when empty)."""
    return max(
        (finding.severity for finding in findings), default=Severity.INFO
    )


def is_lint_clean(findings: Sequence[Finding]) -> bool:
    """True when nothing at WARNING or above was found."""
    return all(finding.severity < Severity.WARNING for finding in findings)
