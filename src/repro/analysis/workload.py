"""Workload-level analysis: shapes that are harmless once, fatal ×1000.

A single point-SELECT costs one round trip and is unremarkable — the
analyzer reports it at INFO.  What the paper's Table 2 measures is that
shape *repeated once per visited node*.  This module analyzes a whole
workload (a sequence of statements, as text), groups them by normalized
statement text, and escalates the per-node findings (W001) to WARNING
when the same shape repeats past a threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.analysis.analyzer import analyze_sql
from repro.analysis.findings import Finding, Severity

#: Repetitions of one statement shape at which a per-node INFO finding
#: becomes a workload WARNING.  Ten round trips is already noticeable at
#: the paper's 700 ms intercontinental latency.
REPEAT_THRESHOLD = 10


@dataclass
class WorkloadReport:
    """Findings plus the shape statistics that produced them."""

    findings: List[Finding] = field(default_factory=list)
    statement_count: int = 0
    distinct_shapes: int = 0
    #: normalized statement text -> repetition count.
    shape_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def max_severity(self) -> Severity:
        return max(
            (finding.severity for finding in self.findings),
            default=Severity.INFO,
        )


def analyze_workload(statements: Sequence[str]) -> WorkloadReport:
    """Analyze every distinct statement once and escalate repeated
    per-node shapes.

    Statement texts are normalized on whitespace only — a navigational
    client re-issues the *identical* prepared text with different
    parameters, which is exactly what makes the repetition detectable.
    """
    report = WorkloadReport(statement_count=len(statements))
    order: List[str] = []
    for text in statements:
        normalized = " ".join(text.split())
        if normalized not in report.shape_counts:
            order.append(normalized)
        report.shape_counts[normalized] = (
            report.shape_counts.get(normalized, 0) + 1
        )
    report.distinct_shapes = len(order)
    for position, normalized in enumerate(order):
        count = report.shape_counts[normalized]
        for finding in analyze_sql(normalized):
            if (
                finding.rule_id == "W001"
                and count >= REPEAT_THRESHOLD
                and finding.severity < Severity.WARNING
            ):
                finding = Finding(
                    finding.rule_id,
                    Severity.WARNING,
                    f"{finding.message} (this shape repeats {count}x in "
                    f"the workload: {count} round trips over the WAN)",
                    finding.node_path,
                )
            report.findings.append(
                Finding(
                    finding.rule_id,
                    finding.severity,
                    finding.message,
                    f"stmt[{position}].{finding.node_path}",
                )
            )
    return report
