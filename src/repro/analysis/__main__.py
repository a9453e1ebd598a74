"""CLI for the static analyzer: ``python -m repro.analysis``.

Lints ``.sql`` workload files (semicolon-separated), the built-in PDM
template corpus (``--templates``), a synthesized paper workload
(``--workload table2-late``), or a transaction-script corpus analyzed
as a concurrent set (``--scripts``, one script per file: C-rules plus
the pairwise conflict graph and predicted deadlock cycles), and exits
non-zero per ``--fail-on`` so CI can gate on it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.analyzer import analyze_sql
from repro.analysis.findings import Finding, Severity, max_severity
from repro.analysis.workload import WorkloadReport, analyze_workload
from repro.sqldb.parser import parse_script
from repro.sqldb.render import render_statement

_FAIL_LEVELS = {"error": Severity.ERROR, "warning": Severity.WARNING}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static query/plan lints for the PDM reproduction.",
    )
    parser.add_argument(
        "files",
        nargs="*",
        help="semicolon-separated .sql workload files to lint",
    )
    parser.add_argument(
        "--templates",
        action="store_true",
        help="lint every built-in PDM query template and rule rewrite",
    )
    parser.add_argument(
        "--workload",
        choices=["table2-late", "recursive-early"],
        help="lint a synthesized paper workload",
    )
    parser.add_argument(
        "--nodes",
        type=int,
        default=100,
        help="visited-node count for --workload table2-late (default 100)",
    )
    parser.add_argument(
        "--scripts",
        nargs="+",
        metavar="PATH",
        help="transaction-script files or directories (one script per "
        ".sql file) to analyze as a concurrent set: C-rules, pairwise "
        "may-conflict edges, predicted deadlock cycles",
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    parser.add_argument(
        "--fail-on",
        choices=sorted(_FAIL_LEVELS),
        default="error",
        help="exit 1 when a finding at or above this severity exists",
    )
    return parser


def _finding_dict(finding: Finding) -> Dict[str, str]:
    rule_id, severity, message, node_path = finding.as_row()
    return {
        "rule_id": rule_id,
        "severity": severity,
        "message": message,
        "node_path": node_path,
    }


def _print_findings(source: str, findings: List[Finding]) -> None:
    if not findings:
        print(f"{source}: clean")
        return
    for finding in findings:
        print(
            f"{source}: {finding.severity.name} {finding.rule_id} "
            f"[{finding.node_path}] {finding.message}"
        )


def _lint_file(path: str) -> Tuple[WorkloadReport, Optional[str]]:
    """Lint one workload file; returns (report, parse-error-or-None)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        statements = parse_script(text)
    except OSError as error:
        return WorkloadReport(), f"{path}: {error}"
    except Exception as error:  # ParseError / LexerError
        return WorkloadReport(), f"{path}: {error}"
    return (
        analyze_workload([render_statement(s) for s in statements]),
        None,
    )


def _script_files(paths: List[str]) -> List[str]:
    """Expand directories to their ``.sql`` members, sorted for
    deterministic script naming and finding order."""
    collected: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            collected.extend(
                sorted(
                    os.path.join(path, entry)
                    for entry in os.listdir(path)
                    if entry.endswith(".sql")
                )
            )
        else:
            collected.append(path)
    return collected


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if (
        not args.files
        and not args.templates
        and args.workload is None
        and not args.scripts
    ):
        _build_parser().print_usage(sys.stderr)
        print(
            "error: nothing to lint (give files, --templates, "
            "--workload, or --scripts)",
            file=sys.stderr,
        )
        return 2

    results: List[Dict[str, Any]] = []
    worst = Severity.INFO
    failed_parse = False

    for path in args.files:
        report, error = _lint_file(path)
        if error is not None:
            failed_parse = True
            if not args.json:
                print(error, file=sys.stderr)
            results.append({"source": path, "error": error, "findings": []})
            continue
        worst = max(worst, report.max_severity)
        results.append(
            {
                "source": path,
                "statements": report.statement_count,
                "distinct_shapes": report.distinct_shapes,
                "findings": [_finding_dict(f) for f in report.findings],
            }
        )
        if not args.json:
            _print_findings(path, report.findings)

    if args.templates:
        from repro.analysis.templates import template_queries

        for name, sql in template_queries():
            findings = analyze_sql(sql)
            worst = max(worst, max_severity(findings))
            results.append(
                {
                    "source": f"template:{name}",
                    "findings": [_finding_dict(f) for f in findings],
                }
            )
            if not args.json:
                _print_findings(f"template:{name}", findings)

    if args.workload is not None:
        from repro.analysis.templates import (
            recursive_early_workload,
            table2_late_workload,
        )

        if args.workload == "table2-late":
            statements = table2_late_workload(args.nodes)
        else:
            statements = recursive_early_workload()
        report = analyze_workload(statements)
        worst = max(worst, report.max_severity)
        results.append(
            {
                "source": f"workload:{args.workload}",
                "statements": report.statement_count,
                "distinct_shapes": report.distinct_shapes,
                "findings": [_finding_dict(f) for f in report.findings],
            }
        )
        if not args.json:
            _print_findings(f"workload:{args.workload}", report.findings)

    if args.scripts:
        from repro.analysis.txn import (
            TxnScript,
            analyze_transaction_workload,
            parse_txn_script,
        )

        scripts: List[TxnScript] = []
        used_names: Dict[str, int] = {}
        for path in _script_files(args.scripts):
            name = os.path.splitext(os.path.basename(path))[0]
            if name in used_names:
                used_names[name] += 1
                name = f"{name}#{used_names[name]}"
            else:
                used_names[name] = 1
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    text = handle.read()
                scripts.append(parse_txn_script(name, text))
            except OSError as error:
                failed_parse = True
                message = f"{path}: {error}"
                if not args.json:
                    print(message, file=sys.stderr)
                results.append(
                    {"source": path, "error": message, "findings": []}
                )
            except Exception as error:  # ParseError / LexerError
                failed_parse = True
                message = f"{path}: {error}"
                if not args.json:
                    print(message, file=sys.stderr)
                results.append(
                    {"source": path, "error": message, "findings": []}
                )
        report = analyze_transaction_workload(scripts)
        worst = max(worst, report.max_severity)
        results.append(
            {
                "source": "scripts",
                "scripts": [script.name for script in report.scripts],
                "findings": [_finding_dict(f) for f in report.findings],
                "conflict_edges": [list(edge) for edge in report.conflict_edges],
                "deadlock_cycles": [
                    {"scripts": list(cycle.scripts), "tables": list(cycle.tables)}
                    for cycle in report.cycles
                ],
            }
        )
        if not args.json:
            _print_findings("scripts", report.findings)
            for a, b, table in report.conflict_edges:
                print(f"scripts: may-conflict {a} <-> {b} on {table}")
            for cycle in report.cycles:
                pair = " <-> ".join(cycle.scripts)
                print(
                    f"scripts: predicted deadlock {pair} "
                    f"on {', '.join(cycle.tables)}"
                )

    if args.json:
        print(json.dumps({"results": results, "worst": worst.name}, indent=2))

    if failed_parse or worst >= _FAIL_LEVELS[args.fail_on]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
