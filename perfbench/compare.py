"""Compare two perfbench suite reports, or the current tree with itself.

``python3 perfbench/compare.py A.json B.json`` prints one row per
workload × end-to-end metric — both medians, the ratio **and its base**
(always A), and a verdict judged by the bounds in ``BENCHMARK.json``:

* ``improved`` / ``regressed`` — B is better / worse than A by more than
  the metric's bound;
* ``same`` — within the bound;
* ``unresolved`` — either side's own run-to-run spread (interquartile
  range ÷ median, known when a side holds four or more runs) exceeds the
  bound, so the comparison cannot tell.

A file holds one report written by ``run.py --out`` or a JSON list of
them.  Values that must repeat exactly for a seed (simulated seconds,
counts) are diffed exactly when both sides ran the same seed.

``--self`` runs the suite twice on the current tree and exits non-zero
if any metric disagrees beyond its bound or any exact value differs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Any, Dict, List, Optional, Sequence

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.run import load_benchmark_json, run_suite  # noqa: E402


def load_runs(path: str) -> List[Dict[str, Any]]:
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    runs = data if isinstance(data, list) else [data]
    for run in runs:
        if run.get("schema") != "perfbench/v1":
            raise SystemExit(f"{path}: not a perfbench/v1 report")
        if run.get("smoke"):
            raise SystemExit(f"{path}: smoke runs are not comparable")
    return runs


def spread(values: Sequence[float]) -> Optional[float]:
    """Interquartile range ÷ median; None below four values."""
    if len(values) < 4:
        return None
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def verdict(
    a: Sequence[float], b: Sequence[float], better: str, bound: float
) -> Dict[str, Any]:
    """Judge B against A for one metric of one workload."""
    median_a = statistics.median(a)
    median_b = statistics.median(b)
    worse = (median_b - median_a) / median_a
    if better == "higher":
        worse = -worse
    spreads = [s for s in (spread(a), spread(b)) if s is not None]
    if spreads and max(spreads) > bound:
        outcome = "unresolved"
    elif worse > bound:
        outcome = "regressed"
    elif worse < -bound:
        outcome = "improved"
    else:
        outcome = "same"
    return {
        "median_a": median_a,
        "median_b": median_b,
        "ratio": median_b / median_a,
        "spread": max(spreads) if spreads else None,
        "verdict": outcome,
    }


def exact_diff(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    """Workload-qualified names of the exact values that differ."""
    differing = []
    for workload, report_a in a["workloads"].items():
        report_b = b["workloads"].get(workload)
        if report_b is None:
            continue
        for key, value in report_a["exact"].items():
            if report_b["exact"].get(key) != value:
                differing.append(
                    f"{workload}: {key} {value!r} -> {report_b['exact'].get(key)!r}"
                )
    return differing


def compare(
    runs_a: Sequence[Dict[str, Any]],
    runs_b: Sequence[Dict[str, Any]],
    benchmark: Dict[str, Any],
) -> Dict[str, Any]:
    rows = []
    for workload in runs_a[0]["workloads"]:
        if any(workload not in run["workloads"] for run in (*runs_a, *runs_b)):
            continue
        for spec in benchmark["end_to_end"]:
            name = spec["name"]
            values_a = [r["workloads"][workload]["end_to_end"][name] for r in runs_a]
            values_b = [r["workloads"][workload]["end_to_end"][name] for r in runs_b]
            row = verdict(values_a, values_b, spec["better"], spec["bound"])
            row.update(workload=workload, metric=name, unit=spec["unit"],
                       bound=spec["bound"])
            rows.append(row)
    exact: List[str] = []
    for run_a in runs_a:
        for run_b in runs_b:
            if run_a["seed"] == run_b["seed"]:
                exact.extend(exact_diff(run_a, run_b))
    return {"rows": rows, "exact": exact}


def print_comparison(result: Dict[str, Any]) -> None:
    print(
        f"{'workload':17s} {'metric':14s} {'A (base)':>13s} {'B':>13s} "
        f"{'B/A':>7s} {'bound':>6s} {'spread':>7s}  verdict"
    )
    for row in result["rows"]:
        shown = "-" if row["spread"] is None else f"{row['spread']:.1%}"
        print(
            f"{row['workload']:17s} {row['metric']:14s} "
            f"{row['median_a']:13.5f} {row['median_b']:13.5f} "
            f"{row['ratio']:7.3f} {row['bound']:6.0%} {shown:>7s}  "
            f"{row['verdict']} ({row['unit']})"
        )
    if result["exact"]:
        print("exact values that differ (same seed on both sides):")
        for line in result["exact"]:
            print(f"  {line}")
    else:
        print("exact values: identical wherever both sides ran the same seed")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("reports", nargs="*", help="A.json B.json")
    parser.add_argument("--self", dest="self_check", action="store_true",
                        help="run the suite twice on this tree and compare")
    args = parser.parse_args(argv)
    benchmark = load_benchmark_json()
    if args.self_check:
        runs_a = [run_suite(0, benchmark["run_seconds"])]
        runs_b = [run_suite(0, benchmark["run_seconds"])]
    elif len(args.reports) == 2:
        runs_a, runs_b = load_runs(args.reports[0]), load_runs(args.reports[1])
    else:
        parser.error("give two report files, or --self")
    result = compare(runs_a, runs_b, benchmark)
    print_comparison(result)
    if args.self_check:
        failed = sum(run["failed"] for run in (*runs_a, *runs_b))
        moved = [r for r in result["rows"] if r["verdict"] != "same"]
        return 1 if (failed or moved or result["exact"]) else 0
    return 1 if any(r["verdict"] == "regressed" for r in result["rows"]) else 0


if __name__ == "__main__":
    sys.exit(main())
