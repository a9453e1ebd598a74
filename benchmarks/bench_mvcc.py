"""MVCC benchmark: auditors racing ECO write bursts, locking vs snapshot.

Runs the contention simulator's ``audit_eco`` scenario twice with the
same seed on the same engine — once with auditors that open their
transaction with a plain ``BEGIN`` (S locks held to commit: the strict
2PL reader) and once with ``BEGIN TRANSACTION READ ONLY`` (snapshot
reads) — and compares lock waits, aborts and the multi-level-expand
latency distribution between the two:

    python benchmarks/bench_mvcc.py --json BENCH_mvcc.json

Exits non-zero unless

* the locking side actually contends (auditor lock waits > 0, else the
  cell proves nothing) and reads no snapshot,
* the snapshot side shows ZERO lock waits and ZERO aborts for its
  auditors,
* the snapshot side's p99 multi-level-expand latency is strictly lower,
  and
* both sides hold the simulator's invariants
  (``repro.concurrency.violations``: no lost update, every version chain
  drained by the end and every version created collected).

The fixed-seed gate (``SMOKE_KWARGS``, determinism included) is the
``bench_mvcc`` block of ``benchmarks/run_all.py --scale small``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.concurrency import (  # noqa: E402
    ContentionConfig,
    ContentionSim,
    violations,
)

SEED = 42

#: run_all's fixed-seed cell: enough clients for auditor/writer overlap,
#: long enough transactions for the locking auditors to park and deadlock.
SMOKE_KWARGS = dict(
    clients=6,
    ops_per_client=6,
    conflict_rate=0.5,
    seed=SEED,
    scenario="audit_eco",
)


def run_cell(read_only_audits: bool, **kwargs) -> dict:
    """One audit_eco run; the two sides differ only in what the auditors
    send to open their transaction."""
    config = ContentionConfig(read_only_audits=read_only_audits, **kwargs)
    return ContentionSim(config).run()


def run_pair(**kwargs) -> dict:
    """Run the same audit_eco cell with locking and with snapshot auditors."""
    locking = run_cell(False, **kwargs)
    mvcc = run_cell(True, **kwargs)
    return {"2pl": locking, "mvcc": mvcc, "deltas": compare(locking, mvcc)}


def sides(pair: dict) -> tuple:
    """The two reports of a pair with the names the messages use."""
    return (("locking", pair["2pl"]), ("snapshot", pair["mvcc"]))


def compare(locking: dict, mvcc: dict) -> dict:
    """Headline deltas between the two sides of one cell."""
    lt, mt = locking["totals"], mvcc["totals"]
    lx, mx = locking["expand_latency_s"], mvcc["expand_latency_s"]
    return {
        "ro_lock_waits": {"2pl": lt["ro_lock_waits"], "mvcc": mt["ro_lock_waits"]},
        "ro_aborts": {"2pl": lt["ro_aborts"], "mvcc": mt["ro_aborts"]},
        "expand_p50_s": {"2pl": lx["p50"], "mvcc": mx["p50"]},
        "expand_p95_s": {"2pl": lx["p95"], "mvcc": mx["p95"]},
        "expand_p99_s": {"2pl": lx["p99"], "mvcc": mx["p99"]},
        "elapsed_s": {"2pl": locking["elapsed_s"], "mvcc": mvcc["elapsed_s"]},
    }


def check_pair(pair: dict) -> List[str]:
    """The acceptance gates for one locking/snapshot cell pair."""
    locking, mvcc = pair["2pl"], pair["mvcc"]
    failures = []
    if locking["totals"]["ro_lock_waits"] == 0:
        failures.append(
            "locking auditors saw no lock waits — cell proves nothing"
        )
    if locking["mvcc"]["snapshot_reads"] != 0:
        failures.append(
            f"locking auditors made {locking['mvcc']['snapshot_reads']} "
            f"snapshot reads (expected 0)"
        )
    if mvcc["totals"]["ro_lock_waits"] != 0:
        failures.append(
            f"snapshot auditors saw {mvcc['totals']['ro_lock_waits']} "
            f"lock waits (expected 0)"
        )
    if mvcc["totals"]["ro_aborts"] != 0:
        failures.append(
            f"snapshot auditors saw {mvcc['totals']['ro_aborts']} "
            f"aborts (expected 0)"
        )
    p99_2pl = locking["expand_latency_s"]["p99"]
    p99_mvcc = mvcc["expand_latency_s"]["p99"]
    if p99_2pl is None or p99_mvcc is None:
        failures.append("missing expand latency percentiles")
    elif not p99_mvcc < p99_2pl:
        failures.append(
            f"snapshot expand p99 {p99_mvcc:.3f}s not below locking "
            f"{p99_2pl:.3f}s"
        )
    for name, report in sides(pair):
        failures.extend(
            f"{name} side: {failure}" for failure in violations(report)
        )
    if mvcc["mvcc"]["snapshot_reads"] == 0:
        failures.append("snapshot auditors recorded no snapshot reads")
    return failures


def print_pair(pair: dict) -> None:
    print(
        f"{'':>12s} {'ro_waits':>8s} {'ro_aborts':>9s} "
        f"{'exp p50':>8s} {'exp p95':>8s} {'exp p99':>8s} {'lost':>5s}"
    )
    for name, report in sides(pair):
        totals = report["totals"]
        expand = report["expand_latency_s"]
        print(
            f"{name:>12s} {totals['ro_lock_waits']:>8d} "
            f"{totals['ro_aborts']:>9d} "
            f"{expand['p50']:>8.3f} {expand['p95']:>8.3f} "
            f"{expand['p99']:>8.3f} {report['lost_updates']:>5d}"
        )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument(
        "--clients", type=int, default=6, help="client count (half audit)"
    )
    parser.add_argument(
        "--ops", type=int, default=6, help="operations per client"
    )
    parser.add_argument(
        "--json", metavar="PATH", help="write the full pair report to PATH"
    )
    args = parser.parse_args(argv)
    pair = run_pair(
        clients=args.clients,
        ops_per_client=args.ops,
        conflict_rate=0.5,
        seed=args.seed,
        scenario="audit_eco",
    )
    print_pair(pair)
    failures = check_pair(pair)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(pair, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
