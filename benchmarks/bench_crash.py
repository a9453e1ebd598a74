"""Crash-chaos benchmark: seeded crash points under a live workload.

Sweeps the WAL crash-point grid — every append position under every
failure flavour (clean stop, torn final record, bit-flipped corrupt
tail) — through the deterministic crash-chaos simulator and audits the
two durability invariants per run: zero lost committed transactions and
zero resurrected uncommitted writes.

    python benchmarks/bench_crash.py --json BENCH_crash.json

The sweep covers >= 50 crash points and additionally re-runs a sample
cell to assert byte-identical reports per seed; the verdict on every
report is ``repro.recovery.violations``.  The fixed-seed CI gate is the
``crash`` block of ``benchmarks/run_all.py --scale small``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.errors import DurabilityError  # noqa: E402
from repro.recovery import (  # noqa: E402
    CrashConfig,
    CrashChaosSim,
    report_json,
    run_crash_sweep,
    violations,
)

SEED = 42


def print_table(summary: dict) -> None:
    header = (
        f"{'crash_at':>8s} {'failure':>8s} {'restarts':>8s} "
        f"{'acked':>6s} {'applied':>8s} {'sum':>5s} {'tail':>8s} "
        f"{'discarded':>9s}"
    )
    print(header)
    for run in summary["runs"]:
        print(
            f"{run['crash_at']:>8d} {run['failure']:>8s} "
            f"{run['restarts']:>8d} {run['acked']:>6d} "
            f"{run['applied']:>8d} {run['counter_sum']:>5d} "
            f"{str(run['tail_status']):>8s} {str(run['discarded']):>9s}"
        )
    print(
        f"{summary['profiles']} profiles, seed {summary['seed']}, "
        f"invariants held: {summary['all_invariants_held']}"
    )


def determinism_check(config: CrashConfig) -> list:
    """Two runs of one cell must produce byte-identical reports."""
    first = CrashChaosSim(config).run()
    second = CrashChaosSim(config).run()
    failures = violations(first)
    if report_json(first) != report_json(second):
        failures.append(
            "same-seed crash reports differ — recovery is not deterministic"
        )
    print(
        f"cell crash@{config.crash_at_append}-{config.failure}: "
        f"schedule hash {first['schedule']['hash']}"
    )
    print(
        f"steps={first['schedule']['steps']} restarts={first['restarts']} "
        f"acked={first['acked_txns']} applied={first['applied_txns']} "
        f"tail={first['crash_recovery'].get('tail_status')} "
        f"discarded={first['crash_recovery'].get('txns_discarded')}"
    )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--seed", type=int, default=SEED, help="base seed for the sweep"
    )
    parser.add_argument(
        "--max-crash-at",
        type=int,
        default=17,
        help="sweep crash points 1..N under each failure flavour",
    )
    parser.add_argument(
        "--clients", type=int, default=3, help="clients per run"
    )
    parser.add_argument(
        "--txns", type=int, default=3, help="transactions per client"
    )
    parser.add_argument("--json", metavar="PATH", help="write the summary")
    args = parser.parse_args(argv)
    failures = determinism_check(
        CrashConfig(
            clients=args.clients,
            txns_per_client=args.txns,
            crash_at_append=7,
            failure="corrupt",
            seed=args.seed,
        )
    )
    try:
        summary = run_crash_sweep(
            seed=args.seed,
            max_crash_at=args.max_crash_at,
            clients=args.clients,
            txns_per_client=args.txns,
        )
    except DurabilityError as error:
        print(f"FAIL: {error}", file=sys.stderr)
        return 1
    print_table(summary)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
