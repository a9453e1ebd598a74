"""perfbench entry point.

Two ways in:

* ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
  runs one workload in this process and prints, as the last line of
  standard output, one JSON object ``{"correct", "attempted", "failed",
  "metrics"}`` — the end-to-end metrics with ``--trace 0``, the per-layer
  metrics with ``--trace 1``.  This is the form the benchmark driver
  calls.
* ``python3 perfbench/run.py [--seed N] [--out FILE] [--trace-out FILE]
  [--smoke]`` runs all four workloads, each twice (untraced, traced) in
  its own sequential child process, and prints / writes one report.

One process, one thread, closed loop: the stack is synchronous, so the
client's next request is sent when the previous reply has been decoded.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import REPO_ROOT  # noqa: E402 - the path fix-up comes first
from perfbench.reference import EVERY, NOMINAL_S, host_speed, reference, sample  # noqa: E402
from perfbench.spans import (  # noqa: E402
    Tracer,
    check_ledger,
    instrument,
    layer_totals,
    ledger_gap,
    named_self_total,
    percentile,
)
from perfbench.stack import MAX_PASSES, Stack, build_stack  # noqa: E402
from perfbench.stages import replay  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    EXECUTORS,
    KIND_PREFIX,
    WORKLOADS,
    Context,
    GroundTruth,
    Op,
    SqliteOracle,
    audit_durability,
    check_result,
    fingerprint,
    make_ops,
)

#: Stacks built per untraced run; ``setup_s`` is the median build time.
BUILDS = 3

#: Reference calls timed before and after each build (see reference.py).
SETUP_REFERENCE_CALLS = 25

#: Timed passes go on until ``--seconds`` have passed, but never fewer
#: than this: an op's wall time is its minimum over the passes, and the
#: simulated seconds of exactly this many passes are pooled (each pass
#: draws its own fault stream, so ``txn_mix`` gets five samples per op of
#: what the flaky link does to it; on a perfect link the passes agree).
MIN_PASSES = 5

#: Distance between the ECO tokens of consecutive passes.
TOKEN_STRIDE = 100_000

REPORT_PREFIX = "perfbench-report: "


def load_benchmark_json() -> Dict[str, Any]:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# One pass over the op list
# ---------------------------------------------------------------------------


def run_pass(
    ctx: Context,
    ops: Sequence[Op],
    pass_index: int,
    on_result: Callable[[int, Op, Any], Optional[str]],
    tracer: Optional[Tracer] = None,
) -> Tuple[List[float], List[float], List[str], List[float]]:
    """Execute every op once; return (wall seconds, simulated seconds,
    failures, reference-task seconds).  *on_result* runs outside the timed
    interval and returns a complaint or None.  The caller has called
    ``stack.begin_pass(pass_index)``."""
    clock = ctx.stack.clock
    perf = time.perf_counter
    walls = [0.0] * len(ops)
    sims = [0.0] * len(ops)
    failures: List[str] = []
    references: List[float] = []
    base = pass_index * TOKEN_STRIDE
    for index, op in enumerate(ops):
        execute = EXECUTORS[op.kind]
        sim_before = clock.now
        failure = None
        started = perf()
        if tracer is not None:
            tracer.action_id = index
            span = tracer.begin(op.kind, "harness")
        try:
            result = execute(ctx, op, base + index + 1)
        except Exception as error:  # noqa: BLE001 - an op that raises is a failed op
            result = None
            failure = f"{op.kind} on {op.target!r} raised {type(error).__name__}: {error}"
        if tracer is not None:
            tracer.end(span)
        walls[index] = perf() - started
        sims[index] = clock.now - sim_before
        if failure is None:
            failure = on_result(index, op, result)
        if failure is not None:
            failures.append(failure)
        if index % EVERY == 0:
            started = perf()
            reference(index)
            references.append(perf() - started)
    return walls, sims, failures, references


class Verifier:
    """Checks the warm-up pass against the oracle and remembers a digest
    of each result; later passes are held to the digests."""

    def __init__(self, ctx: Context, oracle: Optional[SqliteOracle]) -> None:
        self.ctx = ctx
        self.oracle = oracle
        self.digests: Dict[int, Any] = {}

    def verify(self, index: int, op: Op, result: Any) -> Optional[str]:
        self.digests[index] = fingerprint(op, result)
        return check_result(self.ctx, op, result, self.oracle)

    def recheck(self, index: int, op: Op, result: Any) -> Optional[str]:
        found = fingerprint(op, result)
        if found != self.digests[index]:
            return (
                f"{op.kind} on {op.target!r}: result changed between passes "
                f"({self.digests[index]} -> {found})"
            )
        return None


def prepare(
    name: str, stack: Stack, seed: int, smoke: bool
) -> Tuple[Context, List[Op], Verifier, List[str]]:
    """Op list, oracle and the verified warm-up pass (untimed: it fills
    the plan cache and the columnar chunk cache, which a user does not
    pay per action)."""
    truth = GroundTruth.of(stack.product)
    ctx = Context(stack, truth)
    ops = make_ops(name, truth, seed, smoke)
    oracle = SqliteOracle(stack.product) if name == "report_scan" else None
    verifier = Verifier(ctx, oracle)
    stack.begin_pass(0)
    __, __, failures, __ = run_pass(ctx, ops, 0, verifier.verify)
    if oracle is not None:
        oracle.close()
    gc.collect()
    gc.freeze()
    return ctx, ops, verifier, failures


# ---------------------------------------------------------------------------
# Untraced run: the end-to-end metrics
# ---------------------------------------------------------------------------


def measure(name: str, seed: int, seconds: float, smoke: bool = False,
            tiny: bool = False) -> Dict[str, Any]:
    setups: List[float] = []
    stack = None
    for __ in range(1 if smoke else BUILDS):
        stack = None
        gc.collect()
        around = sample(SETUP_REFERENCE_CALLS)
        started = time.perf_counter()
        stack = build_stack(name, seed, tiny=tiny)
        elapsed = time.perf_counter() - started
        around += sample(SETUP_REFERENCE_CALLS)
        # A build lasts seconds and averages over the host's moods, so it
        # is scaled by the median reference call around it, not the best.
        setups.append(elapsed * NOMINAL_S / statistics.median(around))
    assert stack is not None
    ctx, ops, verifier, failures = prepare(name, stack, seed, smoke)
    attempted = len(ops)

    pass_walls: List[List[float]] = []
    pass_references: List[List[float]] = []
    pooled_sims: List[float] = []
    deadline = time.perf_counter() + seconds
    while len(pass_walls) < MAX_PASSES - 1:
        pass_index = len(pass_walls) + 1
        stack.begin_pass(pass_index)
        walls, sims, failed, references = run_pass(
            ctx, ops, pass_index, verifier.recheck
        )
        pass_walls.append(walls)
        pass_references.append(references)
        failures.extend(failed)
        attempted += len(ops)
        if pass_index <= MIN_PASSES:
            pooled_sims.extend(sims)
        if smoke or (
            len(pass_walls) >= MIN_PASSES and time.perf_counter() >= deadline
        ):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if name == "txn_mix":
        problems, __, __ = audit_durability(ctx)
        failures.extend(problems)
        attempted += 1

    gc.unfreeze()
    # Wall metrics are reported at reference speed; see reference.py.
    speed = host_speed(pass_references)
    best = [min(column) * speed for column in zip(*pass_walls)]
    totals = [sum(walls) for walls in pass_walls]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_ms_p50": percentile(best, 0.50) * 1e3,
        "wall_ms_p95": percentile(best, 0.95) * 1e3,
        "actions_per_s": len(ops) / sum(best),
        "sim_s_p50": percentile(pooled_sims, 0.50),
        "sim_s_p95": percentile(pooled_sims, 0.95),
        "peak_rss_mb": peak_rss_mb,
    }
    return {
        "workload": name,
        "seed": seed,
        "smoke": smoke,
        "trace": 0,
        "ops": len(ops),
        "passes": len(pass_walls),
        "timed_s": sum(totals),
        "host_speed": speed,
        "samples_beyond_p95": int(len(ops) * 0.05),
        "config": stack.config,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:10],
        "metrics": metrics,
        # Host-independent values that must repeat exactly for a seed.
        "exact": {
            "sim_s_p50": metrics["sim_s_p50"],
            "sim_s_p95": metrics["sim_s_p95"],
            "sim_s_total": sum(pooled_sims),
        },
    }


# ---------------------------------------------------------------------------
# Traced run: the per-layer metrics
# ---------------------------------------------------------------------------


def counters(ctx: Context) -> Dict[str, float]:
    """Every cumulative counter the layers expose, flattened."""
    stack = ctx.stack
    out: Dict[str, float] = {
        "round_trips": sum(c.statistics["round_trips"] for c in stack.connections),
        "attempts": sum(c.statistics["attempts"] for c in stack.connections),
        "checkout_conflicts": ctx.checkout_conflicts,
        "lock_conflicts": ctx.lock_conflicts,
        "txn_commits": ctx.txn_commits,
    }
    for field in (
        "messages", "payload_bytes", "wire_bytes", "latency_seconds",
        "transfer_seconds", "backoff_seconds", "timeout_seconds",
        "spike_seconds", "drops", "retries",
    ):
        out[f"link.{field}"] = sum(getattr(link.stats, field) for link in stack.links)
    for key, value in stack.server.statistics.items():
        out[f"server.{key}"] = value
    for key, value in stack.database.statistics.items():
        out[f"db.{key}"] = value
    if stack.locks is not None:
        for key, value in stack.locks.statistics.items():
            out[f"locks.{key}"] = value
    wal = getattr(stack.database, "wal", None)
    if wal is not None:
        for key, value in wal.statistics.items():
            out[f"wal.{key}"] = value
        out["wal.bytes"] = wal.disk.size
    return out


def delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {key: value - before.get(key, 0) for key, value in after.items()}


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def count_metrics(d: Dict[str, float], ops: int) -> Dict[str, float]:
    """The *count* metrics, from the counter deltas of one untraced pass."""
    selects = d["db.columnar_statements"] + d["db.columnar_fallbacks"]
    return {
        "server.client.round_trips_per_action": ratio(d["round_trips"], ops),
        "server.client.attempts_per_round_trip": ratio(
            d["attempts"] - d["link.retries"], d["attempts"]
        ),
        "network.messages_per_action": ratio(d["link.messages"], ops),
        "network.payload_kb_per_action": ratio(d["link.payload_bytes"], ops) / 1024.0,
        "network.wire_kb_per_action": ratio(d["link.wire_bytes"], ops) / 1024.0,
        "network.latency_s_per_action": ratio(d["link.latency_seconds"], ops),
        "network.transfer_s_per_action": ratio(d["link.transfer_seconds"], ops),
        "network.backoff_s_per_action": ratio(
            d["link.backoff_seconds"] + d["link.timeout_seconds"]
            + d["link.spike_seconds"],
            ops,
        ),
        "network.drops": d["link.drops"],
        "server.server.statements_per_action": ratio(d["db.statements"], ops),
        "server.server.duplicates_suppressed": d["server.duplicates_suppressed"],
        "server.server.errors": d["server.errors"],
        "sqldb.plan_cache_hit_ratio": ratio(d["db.plan_cache_hits"], d["db.statements"]),
        "sqldb.columnar_share": ratio(d["db.columnar_statements"], selects),
        "sqldb.columnar_fallbacks": d["db.columnar_fallbacks"],
        "sqldb.snapshot_reads": d["db.snapshot_reads"],
        "sqldb.versions_created": d["db.versions_created"],
        "sqldb.versions_gc": d["db.versions_gc"],
        "concurrency.lock_acquisitions_per_txn": ratio(
            d.get("locks.acquisitions", 0), d["txn_commits"]
        ),
        "concurrency.lock_waits": d.get("locks.waits", 0),
        "concurrency.lock_conflicts": d["lock_conflicts"],
        "concurrency.deadlocks": d.get("locks.deadlocks", 0),
        "concurrency.txn_aborts": d["server.txn_aborts"],
        "pdm.checkout_conflicts": d["checkout_conflicts"],
        "recovery.wal_appends_per_commit": ratio(
            d.get("wal.appends", 0), d.get("wal.commits", 0)
        ),
        "recovery.wal_bytes_per_commit": ratio(
            d.get("wal.bytes", 0), d.get("wal.commits", 0)
        ),
    }


class Capture:
    """What the traced pass records for the stage replay and the
    per-statement counts."""

    def __init__(self) -> None:
        self.frames: List[bytes] = []
        self.statements: Dict[Tuple[Any, tuple], None] = {}
        self.executions = 0
        self.rows_scanned = 0
        self.index_probes = 0

    def __call__(self, what: str, *payload: Any) -> None:
        if what == "frame":
            self.frames.append(payload[0])
            return
        sql, params, last = payload
        self.executions += 1
        self.rows_scanned += last.get("rows_scanned", 0)
        self.index_probes += last.get("index_probes", 0)
        if isinstance(sql, str):
            self.statements.setdefault((sql, tuple(params)), None)


def trace(name: str, seed: int, smoke: bool = False, tiny: bool = False,
          trace_out: Optional[str] = None) -> Dict[str, Any]:
    stack = build_stack(name, seed, tiny=tiny)
    ctx, ops, verifier, failures = prepare(name, stack, seed, smoke)
    attempted = len(ops)
    n = len(ops)

    stack.begin_pass(1)
    before = counters(ctx)
    walls_a, __, failed, __ = run_pass(ctx, ops, 1, verifier.recheck)
    counted = delta(counters(ctx), before)
    failures.extend(failed)
    stack.begin_pass(2)
    walls_b, __, failed, __ = run_pass(ctx, ops, 2, verifier.recheck)
    failures.extend(failed)

    tracer = Tracer()
    capture = Capture()
    stack.begin_pass(3)
    instrument(tracer, stack, capture)
    before = counters(ctx)
    walls_t, __, failed, __ = run_pass(ctx, ops, 3, verifier.recheck, tracer)
    traced = delta(counters(ctx), before)
    tracer.unwrap_all()
    failures.extend(failed)
    attempted += 3 * n

    complaint = check_ledger(tracer.spans, walls_t)
    if complaint is not None:
        failures.append(f"ledger: {complaint}")
    if trace_out:
        tracer.write(trace_out)

    wall_total = sum(walls_t)
    layers = layer_totals(tracer.spans)
    disk_append = named_self_total(tracer.spans, "SimDisk.append")
    metrics: Dict[str, float] = {
        "harness.self_ms": layers["harness"] / n * 1e3,
        "recovery.disk_append_ms": disk_append / n * 1e3,
        "obs.trace_overhead_ratio": wall_total
        / statistics.median([sum(walls_a), sum(walls_b)]),
        "obs.ledger_gap_ratio": ledger_gap(tracer.spans, walls_t),
    }
    for layer, stem in (
        ("pdm", "pdm.self"),
        ("server.client", "server.client.self"),
        ("network", "network.self"),
        ("server.server", "server.server.self"),
        ("sqldb", "sqldb.execute"),
        ("concurrency", "concurrency.lock"),
        ("recovery", "recovery.wal"),
    ):
        metrics[f"{stem}_ms"] = layers[layer] / n * 1e3
        metrics[f"{stem}_share"] = layers[layer] / wall_total

    best = [min(pair) for pair in zip(walls_a, walls_b)]
    by_kind: Dict[str, List[float]] = {}
    for op, wall in zip(ops, best):
        by_kind.setdefault(op.kind, []).append(wall)
    for kind, prefix in KIND_PREFIX.items():
        walls = by_kind.get(kind)
        metrics[f"{prefix}.{kind}.wall_ms_p50"] = (
            percentile(walls, 0.5) * 1e3 if walls else 0.0
        )

    metrics["sqldb.rows_scanned_per_row_returned"] = ratio(
        capture.rows_scanned, traced["db.rows_returned"]
    )
    metrics["sqldb.index_probes_per_stmt"] = ratio(
        capture.index_probes, capture.executions
    )
    metrics.update(replay(stack.database, capture.frames, list(capture.statements)))

    restart_s, replayed = 0.0, 0
    if name == "txn_mix":
        problems, restart_s, replayed = audit_durability(ctx)
        failures.extend(problems)
        attempted += 1
    metrics["recovery.restart_s"] = restart_s
    metrics["recovery.replayed_records"] = replayed

    counts = count_metrics(counted, n)
    metrics.update(counts)
    for key in (
        "sqldb.rows_scanned_per_row_returned",
        "sqldb.index_probes_per_stmt",
        "recovery.replayed_records",
    ):
        counts[key] = metrics[key]
    gc.unfreeze()
    return {
        "workload": name,
        "seed": seed,
        "smoke": smoke,
        "trace": 1,
        "ops": n,
        "spans": len(tracer.spans),
        "config": stack.config,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:10],
        "metrics": metrics,
        "exact": counts,
    }


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def metric_units(benchmark: Dict[str, Any], traced: bool) -> Dict[str, str]:
    specs = benchmark["per_layer" if traced else "end_to_end"]
    return {spec["name"]: spec["unit"] for spec in specs}


def contract_line(report: Dict[str, Any], units: Dict[str, str]) -> str:
    """The driver's result object; raises when the run did not produce
    exactly the metrics BENCHMARK.json declares."""
    produced = report["metrics"]
    if set(produced) != set(units):
        missing = sorted(set(units) - set(produced))
        extra = sorted(set(produced) - set(units))
        raise SystemExit(
            f"metrics disagree with BENCHMARK.json: missing {missing}, extra {extra}"
        )
    return json.dumps(
        {
            "correct": report["failed"] == 0,
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {
                name: {"value": produced[name], "unit": units[name]}
                for name in units
            },
        }
    )


def print_report(report: Dict[str, Any], units: Dict[str, str]) -> None:
    head = (
        f"{report['workload']} seed={report['seed']} ops={report['ops']} "
        f"trace={report['trace']}"
    )
    if not report["trace"]:
        head += (
            f" passes={report['passes']} timed_s={report['timed_s']:.1f} "
            f"host_speed={report['host_speed']:.3f} "
            f"samples_beyond_p95={report['samples_beyond_p95']}"
        )
    print(head + (" SMOKE" if report["smoke"] else ""))
    print(f"  config: {json.dumps(report['config'], sort_keys=True)}")
    for name in units:
        print(f"  {name:44s} {report['metrics'][name]:>16.6f} {units[name]}")
    print(f"  failed {report['failed']} of {report['attempted']} attempted")
    for failure in report["failures"]:
        print(f"  FAILED: {failure}")


def run_one(args: argparse.Namespace, benchmark: Dict[str, Any]) -> int:
    traced = bool(args.trace)
    if traced:
        report = trace(args.workload, args.seed, args.smoke, trace_out=args.trace_out)
    else:
        report = measure(args.workload, args.seed, args.seconds, args.smoke)
    units = metric_units(benchmark, traced)
    print_report(report, units)
    line = contract_line(report, units)
    print(REPORT_PREFIX + json.dumps(report, sort_keys=True))
    print(line)
    return 0


def trace_path(base: Optional[str], workload: str) -> Optional[str]:
    if not base:
        return None
    stem, extension = os.path.splitext(base)
    return f"{stem}.{workload}{extension or '.json'}"


def run_child(workload: str, seed: int, seconds: int, traced: bool, smoke: bool,
              trace_out: Optional[str], benchmark: Dict[str, Any]) -> Dict[str, Any]:
    """One workload in its own process (so ``peak_rss_mb`` is its own)."""
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "1" if traced else "0",
    ]
    if smoke:
        command.append("--smoke")
    if traced and trace_out:
        command += ["--trace-out", trace_out]
    done = subprocess.run(command, capture_output=True, text=True, check=False)
    for line in done.stdout.splitlines():
        if line.startswith(REPORT_PREFIX):
            report = json.loads(line[len(REPORT_PREFIX):])
            break
    else:
        raise SystemExit(
            f"{workload} (trace={int(traced)}) produced no report "
            f"(exit {done.returncode}):\n{done.stdout[-2000:]}\n{done.stderr[-2000:]}"
        )
    print_report(report, metric_units(benchmark, traced))
    return report


def run_suite(seed: int, seconds: int, smoke: bool = False,
              trace_out: Optional[str] = None,
              workloads: Sequence[str] = WORKLOADS) -> Dict[str, Any]:
    suite: Dict[str, Any] = {
        "schema": "perfbench/v1",
        "seed": seed,
        "smoke": smoke,
        "run_seconds": seconds,
        "workloads": {},
    }
    benchmark = load_benchmark_json()
    for workload in workloads:
        untraced = run_child(workload, seed, seconds, False, smoke, None, benchmark)
        traced = run_child(
            workload, seed, seconds, True, smoke,
            trace_path(trace_out, workload), benchmark,
        )
        suite["workloads"][workload] = {
            "ops": untraced["ops"],
            "passes": untraced["passes"],
            "timed_s": untraced["timed_s"],
            "host_speed": untraced["host_speed"],
            "config": untraced["config"],
            "attempted": untraced["attempted"] + traced["attempted"],
            "failed": untraced["failed"] + traced["failed"],
            "failures": untraced["failures"] + traced["failures"],
            "end_to_end": untraced["metrics"],
            "per_layer": traced["metrics"],
            "exact": {**untraced["exact"], **traced["exact"]},
        }
    suite["failed"] = sum(w["failed"] for w in suite["workloads"].values())
    return suite


def main(argv: Optional[Sequence[str]] = None) -> int:
    benchmark = load_benchmark_json()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the suite report here (JSON)")
    parser.add_argument("--trace-out", help="write the spans here (Chrome trace)")
    parser.add_argument("--smoke", action="store_true",
                        help="1 pass over 1/20 of the ops; not comparable")
    args = parser.parse_args(argv)
    if args.workload:
        return run_one(args, benchmark)
    suite = run_suite(args.seed, args.seconds, args.smoke, args.trace_out)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(suite, handle, indent=2, sort_keys=True)
    print(f"suite: {suite['failed']} failed op(s)")
    return 0 if suite["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
