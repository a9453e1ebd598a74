"""Tests of the benchmark itself.

Run with ``python -m pytest perfbench -q``; tier-1 (``testpaths =
["tests"]``) does not collect this file.  Everything that touches a
database uses the tiny trees of ``stack.TINY_SPECS`` under ``--smoke``
sizing, so the whole file runs in a few seconds.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

from perfbench import compare, spans, stack, workloads
from perfbench.run import load_benchmark_json, measure, trace
from perfbench.spans import ACTION, END, LAYER, NAME, PARENT, START
from repro.pdm.generator import generate_product

PDM_CLASS_TABLES = {
    "nav_flood": workloads.NAV_FLOOD_CLASSES,
    "recursive_expand": workloads.RECURSIVE_EXPAND_CLASSES,
    "txn_mix": workloads.TXN_MIX_CLASSES,
}


def truth_of(name: str, tiny: bool = False) -> workloads.GroundTruth:
    spec = (stack.TINY_SPECS if tiny else stack.SPECS)[name]
    product = generate_product(spec.tree, seed=stack.PRODUCT_SEED)
    if spec.flavour == "report":
        stack.seed_report_attributes(product)
    return workloads.GroundTruth.of(product)


# -- op lists -----------------------------------------------------------------


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_op_list_is_a_function_of_the_seed(name):
    truth = truth_of(name, tiny=True)
    first = workloads.make_ops(name, truth, seed=7, smoke=True)
    again = workloads.make_ops(name, truth, seed=7, smoke=True)
    other = workloads.make_ops(name, truth, seed=8, smoke=True)
    assert first == again
    assert first != other
    # Another seed picks other targets, never another mix of work.
    assert Counter(op.kind for op in first) == Counter(op.kind for op in other)


@pytest.mark.parametrize("name", sorted(PDM_CLASS_TABLES))
def test_full_size_products_fill_every_class_exactly(name):
    """No class of the real workloads falls back to a nearest size, and
    each offers the seed a choice."""
    truth = truth_of(name)
    for cls in PDM_CLASS_TABLES[name]:
        members = workloads.class_members(truth, cls)
        if cls.kind == "query":
            continue
        assert len(members) >= 2, cls
        if cls.kind not in ("where_used",) and cls.level is None:
            assert all(cls.lo <= truth.size[o] <= cls.hi for o in members), cls
            if cls.height is not None:
                assert all(truth.height[o] == cls.height for o in members), cls


def test_op_counts_match_the_documented_sizes():
    sizes = {name: sum(c.count for c in table) for name, table in PDM_CLASS_TABLES.items()}
    assert sizes == {"nav_flood": 1000, "recursive_expand": 240, "txn_mix": 300}
    assert sum(count for __, count in workloads.REPORT_FAMILIES) == 240


def test_report_texts_are_unique():
    ops = workloads.report_ops(truth_of("report_scan", tiny=True), seed=3, smoke=True)
    assert len({op.target for op in ops}) == len(ops)


# -- span arithmetic ----------------------------------------------------------


def span(name, layer, start, end, parent, action=0):
    record = [None] * 6
    record[NAME], record[LAYER], record[START] = name, layer, start
    record[END], record[PARENT], record[ACTION] = end, parent, action
    return record


def hand_built_tree():
    """harness 0..10 > pdm 1..9 > two client calls 2..4 and 5..8, the
    second holding a server span 6..7."""
    return [
        span("op", "harness", 0.0, 10.0, -1),
        span("PDMClient.x", "pdm", 1.0, 9.0, 0),
        span("RemoteConnection.execute", "server.client", 2.0, 4.0, 1),
        span("RemoteConnection.execute", "server.client", 5.0, 8.0, 1),
        span("DatabaseServer.handle", "server.server", 6.0, 7.0, 3),
    ]


def test_self_time_is_duration_minus_children():
    tree = hand_built_tree()
    assert spans.self_times(tree) == [2.0, 3.0, 2.0, 2.0, 1.0]
    totals = spans.layer_totals(tree)
    assert totals["harness"] == 2.0
    assert totals["pdm"] == 3.0
    assert totals["server.client"] == 4.0
    assert totals["server.server"] == 1.0
    assert totals["sqldb"] == 0.0
    assert sum(totals.values()) == 10.0
    assert spans.named_self_total(tree, "RemoteConnection.execute") == 4.0


def test_percentile_interpolates():
    assert spans.percentile([4.0, 1.0, 3.0, 2.0], 0.5) == 2.5
    assert spans.percentile([1.0, 2.0, 3.0], 0.0) == 1.0
    assert spans.percentile([1.0, 2.0, 3.0], 1.0) == 3.0
    assert spans.percentile(range(101), 0.95) == 95.0
    with pytest.raises(ValueError):
        spans.percentile([], 0.5)


def test_ledger_closes_or_says_why():
    tree = hand_built_tree()
    assert spans.check_ledger(tree, [10.0]) is None
    assert spans.check_ledger(tree, [10.1]) is None  # 1 % off: inside 2 %
    assert "miss the action wall" in spans.check_ledger(tree, [11.0])
    tree.append(span("LockManager.acquire", "concurrency", 6.2, 0.0, 4))
    assert "never closed" in spans.check_ledger(tree, [10.0])


def test_tracer_records_nesting_and_survives_exceptions():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))

    class Layer:
        def outer(self):
            return self.inner()

        def inner(self):
            raise KeyError("boom")

    layer = Layer()
    tracer.wrap(layer, "outer", "pdm")
    tracer.wrap(layer, "inner", "sqldb")
    with pytest.raises(KeyError):
        layer.outer()
    assert [s[PARENT] for s in tracer.spans] == [-1, 0]
    assert all(s[END] > s[START] for s in tracer.spans)
    tracer.unwrap_all()
    assert "outer" not in vars(layer)
    assert len(tracer.chrome_trace()["traceEvents"]) == 2


# -- the oracle, end to end on tiny trees ---------------------------------------


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_run_is_correct_and_produces_the_declared_metrics(name):
    benchmark = load_benchmark_json()
    untraced = measure(name, seed=1, seconds=0, smoke=True, tiny=True)
    assert untraced["failed"] == 0, untraced["failures"]
    assert set(untraced["metrics"]) == {m["name"] for m in benchmark["end_to_end"]}
    assert all(value > 0 for value in untraced["metrics"].values())
    traced = trace(name, seed=1, smoke=True, tiny=True)
    assert traced["failed"] == 0, traced["failures"]
    assert set(traced["metrics"]) == {m["name"] for m in benchmark["per_layer"]}
    metrics = traced["metrics"]
    assert metrics["obs.ledger_gap_ratio"] < 0.02
    durable = name == "txn_mix"
    assert (metrics["recovery.wal_ms"] > 0) == durable
    assert (metrics["concurrency.lock_ms"] > 0) == durable
    assert (metrics["recovery.replayed_records"] > 0) == durable


def test_same_seed_repeats_the_exact_values():
    first = measure("txn_mix", seed=5, seconds=0, smoke=True, tiny=True)
    again = measure("txn_mix", seed=5, seconds=0, smoke=True, tiny=True)
    assert first["exact"] == again["exact"]
    assert trace("nav_flood", 5, True, True)["exact"] == trace("nav_flood", 5, True, True)["exact"]


def test_oracle_rejects_a_wrong_result():
    built = stack.build_stack("recursive_expand", tiny=True)
    truth = workloads.GroundTruth.of(built.product)
    ctx = workloads.Context(built, truth)
    op = next(
        op for op in workloads.make_ops("recursive_expand", truth, 0, smoke=True)
        if op.kind == "mle_recursive" and truth.size[op.target] > 1
    )
    result = workloads.EXECUTORS[op.kind](ctx, op, 1)
    assert workloads.check_result(ctx, op, result, None) is None
    # The four strategies agree with the ground truth, hence with each other.
    for kind in ("mle_late", "mle_early", "mle_batched"):
        twin = workloads.Op(kind, op.target, op.attrs)
        other = workloads.EXECUTORS[kind](ctx, twin, 1)
        assert other.tree.obids() == result.tree.obids()
    result.tree.children.pop()
    assert "differs from ground truth" in workloads.check_result(ctx, op, result, None)


def test_sqlite_oracle_catches_a_changed_row():
    truth = truth_of("report_scan", tiny=True)
    oracle = workloads.SqliteOracle(truth.product)
    rows = oracle.rows("SELECT obid, weight FROM comp")
    assert workloads._rows_equal(rows, list(reversed(rows)))
    tampered = [(rows[0][0], rows[0][1] + 1.0)] + rows[1:]
    assert not workloads._rows_equal(rows, tampered)
    oracle.close()


# -- stack factory ----------------------------------------------------------------


def test_factory_passes_only_switches_the_engine_still_has(monkeypatch):
    monkeypatch.setitem(stack.WANTED_DB_KWARGS, "a_switch_someone_deleted", True)
    assert "a_switch_someone_deleted" not in stack.accepted_db_kwargs()
    built = stack.build_stack("txn_mix", tiny=True)
    assert built.config["db_kwargs"] == stack.accepted_db_kwargs()
    assert built.durability is not None and built.locks is not None


# -- BENCHMARK.json and compare ---------------------------------------------------


def test_benchmark_json_matches_the_code():
    benchmark = load_benchmark_json()
    assert set(benchmark) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert [w["name"] for w in benchmark["workloads"]] == list(workloads.WORKLOADS)
    assert benchmark["paths"] == ["perfbench"]
    names = [m["name"] for m in benchmark["end_to_end"] + benchmark["per_layer"]]
    assert len(names) == len(set(names))
    assert "setup_s" in names
    assert all(0 < m["bound"] <= 0.25 for m in benchmark["end_to_end"])


def test_verdicts():
    assert compare.verdict([10.0], [10.5], "lower", 0.10)["verdict"] == "same"
    assert compare.verdict([10.0], [11.5], "lower", 0.10)["verdict"] == "regressed"
    assert compare.verdict([10.0], [8.0], "lower", 0.10)["verdict"] == "improved"
    assert compare.verdict([10.0], [8.0], "higher", 0.10)["verdict"] == "regressed"
    noisy = [8.0, 9.0, 10.0, 12.0, 14.0]
    assert compare.verdict(noisy, [10.0], "lower", 0.10)["verdict"] == "unresolved"
    row = compare.verdict([4.0], [5.0], "lower", 0.10)
    assert row["ratio"] == 1.25 and row["median_a"] == 4.0


def test_compare_refuses_smoke_reports(tmp_path):
    path = tmp_path / "smoke.json"
    path.write_text(json.dumps({"schema": "perfbench/v1", "smoke": True}))
    with pytest.raises(SystemExit, match="smoke"):
        compare.load_runs(str(path))


def test_compare_diffs_exact_values_for_the_same_seed():
    def suite(seed, trips):
        return {
            "seed": seed,
            "workloads": {
                "nav_flood": {
                    "end_to_end": {m["name"]: 1.0 for m in load_benchmark_json()["end_to_end"]},
                    "exact": {"server.client.round_trips_per_action": trips},
                }
            },
        }

    benchmark = load_benchmark_json()
    assert compare.compare([suite(0, 5.0)], [suite(0, 5.0)], benchmark)["exact"] == []
    moved = compare.compare([suite(0, 5.0)], [suite(0, 4.0)], benchmark)["exact"]
    assert len(moved) == 1 and "round_trips_per_action" in moved[0]
    assert compare.compare([suite(0, 5.0)], [suite(1, 4.0)], benchmark)["exact"] == []
