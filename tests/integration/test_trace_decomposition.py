"""The trace layer's two contracts, end to end on a faulty WAN.

1. **Exactness** — over a traced batched multi-level expand, the root
   span's component ledger (latency / transfer / backoff / spike / ...)
   sums to the root span's duration exactly, and that duration equals
   the ``ActionResult.seconds`` the untraced code path reports.
2. **Transparency** — attaching a recorder changes *nothing*: the same
   scenario and fault seed produce bit-identical seconds and a
   canonical-bytes-identical tree with tracing on and off.

The traced mean across fault seeds is also checked against the
retry-aware analytic model within the repo's standard tolerance — the
same anchoring as ``benchmarks/bench_ablation_faults.py``.
"""

import os

import pytest

from repro.bench.workload import build_scenario
from repro.model.parameters import NetworkParameters, TreeParameters
from repro.model.response_time import Action, Strategy, predict_with_faults
from repro.network.faults import FLAKY_WAN, RetryPolicy
from repro.network.profiles import WAN_512
from repro.obs import TraceRecorder
from repro.pdm.operations import ExpandStrategy

TREE = TreeParameters(depth=4, branching=3, visibility=0.6)
NETWORK = NetworkParameters(latency_s=0.15, dtr_kbit_s=512)
SEED = 42
RETRY_POLICY = RetryPolicy(timeout_s=2.0, jitter_fraction=0.1)
#: The batched strategy makes only ~4 round trips per expand, so a
#: single 2 s timeout is a large per-seed perturbation — the mean needs
#: many fault seeds to tighten (the ablation bench instead aggregates
#: across all four strategies).  Each run costs ~20 ms of wall clock.
FAULT_SEEDS = tuple(
    range(1, 41 if os.environ.get("REPRO_BENCH_SCALE") == "small" else 201)
)
TOLERANCE = 0.5 if os.environ.get("REPRO_BENCH_SCALE") == "small" else 0.10

ROOT_SPAN = "pdm.multi_level_expand"


@pytest.fixture(scope="module")
def product():
    return build_scenario(TREE, WAN_512, seed=SEED).product


def run_traced(product, fault_seed, recorder):
    scenario = build_scenario(
        TREE,
        WAN_512,
        seed=SEED,
        product=product,
        fault_profile=FLAKY_WAN,
        fault_seed=fault_seed,
        retry_policy=RETRY_POLICY,
        recorder=recorder,
    )
    result = scenario.client.multi_level_expand(
        scenario.product.root_obid,
        ExpandStrategy.EXPAND_BATCHED,
        root_attrs=scenario.product.root_attributes(),
    )
    return scenario, result


class TestExactDecomposition:
    @pytest.mark.parametrize("fault_seed", FAULT_SEEDS[:4])
    def test_components_sum_to_root_duration(self, product, fault_seed):
        recorder = TraceRecorder()
        __, result = run_traced(product, fault_seed, recorder)
        root = recorder.find_root(ROOT_SPAN)
        assert root is not None
        totals = root.total_components()
        assert sum(totals.values()) == pytest.approx(
            root.duration, abs=1e-9
        )
        assert root.duration == pytest.approx(result.seconds, abs=1e-9)

    def test_faulty_run_has_fault_components(self, product):
        recorder = TraceRecorder()
        run_traced(product, FAULT_SEEDS[0], recorder)
        totals = recorder.find_root(ROOT_SPAN).total_components()
        assert totals["latency"] > 0
        assert totals["transfer"] > 0
        # flaky-wan spikes with p=0.10; seed 1 over dozens of round
        # trips reliably hits at least one.
        assert any(
            key in totals for key in ("spike", "backoff", "timeout")
        )

    def test_span_tree_shape(self, product):
        recorder = TraceRecorder()
        run_traced(product, FAULT_SEEDS[0], recorder)
        root = recorder.find_root(ROOT_SPAN)
        levels = [c for c in root.children if c.name == "pdm.expand_level"]
        assert len(levels) == TREE.depth  # one span per expanded level
        assert all(
            any(g.name == "rpc.round_trip" for g in level.children)
            for level in levels
        )


class TestTransparency:
    def test_tracing_off_is_bit_identical(self, product):
        fault_seed = FAULT_SEEDS[0]
        __, traced = run_traced(product, fault_seed, TraceRecorder())
        __, untraced = run_traced(product, fault_seed, None)
        assert traced.seconds == untraced.seconds  # exact, not approx
        assert traced.round_trips == untraced.round_trips
        assert (
            traced.tree.canonical_bytes() == untraced.tree.canonical_bytes()
        )


class TestModelAgreement:
    def test_traced_mean_within_tolerance_of_model(self, product):
        zero_fault = build_scenario(TREE, WAN_512, seed=SEED, product=product)
        reference = zero_fault.client.multi_level_expand(
            zero_fault.product.root_obid,
            ExpandStrategy.EXPAND_BATCHED,
            root_attrs=zero_fault.product.root_attributes(),
        )
        prediction = predict_with_faults(
            Action.MLE,
            Strategy.BATCHED,
            TREE,
            NETWORK,
            FLAKY_WAN,
            RETRY_POLICY,
            query_packets=2,
        )
        overhead_per_round_trip = (
            prediction.retry_seconds
            + prediction.backoff_seconds
            + prediction.spike_seconds
        ) / (prediction.base.communications / 2.0)
        predicted = (
            reference.seconds
            + overhead_per_round_trip * reference.round_trips
        )
        measured = []
        for fault_seed in FAULT_SEEDS:
            recorder = TraceRecorder()
            __, result = run_traced(product, fault_seed, recorder)
            root = recorder.find_root(ROOT_SPAN)
            assert sum(root.total_components().values()) == pytest.approx(
                root.duration, abs=1e-9
            )
            measured.append(result.seconds)
        mean = sum(measured) / len(measured)
        assert mean == pytest.approx(predicted, rel=TOLERANCE)
