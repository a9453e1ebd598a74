"""Ablation — the four expand strategies under chaos on a faulty WAN.

A lossy link changes none of the *results* — with retries, sequence
numbers and the server's replay cache every strategy must return a tree
byte-identical to its own zero-fault run — it only changes the *price*.
This bench measures that price per strategy under the stochastic chaos
presets and checks it against the retry-aware analytic model
(:func:`repro.model.response_time.predict_with_faults`): the simulated
mean over the fault seeds must stay within 10% of the prediction.

The strategies' exposure differs by orders of magnitude: the
navigational paths roll the loss dice per visible node, the batched
strategy per level, the recursive strategy twice per expand — the same
asymmetry the paper found for latency, replayed for loss.
"""

import os

import pytest

from repro.bench.measure import EXPAND_STRATEGIES
from repro.bench.workload import build_scenario
from repro.model.parameters import NetworkParameters, TreeParameters
from repro.model.response_time import (
    Action,
    Strategy,
    predict_with_faults,
)
from repro.network.faults import STOCHASTIC_PRESETS, RetryPolicy
from repro.network.profiles import WAN_512

TREE = TreeParameters(depth=4, branching=3, visibility=0.6)
NETWORK = NetworkParameters(latency_s=0.15, dtr_kbit_s=512)
SEED = 42

RETRY_POLICY = RetryPolicy(timeout_s=2.0, jitter_fraction=0.1)

#: Per-strategy query packets for the analytic model (the batched level
#: batch ships one statement per node type).
QUERY_PACKETS = {Strategy.BATCHED: 2}

FAULT_SEEDS = tuple(
    range(1, 13 if os.environ.get("REPRO_BENCH_SCALE") == "small" else 41)
)


def run_expand(scenario, strategy):
    root = scenario.product.root_obid
    root_attrs = scenario.product.root_attributes()
    return scenario.client.multi_level_expand(
        root, EXPAND_STRATEGIES[strategy], root_attrs=root_attrs
    )


@pytest.fixture(scope="module")
def baseline():
    """Zero-fault scenario: reference bytes and seconds per strategy."""
    scenario = build_scenario(TREE, WAN_512, seed=SEED)
    reference = {}
    for strategy in EXPAND_STRATEGIES:
        result = run_expand(scenario, strategy)
        reference[strategy] = (
            result.tree.canonical_bytes(),
            result.seconds,
            result.round_trips,
        )
    return scenario, reference


@pytest.fixture(scope="module")
def chaos_runs(baseline):
    """Every (preset, strategy) across the fault seeds."""
    base_scenario, reference = baseline
    runs = {}
    for preset in STOCHASTIC_PRESETS:
        for strategy in EXPAND_STRATEGIES:
            seconds, identical = [], 0
            counters = {"drops": 0, "retries": 0, "timeouts": 0}
            for fault_seed in FAULT_SEEDS:
                scenario = build_scenario(
                    TREE,
                    WAN_512,
                    seed=SEED,
                    product=base_scenario.product,
                    fault_profile=preset,
                    fault_seed=fault_seed,
                    retry_policy=RETRY_POLICY,
                )
                result = run_expand(scenario, strategy)
                seconds.append(result.seconds)
                if result.tree.canonical_bytes() == reference[strategy][0]:
                    identical += 1
                stats = scenario.link.stats
                counters["drops"] += stats.drops
                counters["retries"] += stats.retries
                counters["timeouts"] += stats.timeouts
            runs[(preset.name, strategy)] = {
                "mean_seconds": sum(seconds) / len(seconds),
                "identical": identical,
                "counters": counters,
            }
    return runs


def predicted_seconds(preset, strategy, reference_entry):
    """Retry-aware prediction anchored on the measured zero-fault run.

    The base term uses the *simulated* zero-fault seconds and the
    per-round-trip fault overhead is scaled by the *simulated* round-trip
    count (the analytic base carries its own tree-shape error — expected
    vs realised σ-Bernoulli tree — which is not what this bench
    evaluates); the model contributes the expected retry, backoff and
    spike overhead per round trip.
    """
    __, zero_fault_seconds, zero_fault_round_trips = reference_entry
    prediction = predict_with_faults(
        Action.MLE,
        strategy,
        TREE,
        NETWORK,
        preset,
        RETRY_POLICY,
        query_packets=QUERY_PACKETS.get(strategy, 1),
    )
    model_round_trips = prediction.base.communications / 2.0
    overhead_per_round_trip = (
        prediction.retry_seconds
        + prediction.backoff_seconds
        + prediction.spike_seconds
    ) / model_round_trips
    return (
        zero_fault_seconds
        + overhead_per_round_trip * zero_fault_round_trips
    )


def test_chaos_report(benchmark, baseline, chaos_runs, capsys):
    __, reference = baseline

    def build_report():
        lines = [
            f"ablation: expand strategies under chaos ({TREE.label}; "
            f"{NETWORK.label}; {len(FAULT_SEEDS)} fault seeds)",
            f"{'preset':<12s} {'strategy':<12s} {'sim s':>8s} "
            f"{'model s':>8s} {'drops':>6s} {'retry':>6s} {'ident':>6s}",
        ]
        for (preset_name, strategy), run in chaos_runs.items():
            preset = next(
                p for p in STOCHASTIC_PRESETS if p.name == preset_name
            )
            model = predicted_seconds(preset, strategy, reference[strategy])
            lines.append(
                f"{preset_name:<12s} {strategy.value:<12s} "
                f"{run['mean_seconds']:>8.3f} {model:>8.3f} "
                f"{run['counters']['drops']:>6d} "
                f"{run['counters']['retries']:>6d} "
                f"{run['identical']:>6d}"
            )
        return "\n".join(lines)

    text = benchmark(build_report)
    with capsys.disabled():
        print()
        print(text)
    assert "drop-5" in text


def test_every_run_byte_identical_to_zero_fault(benchmark, chaos_runs):
    """The headline property: chaos is invisible in the result bytes."""

    def identical_fraction():
        total = identical = 0
        for run in chaos_runs.values():
            total += len(FAULT_SEEDS)
            identical += run["identical"]
        return identical, total

    identical, total = benchmark(identical_fraction)
    assert identical == total


def test_chaos_did_fire(benchmark, chaos_runs):
    """The presets genuinely injected faults and the client retried."""

    def totals():
        drops = sum(
            run["counters"]["drops"] for run in chaos_runs.values()
        )
        retries = sum(
            run["counters"]["retries"] for run in chaos_runs.values()
        )
        return drops, retries

    drops, retries = benchmark(totals)
    assert drops > 0
    assert retries >= drops


def test_model_matches_simulated_mean(benchmark, baseline, chaos_runs):
    """Retry-aware model vs simulated mean, per preset (aggregated over
    the four strategies so each comparison spans hundreds of messages):
    within 10% at paper scale; the small smoke run has too few fault
    seeds for tight means and only checks the order of magnitude."""
    __, reference = baseline
    tolerance = (
        0.5 if os.environ.get("REPRO_BENCH_SCALE") == "small" else 0.10
    )

    def per_preset_error():
        errors = {}
        for preset in STOCHASTIC_PRESETS:
            simulated = sum(
                chaos_runs[(preset.name, strategy)]["mean_seconds"]
                for strategy in EXPAND_STRATEGIES
            )
            modeled = sum(
                predicted_seconds(preset, strategy, reference[strategy])
                for strategy in EXPAND_STRATEGIES
            )
            errors[preset.name] = abs(simulated - modeled) / modeled
        return errors

    errors = benchmark(per_preset_error)
    for preset_name, error in errors.items():
        assert error < tolerance, f"{preset_name}: {error:.1%}"


def test_loss_exposure_ordering(benchmark, chaos_runs):
    """Fewer round trips, fewer dice rolls: the recursive strategy eats
    the fewest retries, the navigational baseline the most."""

    def retries_by_strategy():
        totals = {}
        for (preset_name, strategy), run in chaos_runs.items():
            totals[strategy] = (
                totals.get(strategy, 0) + run["counters"]["retries"]
            )
        return totals

    totals = benchmark(retries_by_strategy)
    assert totals[Strategy.LATE] > totals[Strategy.RECURSIVE]
    assert totals[Strategy.EARLY] > totals[Strategy.RECURSIVE]
