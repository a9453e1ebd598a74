"""Resilient multi-level expand: resume of lost round trips, graceful
fallback — all through the one ``multi_level_expand``."""

import pytest

from repro.bench.workload import build_scenario
from repro.errors import CircuitOpenError, ExpandInterrupted, TimeoutError
from repro.model.parameters import TreeParameters
from repro.network.faults import (
    DROP_5,
    JUMBO_TRUNCATING_WAN,
    OUTAGE_WAN,
    FaultProfile,
    RetryPolicy,
)
from repro.network.profiles import WAN_512
from repro.obs import TraceRecorder
from repro.pdm.operations import MAX_RESUMES, ExpandStrategy

TREE = TreeParameters(depth=4, branching=3, visibility=0.6)

ALL_STRATEGIES = (
    ExpandStrategy.NAVIGATIONAL_LATE,
    ExpandStrategy.NAVIGATIONAL_EARLY,
    ExpandStrategy.RECURSIVE_EARLY,
    ExpandStrategy.EXPAND_BATCHED,
)

NAVIGATIONAL = (
    ExpandStrategy.NAVIGATIONAL_LATE,
    ExpandStrategy.NAVIGATIONAL_EARLY,
)


@pytest.fixture(scope="module")
def baseline():
    """One zero-fault scenario plus the reference tree per strategy."""
    scenario = build_scenario(TREE, WAN_512, seed=42)
    root = scenario.product.root_obid
    root_attrs = scenario.product.root_attributes()
    trees = {
        strategy: scenario.client.multi_level_expand(
            root, strategy, root_attrs=root_attrs
        ).tree.canonical_bytes()
        for strategy in ALL_STRATEGIES
    }
    return scenario, trees


def faulty_scenario(baseline, profile, fault_seed, recorder=None, **policy_kwargs):
    scenario, __ = baseline
    policy_kwargs.setdefault("seed", fault_seed)
    return build_scenario(
        TREE,
        WAN_512,
        seed=42,
        product=scenario.product,
        fault_profile=profile,
        fault_seed=fault_seed,
        retry_policy=RetryPolicy(**policy_kwargs),
        recorder=recorder,
    )


def expand_args(scenario):
    return scenario.product.root_obid, scenario.product.root_attributes()


class TestConvergenceUnderLoss:
    @pytest.mark.parametrize(
        "strategy", ALL_STRATEGIES, ids=lambda s: s.name.lower()
    )
    def test_drop5_tree_byte_identical_to_own_zero_fault_run(
        self, baseline, strategy
    ):
        """5% loss with retries must be invisible in the result: the
        visible tree is byte-for-byte the zero-fault tree of the same
        strategy, only the counters show the WAN misbehaved."""
        __, reference = baseline
        injected = 0
        # Seeds chosen so even the 2-message recursive exchange sees at
        # least one drop across the set (6 drops a response, 31 a request).
        for fault_seed in (6, 9, 31):
            scenario = faulty_scenario(baseline, DROP_5, fault_seed)
            root, root_attrs = expand_args(scenario)
            result = scenario.client.multi_level_expand(
                root, strategy, root_attrs=root_attrs
            )
            assert result.tree.canonical_bytes() == reference[strategy]
            injected += scenario.link.stats.drops
            assert scenario.link.stats.retries >= scenario.link.stats.drops
        assert injected > 0  # at least one seed actually dropped something

    def test_retry_counters_surface_in_traffic_stats(self, baseline):
        scenario = faulty_scenario(baseline, DROP_5, fault_seed=6)
        root, root_attrs = expand_args(scenario)
        result = scenario.client.multi_level_expand(
            root, ExpandStrategy.EXPAND_BATCHED, root_attrs=root_attrs
        )
        assert scenario.link.stats.drops > 0
        stats = result.traffic
        assert stats.timeouts > 0
        assert stats.retries > 0
        assert stats.backoff_seconds > 0
        assert stats.total_seconds > 0


class TestCheckpointResume:
    """A hard outage from 1.2 s to 120 s outlasts the connection's two
    attempts per round trip many times over: only resuming the lost round
    trip after each breaker cool-down gets an expand through it."""

    def outage_scenario(self, baseline, end=120.0, recorder=None):
        profile = FaultProfile(name="hard-outage", outages=((1.2, end),))
        return faulty_scenario(
            baseline,
            profile,
            fault_seed=5,
            recorder=recorder,
            max_attempts=2,
            timeout_s=1.0,
        )

    def test_resilient_expand_rides_out_the_outage_by_itself(self, baseline):
        """The expand waits out the cool-downs on the simulated clock and
        converges unaided."""
        __, reference = baseline
        scenario = self.outage_scenario(baseline)
        root, root_attrs = expand_args(scenario)
        result = scenario.client.multi_level_expand(
            root, ExpandStrategy.EXPAND_BATCHED, root_attrs=root_attrs
        )
        assert result.tree.canonical_bytes() == reference[
            ExpandStrategy.EXPAND_BATCHED
        ]
        assert scenario.client.statistics["expand_resumes"] > 0
        assert scenario.link.clock.now > 120.0  # it did live through it

    def test_resume_refetches_only_the_lost_level(self, baseline):
        """Levels completed before the outage must not travel again: the
        server runs exactly one batch per level, and each depth has one
        span that completed (the lost attempts' spans carry the error)."""
        recorder = TraceRecorder()
        scenario = self.outage_scenario(baseline, recorder=recorder)
        root, root_attrs = expand_args(scenario)
        scenario.client.multi_level_expand(
            root, ExpandStrategy.EXPAND_BATCHED, root_attrs=root_attrs
        )
        assert scenario.client.statistics["expand_resumes"] > 0
        assert scenario.server.statistics["batches"] == TREE.depth
        levels = [
            span
            for span in recorder.find_root("pdm.multi_level_expand").children
            if span.name == "pdm.expand_level"
        ]
        completed = [span for span in levels if "error" not in span.meta]
        assert sorted(span.meta["depth"] for span in completed) == list(
            range(TREE.depth)
        )
        lost = [span for span in levels if "error" in span.meta]
        assert len(lost) == scenario.client.statistics["expand_resumes"]
        assert {span.meta["error"] for span in lost} <= {
            "TimeoutError",
            "CircuitOpenError",
        }

    @pytest.mark.parametrize("strategy", NAVIGATIONAL, ids=lambda s: s.name.lower())
    def test_navigational_expand_rides_out_the_outage(self, baseline, strategy):
        """One child fetch is the unit of loss: the expand resumes it
        rather than failing with the connection's TimeoutError."""
        __, reference = baseline
        scenario = self.outage_scenario(baseline)
        root, root_attrs = expand_args(scenario)
        result = scenario.client.multi_level_expand(
            root, strategy, root_attrs=root_attrs
        )
        assert result.tree.canonical_bytes() == reference[strategy]
        assert scenario.client.statistics["expand_resumes"] > 0

    def test_outage_past_the_resume_budget_is_typed(self, baseline):
        """An outage longer than MAX_RESUMES cool-downs ends in a typed
        ExpandInterrupted naming the lost round trip — never a hang."""
        scenario = self.outage_scenario(baseline, end=100_000.0)
        root, root_attrs = expand_args(scenario)
        with pytest.raises(ExpandInterrupted, match="frontier batch") as info:
            scenario.client.multi_level_expand(
                root, ExpandStrategy.EXPAND_BATCHED, root_attrs=root_attrs
            )
        assert f"after {MAX_RESUMES} resumes" in str(info.value)
        assert isinstance(info.value.__cause__, (TimeoutError, CircuitOpenError))
        assert scenario.client.statistics["expand_resumes"] == MAX_RESUMES

    @pytest.mark.parametrize(
        "strategy",
        NAVIGATIONAL + (ExpandStrategy.EXPAND_BATCHED,),
        ids=lambda s: s.name.lower(),
    )
    def test_outage_wan_preset_forces_resumes_on_this_tree(
        self, baseline, strategy
    ):
        """The preset's window opens inside every expand of this tree (the
        ``run_all.py --scale small`` one) but the recursive one."""
        __, reference = baseline
        scenario = faulty_scenario(baseline, OUTAGE_WAN, fault_seed=1)
        root, root_attrs = expand_args(scenario)
        result = scenario.client.multi_level_expand(
            root, strategy, root_attrs=root_attrs
        )
        assert result.tree.canonical_bytes() == reference[strategy]
        assert scenario.client.statistics["expand_resumes"] > 0


class TestRecursiveFallback:
    def test_truncating_middlebox_forces_batched_fallback(self, baseline):
        """The recursive mega-response can never arrive intact, so the
        client degrades to the per-level batches — same visible tree (in
        the batched strategy's shape), smaller unit of loss."""
        __, reference = baseline
        scenario = faulty_scenario(
            baseline, JUMBO_TRUNCATING_WAN, fault_seed=3, max_attempts=3
        )
        root, root_attrs = expand_args(scenario)
        result = scenario.client.multi_level_expand(
            root, ExpandStrategy.RECURSIVE_EARLY, root_attrs=root_attrs
        )
        assert scenario.client.statistics["recursive_fallbacks"] == 1
        assert result.tree.canonical_bytes() == reference[
            ExpandStrategy.EXPAND_BATCHED
        ]

    def test_healthy_link_never_falls_back(self, baseline):
        __, reference = baseline
        scenario = faulty_scenario(
            baseline, FaultProfile(name="clean"), fault_seed=0
        )
        root, root_attrs = expand_args(scenario)
        result = scenario.client.multi_level_expand(
            root, ExpandStrategy.RECURSIVE_EARLY, root_attrs=root_attrs
        )
        assert scenario.client.statistics["recursive_fallbacks"] == 0
        assert result.tree.canonical_bytes() == reference[
            ExpandStrategy.RECURSIVE_EARLY
        ]


class TestCanonicalBytes:
    def test_same_tree_same_bytes(self, baseline):
        scenario, __ = baseline
        root, root_attrs = (
            scenario.product.root_obid,
            scenario.product.root_attributes(),
        )
        first = scenario.client.multi_level_expand(
            root, ExpandStrategy.EXPAND_BATCHED, root_attrs=root_attrs
        )
        second = scenario.client.multi_level_expand(
            root, ExpandStrategy.EXPAND_BATCHED, root_attrs=root_attrs
        )
        assert first.tree.canonical_bytes() == second.tree.canonical_bytes()

    def test_attribute_change_changes_bytes(self, baseline):
        scenario, __ = baseline
        root, root_attrs = (
            scenario.product.root_obid,
            scenario.product.root_attributes(),
        )
        result = scenario.client.multi_level_expand(
            root, ExpandStrategy.EXPAND_BATCHED, root_attrs=root_attrs
        )
        reference = result.tree.canonical_bytes()
        result.tree.children[0].attrs["name"] = "tampered"
        assert result.tree.canonical_bytes() != reference
