"""The crash-chaos simulator: determinism and durability invariants."""

import copy

import pytest

from repro.errors import DurabilityError
from repro.recovery import (
    CRASH_FAILURES,
    CrashChaosSim,
    CrashConfig,
    report_json,
    run_crash_chaos,
    run_crash_sweep,
    sweep_profiles,
    violations,
)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            CrashConfig(clients=0)
        with pytest.raises(ValueError):
            CrashConfig(failure="meteor")
        with pytest.raises(ValueError):
            CrashConfig(crash_at_append=0)

    def test_profile_requires_a_crash_point(self):
        with pytest.raises(ValueError):
            CrashConfig().profile()
        profile = CrashConfig(crash_at_append=3, failure="torn").profile()
        assert profile.crash_at_append == 3
        assert profile.torn


class TestDeterminism:
    def test_same_seed_same_bytes(self):
        config = CrashConfig(crash_at_append=6, failure="corrupt", seed=9)
        first = CrashChaosSim(config).run()
        second = CrashChaosSim(config).run()
        assert report_json(first) == report_json(second)

    def test_different_seeds_differ(self):
        reports = [
            CrashChaosSim(
                CrashConfig(crash_at_append=6, failure="clean", seed=seed)
            ).run()["schedule"]["hash"]
            for seed in (1, 2)
        ]
        assert reports[0] != reports[1]


class TestInvariants:
    @pytest.mark.parametrize("failure", CRASH_FAILURES)
    def test_no_lost_no_resurrected(self, failure):
        report = run_crash_chaos(
            CrashConfig(crash_at_append=8, failure=failure, seed=4)
        )
        assert report["restarts"] >= 1
        # No lost, no resurrected, recovery a fixpoint, crash fired.
        assert violations(report) == []
        # Everything every client acked is on disk, and the counters add
        # up to exactly two increments per applied transaction.
        assert report["acked_txns"] <= report["applied_txns"]
        assert report["counter_sum"] == 2 * report["applied_txns"]

    def test_all_clients_finish_their_quota(self):
        config = CrashConfig(
            clients=2, txns_per_client=4, crash_at_append=5, seed=11
        )
        report = run_crash_chaos(config)
        assert report["acked_txns"] == 8

    def test_no_crash_run_is_quiet(self):
        report = run_crash_chaos(CrashConfig(seed=2))
        assert not report["crash"]["occurred"]
        assert report["restarts"] == 0
        assert report["counts"]["crash_observations"] == 0
        assert violations(report) == []

    def test_verdict_names_each_broken_invariant(self):
        report = run_crash_chaos(CrashConfig(crash_at_append=5, seed=3))
        assert violations(report) == []
        for path, value, word in (
            (("lost_committed",), [1000001], "lost"),
            (("resurrected",), 2, "resurrected"),
            (("final_recovery_fixpoint",), False, "fixpoint"),
            (("crash", "occurred"), False, "never fired"),
        ):
            broken = copy.deepcopy(report)
            target = broken
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
            (message,) = violations(broken)
            assert word in message


class TestSweep:
    def test_grid_covers_at_least_fifty_profiles(self):
        assert len(sweep_profiles()) >= 50
        assert {failure for __, failure in sweep_profiles()} == set(
            CRASH_FAILURES
        )

    def test_reduced_sweep_holds_invariants(self):
        summary = run_crash_sweep(seed=1, max_crash_at=3)
        assert summary["profiles"] == 9
        assert summary["all_invariants_held"]
        assert {run["failure"] for run in summary["runs"]} == set(
            CRASH_FAILURES
        )

    def test_sweep_raises_on_violation(self, monkeypatch):
        import repro.recovery.chaos as chaos

        def broken(config):
            report = CrashChaosSim(config).run()
            report["resurrected"] = 3
            return report

        monkeypatch.setattr(chaos, "run_crash_chaos", broken)
        with pytest.raises(DurabilityError):
            chaos.run_crash_sweep(seed=1, max_crash_at=1)
