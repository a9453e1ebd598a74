"""The simulated disk: append-only bytes with seeded fault injection."""

import pytest

from repro.errors import DiskCrashed, DurabilityError
from repro.recovery import PERFECT_DISK, DiskFaultProfile, SimDisk


class TestProfileValidation:
    def test_perfect_profile(self):
        assert PERFECT_DISK.perfect
        assert not DiskFaultProfile(name="x", crash_at_append=1).perfect

    def test_crash_at_append_must_be_positive(self):
        with pytest.raises(DurabilityError):
            DiskFaultProfile(name="x", crash_at_append=0)

    def test_torn_and_corrupt_are_exclusive(self):
        with pytest.raises(DurabilityError):
            DiskFaultProfile(
                name="x", crash_at_append=1, torn=True, corrupt=True
            )

    def test_damage_requires_crash_point(self):
        with pytest.raises(DurabilityError):
            DiskFaultProfile(name="x", torn=True)


class TestAppend:
    def test_appends_accumulate(self):
        disk = SimDisk()
        disk.append(b"aaa")
        disk.append(b"bbbb")
        assert disk.read_all() == b"aaabbbb"
        assert disk.size == 7
        assert disk.total_appends == 2

    def test_clean_crash_leaves_nothing_of_the_victim(self):
        disk = SimDisk()
        disk.append(b"before")
        disk.arm(DiskFaultProfile(name="x", crash_at_append=2))
        disk.append(b"first")
        with pytest.raises(DiskCrashed):
            disk.append(b"victim")
        assert disk.crashed
        assert disk.read_all() == b"beforefirst"

    def test_crashed_disk_rejects_further_appends(self):
        disk = SimDisk()
        disk.arm(DiskFaultProfile(name="x", crash_at_append=1))
        with pytest.raises(DiskCrashed):
            disk.append(b"victim")
        with pytest.raises(DiskCrashed):
            disk.append(b"more")

    def test_torn_crash_leaves_a_proper_prefix(self):
        disk = SimDisk(seed=7)
        disk.arm(DiskFaultProfile(name="x", crash_at_append=1, torn=True))
        with pytest.raises(DiskCrashed):
            disk.append(b"0123456789")
        tail = disk.read_all()
        assert 1 <= len(tail) < 10
        assert b"0123456789".startswith(tail)

    def test_corrupt_crash_flips_exactly_one_bit(self):
        disk = SimDisk(seed=7)
        disk.arm(DiskFaultProfile(name="x", crash_at_append=1, corrupt=True))
        with pytest.raises(DiskCrashed):
            disk.append(b"0123456789")
        tail = disk.read_all()
        assert len(tail) == 10
        differing = [
            bin(a ^ b).count("1") for a, b in zip(tail, b"0123456789")
        ]
        assert sum(differing) == 1

    def test_damage_is_deterministic_per_seed(self):
        tails = []
        for __ in range(2):
            disk = SimDisk()
            disk.arm(
                DiskFaultProfile(name="x", crash_at_append=1, torn=True),
                seed=123,
            )
            with pytest.raises(DiskCrashed):
                disk.append(b"0123456789")
            tails.append(disk.read_all())
        assert tails[0] == tails[1]


class TestReopenTruncate:
    def test_reopen_clears_the_crash_and_the_profile(self):
        disk = SimDisk()
        disk.arm(DiskFaultProfile(name="x", crash_at_append=1))
        with pytest.raises(DiskCrashed):
            disk.append(b"victim")
        disk.reopen()
        assert not disk.crashed
        disk.append(b"after")
        assert disk.read_all() == b"after"

    def test_truncate_discards_the_damaged_tail(self):
        disk = SimDisk()
        disk.append(b"keepme")
        disk.append(b"dropme")
        disk.truncate(6)
        assert disk.read_all() == b"keepme"

    def test_truncate_cannot_extend(self):
        disk = SimDisk()
        disk.append(b"abc")
        with pytest.raises(DurabilityError):
            disk.truncate(4)

    def test_rearm_resets_the_append_countdown(self):
        disk = SimDisk()
        profile = DiskFaultProfile(name="x", crash_at_append=2)
        disk.arm(profile)
        disk.append(b"one")
        disk.arm(profile)  # countdown restarts
        disk.append(b"two")
        with pytest.raises(DiskCrashed):
            disk.append(b"three")


class TestDropPrefix:
    def test_drop_prefix_keeps_the_tail_and_appends_continue(self):
        disk = SimDisk()
        disk.append(b"dead")
        disk.append(b"live")
        disk.drop_prefix(4)
        assert disk.read_all() == b"live"
        assert disk.append(b"more") == 4
        assert disk.read_all() == b"livemore"

    def test_drop_prefix_bounds(self):
        disk = SimDisk()
        disk.append(b"abc")
        for length in (-1, 4):
            with pytest.raises(DurabilityError):
                disk.drop_prefix(length)
        disk.drop_prefix(3)
        assert disk.size == 0

    def test_crashed_disk_rejects_drop_prefix(self):
        disk = SimDisk()
        disk.append(b"abc")
        disk.arm(DiskFaultProfile(name="x", crash_at_append=1))
        with pytest.raises(DiskCrashed):
            disk.append(b"victim")
        with pytest.raises(DiskCrashed):
            disk.drop_prefix(1)
        assert disk.read_all() == b"abc"
