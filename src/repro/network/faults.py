"""Deterministic fault injection for the simulated WAN.

The paper's link model is perfect: every message arrives, intact, after
exactly ``T_Lat + bits/dtr`` seconds.  Real intercontinental links lose
packets, suffer latency spikes, corrupt frames and go dark for minutes at
a time.  This module adds those behaviours *deterministically*: a
:class:`FaultProfile` describes the failure distribution, a
:class:`FaultPlan` draws per-message decisions from a seeded RNG (plus
scheduled outage windows on the simulated clock), and a
:class:`FaultyLink` applies them to the actual frame bytes.  The same
profile + seed + traffic sequence always replays the same faults, so
every chaos experiment is reproducible bit for bit.

The client-side half — :class:`RetryPolicy` (capped exponential backoff
with seeded jitter, all waits on the simulated clock) and
:class:`CircuitBreaker` — lives here too, next to the faults it answers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import (
    FaultConfigurationError,
    MessageDropped,
)
from repro.network.clock import SimulatedClock
from repro.network.link import NetworkLink


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise FaultConfigurationError(
            f"{name} must be within [0, 1], got {value!r}"
        )


@dataclass(frozen=True)
class FaultProfile:
    """An immutable description of how a link misbehaves.

    ``drop_probability``      — per-message loss (the sender pays the
                                transmit time; nobody answers).
    ``spike_probability`` /
    ``spike_seconds``         — per-message chance of an added latency
                                spike of ``spike_seconds``.
    ``corrupt_probability``   — per-message chance of a single flipped bit.
    ``truncate_probability``  — per-message chance the frame arrives cut
                                in half.
    ``truncate_over_bytes``   — deterministic "broken middlebox": every
                                frame larger than this is truncated to
                                exactly this size (None disables).
    ``outages``               — half-open ``[start, end)`` windows on the
                                simulated clock during which every message
                                is dropped (the server is unreachable).
    """

    name: str
    drop_probability: float = 0.0
    spike_probability: float = 0.0
    spike_seconds: float = 0.0
    corrupt_probability: float = 0.0
    truncate_probability: float = 0.0
    truncate_over_bytes: Optional[int] = None
    outages: Tuple[Tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        _check_probability("drop_probability", self.drop_probability)
        _check_probability("spike_probability", self.spike_probability)
        _check_probability("corrupt_probability", self.corrupt_probability)
        _check_probability("truncate_probability", self.truncate_probability)
        if self.spike_seconds < 0:
            raise FaultConfigurationError("spike_seconds must be non-negative")
        if self.truncate_over_bytes is not None and self.truncate_over_bytes < 1:
            raise FaultConfigurationError(
                "truncate_over_bytes must be at least 1 byte"
            )
        for start, end in self.outages:
            if end <= start or start < 0:
                raise FaultConfigurationError(
                    f"outage window ({start}, {end}) is not a forward interval"
                )

    @property
    def perfect(self) -> bool:
        """True when this profile can never touch a message."""
        return (
            self.drop_probability == 0.0
            and self.spike_probability == 0.0
            and self.corrupt_probability == 0.0
            and self.truncate_probability == 0.0
            and self.truncate_over_bytes is None
            and not self.outages
        )

    def __str__(self) -> str:
        return (
            f"{self.name} (drop={self.drop_probability:.0%}, "
            f"corrupt={self.corrupt_probability:.0%}, "
            f"outages={len(self.outages)})"
        )


@dataclass(frozen=True)
class FaultDecision:
    """The fate of one message, as drawn by a :class:`FaultPlan`."""

    drop: bool
    outage: bool
    spike_seconds: float
    corrupt: bool
    truncate_to: Optional[int]


class FaultPlan:
    """Seeded per-message fault decisions for one profile.

    Every message draws the same fixed number of uniforms (drop, spike,
    corrupt, truncate) regardless of outcome, so the decision stream for
    message *n* depends only on the seed and *n* — deterministic and
    replayable no matter which faults actually fired earlier.
    """

    def __init__(self, profile: FaultProfile, seed: int = 0) -> None:
        self.profile = profile
        self.seed = seed
        self._decision_rng = random.Random(seed)
        #: Separate stream for fault *details* (which bit flips), so the
        #: per-message decision alignment above is never perturbed.
        self._detail_rng = random.Random(seed + 0x5EED)
        self.messages_decided = 0

    def in_outage(self, now: float) -> bool:
        return any(start <= now < end for start, end in self.profile.outages)

    def next_outage_end(self, now: float) -> Optional[float]:
        """End of the outage window covering *now*, if any."""
        for start, end in self.profile.outages:
            if start <= now < end:
                return end
        return None

    def decide(self, now: float, frame_bytes: int) -> FaultDecision:
        profile = self.profile
        rng = self._decision_rng
        u_drop = rng.random()
        u_spike = rng.random()
        u_corrupt = rng.random()
        u_truncate = rng.random()
        self.messages_decided += 1
        outage = self.in_outage(now)
        truncate_to: Optional[int] = None
        if (
            profile.truncate_over_bytes is not None
            and frame_bytes > profile.truncate_over_bytes
        ):
            truncate_to = profile.truncate_over_bytes
        elif u_truncate < profile.truncate_probability and frame_bytes > 1:
            truncate_to = max(1, frame_bytes // 2)
        return FaultDecision(
            drop=outage or u_drop < profile.drop_probability,
            outage=outage,
            spike_seconds=(
                profile.spike_seconds
                if u_spike < profile.spike_probability
                else 0.0
            ),
            corrupt=u_corrupt < profile.corrupt_probability,
            truncate_to=truncate_to,
        )

    def flip_bit(self, frame: bytes) -> bytes:
        """Return *frame* with one deterministic-random bit inverted."""
        if not frame:
            return frame
        position = self._detail_rng.randrange(len(frame) * 8)
        mutated = bytearray(frame)
        mutated[position // 8] ^= 1 << (position % 8)
        return bytes(mutated)


#: A profile no fault can fire from (the identity wrapper).
PERFECT = FaultProfile(name="perfect")


class FaultyLink(NetworkLink):
    """A :class:`NetworkLink` that injects faults from a seeded plan.

    Traffic accounting still charges every transmitted message (the bytes
    did go out on the wire); the injected misfortunes additionally bump
    the ``drops`` / ``corrupt_frames`` / ``spike_seconds`` counters of
    :class:`~repro.network.stats.TrafficStats`.
    """

    def __init__(
        self,
        latency_s: float,
        dtr_kbit_s: float,
        packet_bytes: int = 4096,
        clock: Optional[SimulatedClock] = None,
        profile: FaultProfile = PERFECT,
        seed: int = 0,
    ) -> None:
        super().__init__(
            latency_s=latency_s,
            dtr_kbit_s=dtr_kbit_s,
            packet_bytes=packet_bytes,
            clock=clock,
        )
        self.profile = profile
        self.fault_seed = seed
        self.plan = FaultPlan(profile, seed)

    @classmethod
    def wrap(
        cls, link: NetworkLink, profile: FaultProfile, seed: int = 0
    ) -> "FaultyLink":
        """A faulty twin of *link*: same parameters, same clock."""
        return cls(
            latency_s=link.latency_s,
            dtr_kbit_s=link.dtr_kbit_s,
            packet_bytes=link.packet_bytes,
            clock=link.clock,
            profile=profile,
            seed=seed,
        )

    def reset(self) -> None:
        """Zero clock and stats and rewind the fault plan (same replay)."""
        super().reset()
        self.plan = FaultPlan(self.profile, self.fault_seed)

    def deliver(
        self, frame: bytes, is_request: bool, opcode: Optional[str] = None
    ) -> bytes:
        recorder = self.recorder
        decision = self.plan.decide(self.clock.now, len(frame))
        if decision.spike_seconds:
            self.clock.advance(decision.spike_seconds, "spike")
            self.stats.spike_seconds += decision.spike_seconds
            if recorder is not None:
                recorder.event(
                    "fault.spike", seconds=decision.spike_seconds
                )
        self.transmit(len(frame), is_request, opcode)
        kind = "request" if is_request else "response"
        if decision.drop:
            self.stats.drops += 1
            where = "outage window" if decision.outage else "transit"
            if recorder is not None:
                recorder.event("fault.drop", kind=kind, where=where)
            raise MessageDropped(f"{kind} lost in {where}")
        if decision.truncate_to is not None:
            self.stats.corrupt_frames += 1
            if recorder is not None:
                recorder.event(
                    "fault.truncate",
                    kind=kind,
                    frame_bytes=len(frame),
                    truncated_to=decision.truncate_to,
                )
            frame = frame[: decision.truncate_to]
        if decision.corrupt:
            self.stats.corrupt_frames += 1
            if recorder is not None:
                recorder.event("fault.corrupt", kind=kind)
            frame = self.plan.flip_bit(frame)
        return frame


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with seeded jitter, on simulated time.

    ``timeout_s`` is the per-attempt wait before a lost message is given
    up on; retry *k* (1-based) then sleeps
    ``min(base * multiplier^(k-1), cap) * (1 ± jitter)`` simulated
    seconds before re-sending.  All waits advance the simulated clock —
    there is no wall-clock sleeping anywhere.
    """

    max_attempts: int = 6
    timeout_s: float = 2.0
    backoff_base_s: float = 0.1
    backoff_multiplier: float = 2.0
    backoff_cap_s: float = 2.0
    jitter_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise FaultConfigurationError("max_attempts must be at least 1")
        if self.timeout_s <= 0:
            raise FaultConfigurationError("timeout_s must be positive")
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise FaultConfigurationError("backoff must be non-negative")
        if self.backoff_multiplier < 1.0:
            raise FaultConfigurationError("backoff_multiplier must be >= 1")
        _check_probability("jitter_fraction", self.jitter_fraction)

    def expected_backoff(self, retry: int) -> float:
        """Mean backoff before retry *retry* (1-based); jitter averages out."""
        if retry < 1:
            raise FaultConfigurationError("retry index is 1-based")
        return min(
            self.backoff_base_s * self.backoff_multiplier ** (retry - 1),
            self.backoff_cap_s,
        )

    def backoff_seconds(self, retry: int, rng: random.Random) -> float:
        """The jittered backoff before retry *retry*, drawn from *rng*."""
        backoff = self.expected_backoff(retry)
        if self.jitter_fraction:
            backoff *= 1.0 + self.jitter_fraction * (2.0 * rng.random() - 1.0)
        return backoff

    def rng(self) -> random.Random:
        """A fresh seeded jitter stream (one per connection)."""
        return random.Random(self.seed)

    def schedule(self, rng: Optional[random.Random] = None) -> Tuple[float, ...]:
        """The full backoff schedule (one entry per possible retry)."""
        rng = rng if rng is not None else self.rng()
        return tuple(
            self.backoff_seconds(retry, rng)
            for retry in range(1, self.max_attempts)
        )


class CircuitBreaker:
    """Consecutive-failure circuit breaker on the simulated clock.

    After ``failure_threshold`` consecutive failed attempts the circuit
    opens: calls are rejected locally (no WAN traffic) until
    ``cooldown_s`` simulated seconds have passed, after which one trial
    call is let through (half-open).  Success closes the circuit; another
    failure re-opens it for a fresh cool-down.
    """

    def __init__(
        self, failure_threshold: int = 8, cooldown_s: float = 30.0
    ) -> None:
        if failure_threshold < 1:
            raise FaultConfigurationError("failure_threshold must be >= 1")
        if cooldown_s < 0:
            raise FaultConfigurationError("cooldown_s must be non-negative")
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self.consecutive_failures = 0
        self.opened_at: Optional[float] = None
        self.opens = 0

    @property
    def is_open(self) -> bool:
        return self.opened_at is not None

    #: Slack for clock arithmetic: ``advance(seconds_until_trial(now))``
    #: must land on an *allowed* instant even when float subtraction
    #: leaves a few ulps of residue.
    _TOLERANCE_S = 1e-9

    def allow(self, now: float) -> bool:
        """May a call go out at simulated time *now*?"""
        if self.opened_at is None:
            return True
        return (
            now - self.opened_at >= self.cooldown_s - self._TOLERANCE_S
        )  # half-open trial

    def seconds_until_trial(self, now: float) -> float:
        """Simulated wait until the breaker would allow a half-open trial."""
        if self.opened_at is None or self.allow(now):
            return 0.0
        return self.opened_at + self.cooldown_s - now

    def record_failure(self, now: float) -> None:
        self.consecutive_failures += 1
        if self.consecutive_failures >= self.failure_threshold:
            if self.opened_at is None:
                self.opens += 1
            self.opened_at = now

    def record_success(self) -> None:
        self.consecutive_failures = 0
        self.opened_at = None


# -- chaos presets -----------------------------------------------------------
#
# Named fault scenarios for the resilience ablation, mirroring the link
# profiles in :mod:`repro.network.profiles`.  All are stochastic except
# OUTAGE_WAN's windows and JUMBO_TRUNCATING_WAN's size cut-off, which are
# scheduled/deterministic.

#: The acceptance scenario: 5 % of all messages vanish.
DROP_5 = FaultProfile(name="drop-5", drop_probability=0.05)

#: A flaky long-haul path: occasional loss plus half-second jitter spikes.
FLAKY_WAN = FaultProfile(
    name="flaky-wan",
    drop_probability=0.02,
    spike_probability=0.10,
    spike_seconds=0.5,
)

#: A noisy path: loss plus bit flips that the frame CRC must catch.
NOISY_WAN = FaultProfile(
    name="noisy-wan",
    drop_probability=0.02,
    corrupt_probability=0.02,
)

#: A 45 s server outage with a little background loss on either side.  It
#: opens one simulated second into the run, so it cuts into every expand
#: but the small-scale recursive one, which is over by then.
OUTAGE_WAN = FaultProfile(
    name="outage-wan",
    drop_probability=0.01,
    outages=((1.0, 46.0),),
)

#: A broken middlebox that silently truncates every frame over 8 KiB.  On
#: the small-scale tree (δ=4, κ=3) only the recursive response (~15 KiB)
#: is that large, so the scenario forces the batched fallback; on larger
#: trees the widest level batches are cut too and no resend gets through.
JUMBO_TRUNCATING_WAN = FaultProfile(
    name="jumbo-truncating-wan", truncate_over_bytes=8 * 1024
)

CHAOS_PRESETS = (DROP_5, FLAKY_WAN, NOISY_WAN, OUTAGE_WAN)

#: The presets whose faults are purely stochastic — the ones the
#: retry-aware analytic model covers in expectation.
STOCHASTIC_PRESETS = (DROP_5, FLAKY_WAN, NOISY_WAN)
