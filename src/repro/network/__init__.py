"""Deterministic WAN/LAN simulator.

The paper models the network with three parameters — latency ``T_lat``,
data transfer rate ``dtr`` and packet size ``size_p`` — and attributes the
response-time problem entirely to the number of round trips and the data
volume.  This package implements exactly that contract: a
:class:`~repro.network.link.NetworkLink` advances a simulated clock by
``T_lat + bits/dtr`` per message and accounts messages, packets and bytes
in a :class:`~repro.network.stats.TrafficStats`.
"""

from repro.network.clock import SimulatedClock
from repro.network.faults import (
    CHAOS_PRESETS,
    DROP_5,
    FLAKY_WAN,
    JUMBO_TRUNCATING_WAN,
    NOISY_WAN,
    OUTAGE_WAN,
    STOCHASTIC_PRESETS,
    CircuitBreaker,
    FaultPlan,
    FaultProfile,
    FaultyLink,
    RetryPolicy,
)
from repro.network.link import NetworkLink
from repro.network.profiles import (
    LAN,
    WAN_256,
    WAN_512,
    WAN_1024,
    LinkProfile,
    PAPER_PROFILES,
)
from repro.network.stats import TrafficStats

__all__ = [
    "SimulatedClock",
    "NetworkLink",
    "LinkProfile",
    "LAN",
    "WAN_256",
    "WAN_512",
    "WAN_1024",
    "PAPER_PROFILES",
    "TrafficStats",
    "FaultProfile",
    "FaultPlan",
    "FaultyLink",
    "RetryPolicy",
    "CircuitBreaker",
    "CHAOS_PRESETS",
    "STOCHASTIC_PRESETS",
    "DROP_5",
    "FLAKY_WAN",
    "NOISY_WAN",
    "OUTAGE_WAN",
    "JUMBO_TRUNCATING_WAN",
]
