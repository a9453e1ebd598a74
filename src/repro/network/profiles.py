"""Named link profiles.

The three WAN rows of the paper's Tables 2-4 plus a LAN profile used by
the "hardly any problem in local-area networks" ablation (Section 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.network.clock import SimulatedClock
from repro.network.link import NetworkLink


@dataclass(frozen=True)
class LinkProfile:
    """An immutable description of a link; build concrete links from it."""

    name: str
    latency_s: float
    dtr_kbit_s: float
    packet_bytes: int = 4096

    def create_link(self, clock: Optional[SimulatedClock] = None) -> NetworkLink:
        return NetworkLink(
            latency_s=self.latency_s,
            dtr_kbit_s=self.dtr_kbit_s,
            packet_bytes=self.packet_bytes,
            clock=clock,
        )

    def __str__(self) -> str:
        return (
            f"{self.name} (T_Lat={self.latency_s * 1000:.0f} ms, "
            f"dtr={self.dtr_kbit_s:.0f} kbit/s)"
        )


#: The paper's three WAN scenarios (Table 2 row groups).
WAN_256 = LinkProfile(name="WAN-256", latency_s=0.15, dtr_kbit_s=256)
WAN_512 = LinkProfile(name="WAN-512", latency_s=0.15, dtr_kbit_s=512)
WAN_1024 = LinkProfile(name="WAN-1024", latency_s=0.05, dtr_kbit_s=1024)

#: A year-2000 10 Mbit/s Ethernet LAN with ~2 ms round-trip-half latency.
#: Calibrated so the paper's Section 2 anecdote holds: the scenario-3
#: multi-level expand finishes in "little more than half a minute using
#: the LAN" while taking ~half an hour over WAN-256.
LAN = LinkProfile(name="LAN", latency_s=0.002, dtr_kbit_s=10 * 1024)

PAPER_PROFILES = (WAN_256, WAN_512, WAN_1024)
