"""The simulated network link.

A link is defined by the paper's three parameters (Section 2, Table 1):
latency ``T_Lat`` (seconds per message), data transfer rate ``dtr``
(kbit/s, binary: 1 kbit = 1024 bit) and packet size ``size_p`` (bytes).
Transmitting a message advances the simulated clock by

    T_Lat + wire_bits / (dtr * 1024)

where ``wire_bits`` follows the paper's average-case convention: requests
occupy whole packets; responses cost ``payload + size_p / 2`` (the
correcting term of equation (3): "in the average we expect the last
package of each response to be filled only half").
"""

from __future__ import annotations

import math
from typing import Optional

from repro.errors import LinkConfigurationError
from repro.network.clock import SimulatedClock
from repro.network.stats import TrafficStats

#: The paper uses binary units: 1 kbit/s = 1024 bit/s (pinned by
#: reproducing Table 2 to the cent).
BITS_PER_KBIT = 1024


class NetworkLink:
    """A bidirectional point-to-point link with shared clock and stats."""

    def __init__(
        self,
        latency_s: float,
        dtr_kbit_s: float,
        packet_bytes: int = 4096,
        clock: Optional[SimulatedClock] = None,
    ) -> None:
        if latency_s < 0:
            raise LinkConfigurationError("latency must be non-negative")
        if dtr_kbit_s <= 0:
            raise LinkConfigurationError("data transfer rate must be positive")
        if packet_bytes <= 0:
            raise LinkConfigurationError("packet size must be positive")
        self.latency_s = float(latency_s)
        self.dtr_kbit_s = float(dtr_kbit_s)
        self.packet_bytes = int(packet_bytes)
        self.clock = clock if clock is not None else SimulatedClock()
        self.stats = TrafficStats()
        #: Optional :class:`repro.obs.TraceRecorder`; when set, fault
        #: subclasses annotate the current span with injected events.
        #: Transmission time attribution rides the clock observer.
        self.recorder = None

    @property
    def bits_per_second(self) -> float:
        return self.dtr_kbit_s * BITS_PER_KBIT

    def packets_for(self, payload_bytes: int) -> int:
        """Number of link-layer packets a payload occupies (at least 1)."""
        return max(1, math.ceil(payload_bytes / self.packet_bytes))

    def wire_bytes_for(self, payload_bytes: int, is_request: bool) -> float:
        """On-wire byte cost of a payload: whole packets for a request, the
        payload plus half a packet for a response (module docstring)."""
        if is_request:
            return float(self.packets_for(payload_bytes) * self.packet_bytes)
        return float(payload_bytes) + self.packet_bytes / 2.0

    def transfer_seconds_for(self, wire_bytes: float) -> float:
        """Pure transfer time of *wire_bytes* at the link's data rate."""
        return wire_bytes * 8.0 / self.bits_per_second

    def transmit(
        self, payload_bytes: int, is_request: bool, opcode: Optional[str] = None
    ) -> float:
        """Send one message; advance the clock; return the delay incurred.

        ``opcode`` optionally labels the message with its protocol opcode
        name so per-opcode traffic attribution accumulates in the stats.
        """
        if payload_bytes < 0:
            raise LinkConfigurationError("payload size must be non-negative")
        wire = self.wire_bytes_for(payload_bytes, is_request)
        transfer = self.transfer_seconds_for(wire)
        # One advance (bit-identical to the untraced clock), attributed
        # to the paper's two transmission components for tracing.
        self.clock.advance(
            self.latency_s + transfer,
            {"latency": self.latency_s, "transfer": transfer},
        )
        stats = self.stats
        stats.messages += 1
        if opcode is not None:
            stats.record_opcode(opcode, payload_bytes)
        stats.packets += self.packets_for(payload_bytes)
        stats.payload_bytes += payload_bytes
        stats.wire_bytes += wire
        stats.latency_seconds += self.latency_s
        stats.transfer_seconds += transfer
        if is_request:
            stats.requests += 1
        else:
            stats.responses += 1
        return self.latency_s + transfer

    def deliver(
        self, frame: bytes, is_request: bool, opcode: Optional[str] = None
    ) -> bytes:
        """Transmit an actual frame and return what arrives on the far side.

        On a perfect link that is the frame itself; fault-injecting
        subclasses may drop it (raising
        :class:`~repro.errors.MessageDropped`) or return a mutated copy.
        """
        self.transmit(len(frame), is_request, opcode)
        return frame

    def round_trip(
        self,
        request_bytes: int,
        response_bytes: int,
        request_opcode: Optional[str] = None,
        response_opcode: Optional[str] = None,
    ) -> float:
        """Send a request and receive its response; return the total delay.

        The optional opcode labels feed the per-opcode traffic attribution
        exactly as on :meth:`transmit` — without them the two messages
        stay invisible to ``TrafficStats.opcode_messages``.
        """
        delay = self.transmit(request_bytes, is_request=True, opcode=request_opcode)
        delay += self.transmit(
            response_bytes, is_request=False, opcode=response_opcode
        )
        return delay

    def reset(self) -> None:
        """Zero the clock and the statistics (new measurement run)."""
        self.clock.reset()
        self.stats = TrafficStats()

    def __repr__(self) -> str:
        return (
            f"NetworkLink(latency_s={self.latency_s}, "
            f"dtr_kbit_s={self.dtr_kbit_s}, packet_bytes={self.packet_bytes})"
        )
