"""Traffic accounting for a simulated link."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict


@dataclass
class TrafficStats:
    """Counters for one direction-agnostic link.

    ``messages`` counts transmissions (a request and its response are two
    messages, i.e. one round trip contributes 2); ``packets`` counts
    link-layer packets after segmentation; byte counters track payload and
    on-wire (padded) volume separately so both the paper's average-case
    model and the exact simulation can be reported.

    ``opcode_messages`` / ``opcode_payload_bytes`` break the totals down
    by protocol opcode (QUERY, BATCH, RESULT, ...) when the transmitter
    labels its messages, so batch vs single-query traffic can be
    attributed in a re-pricing pass without re-running the simulation.

    The resilience counters split by who observes the event: the link
    records injected faults (``drops``, ``corrupt_frames``,
    ``spike_seconds``) while the client driver records its reaction
    (``timeouts``/``timeout_seconds`` for waited-out attempts,
    ``retries`` for re-sent requests, ``backoff_seconds`` for the
    simulated backoff sleeps between them).
    """

    messages: int = 0
    packets: int = 0
    payload_bytes: int = 0
    wire_bytes: float = 0.0
    latency_seconds: float = 0.0
    transfer_seconds: float = 0.0
    #: Simulated server-side query evaluation time (0 unless a CPU cost
    #: model is enabled — the paper ignores it, Section 6).
    server_seconds: float = 0.0
    requests: int = 0
    responses: int = 0
    #: Injected by a fault plan (link side).
    drops: int = 0
    corrupt_frames: int = 0
    spike_seconds: float = 0.0
    #: Observed by the resilient client driver.
    timeouts: int = 0
    timeout_seconds: float = 0.0
    retries: int = 0
    backoff_seconds: float = 0.0
    opcode_messages: Dict[str, int] = field(default_factory=dict)
    opcode_payload_bytes: Dict[str, int] = field(default_factory=dict)

    def record_opcode(self, opcode: str, payload_bytes: int) -> None:
        """Attribute one message's payload to a protocol opcode."""
        self.opcode_messages[opcode] = self.opcode_messages.get(opcode, 0) + 1
        self.opcode_payload_bytes[opcode] = (
            self.opcode_payload_bytes.get(opcode, 0) + payload_bytes
        )

    @property
    def total_seconds(self) -> float:
        """Accumulated delay: transmission (latency + transfer + spikes),
        server CPU, and the resilient client's waits (timed-out attempts
        and backoff sleeps)."""
        return (
            self.latency_seconds
            + self.transfer_seconds
            + self.server_seconds
            + self.spike_seconds
            + self.timeout_seconds
            + self.backoff_seconds
        )

    @property
    def round_trips(self) -> float:
        return self.messages / 2

    def merge(self, other: "TrafficStats") -> None:
        """Accumulate *other* into this stats object."""
        for name in _COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for name in _BREAKDOWNS:
            mine = getattr(self, name)
            for key, value in getattr(other, name).items():
                mine[key] = mine.get(key, 0) + value

    def snapshot(self) -> "TrafficStats":
        """Return an independent copy (used for per-action deltas)."""
        copy = _from_values(self.__dict__)
        for name in _BREAKDOWNS:
            setattr(copy, name, dict(getattr(self, name)))
        return copy

    def delta_since(self, earlier: "TrafficStats") -> "TrafficStats":
        """Stats accumulated since *earlier* (a snapshot of this object)."""
        now, then = self.__dict__, earlier.__dict__
        values = {name: now[name] - then[name] for name in _COUNTERS}
        for name in _BREAKDOWNS:
            before = then[name]
            values[name] = {
                key: value - before.get(key, 0)
                for key, value in now[name].items()
                if value != before.get(key, 0)
            }
        return _from_values(values)


#: The dataclass's fields, split once at import by how they combine: the
#: per-opcode breakdowns are dicts combined key by key, everything else is
#: a number.  ``snapshot`` / ``delta_since`` bracket every user action, so
#: they neither reflect over ``dataclasses.fields()`` nor go through the
#: 18-argument ``__init__`` each time.
_BREAKDOWNS = tuple(
    spec.name for spec in fields(TrafficStats) if spec.default_factory is dict
)
_COUNTERS = tuple(
    spec.name for spec in fields(TrafficStats) if spec.name not in _BREAKDOWNS
)


def _from_values(values: Dict[str, object]) -> TrafficStats:
    """A stats object holding *values* (one entry per field)."""
    stats = TrafficStats.__new__(TrafficStats)
    stats.__dict__.update(values)
    return stats
