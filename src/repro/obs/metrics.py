"""Fixed-bucket histograms.

The registry is deliberately tiny — it is simulation instrumentation,
not a telemetry client.  It holds distributions only: an event *count*
lives once, always on, in the ``statistics`` of the layer where the event
happens (``DatabaseServer.counters()`` is the view over all of them), so
there is nothing here to keep in step with it.  Histograms have a fixed
set of upper bucket bounds chosen at creation (plus an implicit overflow
bucket), so recording an observation is O(buckets) with no allocation.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError

#: Default bucket bounds for simulated-seconds histograms (round-trip
#: times span ~1 ms LAN pings to minutes of outage-ridden WAN expands).
SECONDS_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    60.0,
)

#: Default bucket bounds for frame-size histograms (bytes on the wire).
BYTES_BUCKETS: Tuple[float, ...] = (
    64,
    256,
    1024,
    4096,
    16384,
    65536,
    262144,
)

#: Default bucket bounds for result-cardinality histograms.
ROWS_BUCKETS: Tuple[float, ...] = (0, 1, 4, 16, 64, 256, 1024, 4096)


class Histogram:
    """A fixed-bucket histogram with running count/sum/min/max.

    ``bounds`` are inclusive upper bounds in ascending order; an
    observation larger than the last bound lands in the overflow bucket.
    """

    def __init__(self, name: str, bounds: Sequence[float]) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ReproError(
                f"histogram {name!r} needs ascending bucket bounds, "
                f"got {bounds!r}"
            )
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        #: One slot per bound plus the overflow bucket.
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """Estimate the *q*-quantile (``0 <= q <= 1``) from the buckets.

        Linear interpolation across the bucket that holds the target
        rank, clamped to the observed ``min``/``max`` so a wide bucket
        cannot report a value outside the data.  Returns None when the
        histogram is empty.  The estimate's resolution is the bucket
        width — good enough for p50/p95/p99 reporting, not for exact
        order statistics.

        Boundary contract (explicit, not an interpolation accident):
        ``q=0`` returns the observed minimum, ``q=1`` the observed
        maximum, and a single-observation histogram returns that
        observation for every *q* — bucket edges never leak through.
        """
        if not 0.0 <= q <= 1.0:
            raise ReproError(
                f"quantile for histogram {self.name!r} must be in [0, 1], "
                f"got {q!r}"
            )
        if self.count == 0:
            return None
        if q <= 0.0:
            return self.min
        if q >= 1.0:
            return self.max
        if self.count == 1:
            return self.min
        rank = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            previous = cumulative
            cumulative += bucket_count
            if cumulative < rank:
                continue
            # An observed minimum of exactly 0.0 must win over the bucket
            # edge fallback ("self.min or 0.0" treated 0.0 as missing —
            # harmless today because lower only feeds the interpolation
            # that is clamped below, but wrong as a contract).
            lower = (
                self.bounds[index - 1]
                if index > 0
                else (0.0 if self.min is None else self.min)
            )
            upper = (
                self.bounds[index]
                if index < len(self.bounds)
                else (self.max if self.max is not None else lower)
            )
            fraction = (rank - previous) / bucket_count
            estimate = lower + (upper - lower) * fraction
            if self.min is not None:
                estimate = max(estimate, self.min)
            if self.max is not None:
                estimate = min(estimate, self.max)
            return estimate
        return self.max

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "buckets": {
                **{
                    f"le_{bound:g}": count
                    for bound, count in zip(self.bounds, self.counts)
                },
                "overflow": self.counts[-1],
            },
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name}, n={self.count}, mean={self.mean:.4g})"


class MetricsRegistry:
    """Create-or-get registry of histograms."""

    def __init__(self) -> None:
        self.histograms: Dict[str, Histogram] = {}

    def histogram(
        self, name: str, bounds: Sequence[float] = SECONDS_BUCKETS
    ) -> Histogram:
        """Get-or-create; the bounds of an existing histogram win."""
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram(name, bounds)
        return histogram

    def to_dict(self) -> dict:
        """JSON-exportable snapshot of every metric."""
        return {
            "histograms": {
                name: histogram.to_dict()
                for name, histogram in sorted(self.histograms.items())
            },
        }
