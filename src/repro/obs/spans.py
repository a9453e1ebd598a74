"""Nested spans on the simulated clock, with component attribution.

A :class:`Span` covers one logical operation (a PDM action, a round
trip, a server request, a fixpoint round) between two instants of the
simulated clock.  Spans nest: while a span is open, every span opened
below it becomes a child, every :meth:`TraceRecorder.event` attaches to
it, and — the part the paper's decomposition needs — every simulated
clock advance is credited to one of its named *components* ("latency",
"transfer", "backoff", ...).  Because the recorder observes the clock
itself, the component seconds of a span subtree sum to the subtree
root's duration *exactly*: no simulated second can go missing or be
counted twice.

The recorder is inert unless explicitly wired in (see
:func:`instrument_stack`); every instrumentation site in the stack
guards on ``recorder is None``, so disabled tracing is free and cannot
perturb a measurement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.obs.metrics import MetricsRegistry

#: What a clock advance may carry as its attribution: a single component
#: name, or a {component: seconds} split of the advanced interval.
ClockComponent = Union[None, str, Dict[str, float]]

#: Component bucket for clock advances no instrumentation site labelled.
UNATTRIBUTED = "unattributed"


@dataclass
class Span:
    """One timed operation in the trace tree."""

    name: str
    kind: str = ""
    start: float = 0.0
    end: Optional[float] = None
    meta: Dict[str, Any] = field(default_factory=dict)
    #: (simulated time, message, data) point annotations, e.g. injected
    #: link faults observed while this span was innermost.
    events: List[Tuple[float, str, Dict[str, Any]]] = field(
        default_factory=list
    )
    #: Seconds of simulated time advanced while this span was the
    #: *innermost* open span, keyed by component name.  Child spans keep
    #: their own shares — aggregate with :meth:`total_components`.
    components: Dict[str, float] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Simulated seconds between open and close (0 while open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def iter_spans(self) -> Iterator["Span"]:
        """This span and every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.iter_spans()

    def total_components(self) -> Dict[str, float]:
        """Component seconds aggregated over this span and its subtree."""
        totals: Dict[str, float] = {}
        for span in self.iter_spans():
            for name, seconds in span.components.items():
                totals[name] = totals.get(name, 0.0) + seconds
        return totals

    def to_dict(self) -> dict:
        """JSON-exportable form (recursive)."""
        data: Dict[str, Any] = {
            "name": self.name,
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
        }
        if self.meta:
            data["meta"] = dict(self.meta)
        if self.components:
            data["components"] = dict(self.components)
        if self.events:
            data["events"] = [
                {"at": at, "message": message, **({"data": extra} if extra else {})}
                for at, message, extra in self.events
            ]
        if self.children:
            data["children"] = [child.to_dict() for child in self.children]
        return data


class _SpanHandle:
    """Context manager opening one span on enter, closing it on exit."""

    __slots__ = ("_recorder", "span")

    def __init__(self, recorder: "TraceRecorder", span: Span) -> None:
        self._recorder = recorder
        self.span = span

    def __enter__(self) -> Span:
        self._recorder._open(self.span)
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc is not None:
            self.span.meta.setdefault("error", type(exc).__name__)
        self._recorder._close(self.span)
        return False


class _NullSpanHandle:
    """Shared no-op context for the disabled-tracing fast path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpanHandle()


class TraceRecorder:
    """Records a forest of spans against a simulated clock.

    The clock may be bound at construction or later by
    :func:`instrument_stack` (the usual flow when
    :func:`repro.bench.workload.build_scenario` creates the link — and
    hence the clock — internally).  As the clock's observer, the
    recorder credits every advance to the innermost open span's
    component ledger.
    """

    def __init__(self, clock=None, metrics: Optional[MetricsRegistry] = None) -> None:
        self.clock = clock
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.roots: List[Span] = []
        self._stack: List[Span] = []
        #: The traced server and link and where their always-on counters
        #: stood when :func:`instrument_stack` attached them; a trace
        #: summary reports the movement since.
        self.server = None
        self.server_baseline: Dict[str, Any] = {}
        self.link = None
        self.link_baseline = None

    # -- span lifecycle -------------------------------------------------------

    def _now(self) -> float:
        return self.clock.now if self.clock is not None else 0.0

    def span(self, name: str, kind: str = "", **meta: Any) -> _SpanHandle:
        """Context manager: open a child of the current span (or a root)."""
        return _SpanHandle(
            self, Span(name=name, kind=kind, meta=dict(meta))
        )

    def _open(self, span: Span) -> None:
        span.start = self._now()
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)

    def _close(self, span: Span) -> None:
        span.end = self._now()
        # Tolerate (and survive) exits out of order; the common path pops
        # exactly the innermost span.
        while self._stack:
            if self._stack.pop() is span:
                break

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    # -- annotations -----------------------------------------------------------

    def annotate(self, **meta: Any) -> None:
        """Merge key/value annotations into the current span's meta."""
        if self._stack:
            self._stack[-1].meta.update(meta)

    def event(self, message: str, **data: Any) -> None:
        """Attach a point-in-time event to the current span."""
        if self._stack:
            self._stack[-1].events.append((self._now(), message, data))

    # -- clock observation -----------------------------------------------------

    def on_clock_advance(self, seconds: float, component: ClockComponent) -> None:
        """Credit an advance of the simulated clock to the current span."""
        if not self._stack:
            return
        ledger = self._stack[-1].components
        if isinstance(component, dict):
            for name, share in component.items():
                if share:
                    ledger[name] = ledger.get(name, 0.0) + share
            return
        name = component if component is not None else UNATTRIBUTED
        ledger[name] = ledger.get(name, 0.0) + seconds

    # -- queries ----------------------------------------------------------------

    def find_root(self, name: str) -> Optional[Span]:
        """The most recent root span called *name* (None if absent)."""
        for span in reversed(self.roots):
            if span.name == name:
                return span
        return None

    def iter_spans(self) -> Iterator[Span]:
        for root in self.roots:
            yield from root.iter_spans()

    def reset(self) -> None:
        """Drop all recorded spans (open spans included) and metrics."""
        self.roots = []
        self._stack = []
        self.metrics = MetricsRegistry()


def maybe_span(
    recorder: Optional[TraceRecorder], name: str, kind: str = "", **meta: Any
):
    """A span on *recorder*, or a shared no-op context when tracing is off."""
    if recorder is None:
        return _NULL_SPAN
    return recorder.span(name, kind=kind, **meta)


def instrument_stack(
    recorder: TraceRecorder,
    *,
    link=None,
    connection=None,
    server=None,
    database=None,
    client=None,
) -> TraceRecorder:
    """Attach *recorder* to every provided layer of one client/server stack.

    Binds the link's simulated clock to the recorder (so clock advances
    are attributed to spans) and sets the ``recorder`` attribute each
    layer guards its instrumentation on.  Layers not passed stay
    untraced.  The server's ``counters()`` and the link's ``stats`` are
    snapshotted as the baseline a trace summary measures from.
    ``client`` (a :class:`~repro.pdm.operations.PDMClient`) needs no
    attribute of its own — it reads the connection's — but is accepted
    so call sites can pass the whole stack uniformly.
    """
    if link is not None:
        link.recorder = recorder
        recorder.link, recorder.link_baseline = link, link.stats.snapshot()
        if recorder.clock is None:
            recorder.clock = link.clock
        link.clock.observer = recorder
    if connection is not None:
        connection.recorder = recorder
        if recorder.clock is None:
            recorder.clock = connection.link.clock
            connection.link.clock.observer = recorder
    if server is not None:
        server.recorder = recorder
        recorder.server, recorder.server_baseline = server, server.counters()
    if database is not None:
        database.recorder = recorder
    return recorder
