"""Benchmark-owned boundary spans and the arithmetic on them.

The traced pass wraps the public entry points of each layer with timers
set as *instance attributes* (nothing under ``src/`` changes, and an
untraced stack pays nothing).  Every call records one span — name, layer,
start, end, parent span, action id — in memory; a layer's self time is a
span's duration minus the time its child spans cover.  Spans are written
out once, at the end, as Chrome-trace JSON.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

#: Span record layout (a list, for speed): see the indices below.
NAME, LAYER, START, END, PARENT, ACTION = range(6)

#: Layers of the ledger, outermost first.  ``harness`` is the benchmark's
#: own glue between the calls it makes for one op.
LAYERS = (
    "harness",
    "pdm",
    "server.client",
    "network",
    "server.server",
    "sqldb",
    "concurrency",
    "recovery",
)

#: The public entry points :func:`instrument` puts timers around.
_PDM_METHODS = (
    "query", "single_level_expand", "multi_level_expand", "where_used",
    "check_out", "check_in",
)
_CONNECTION_METHODS = (
    "execute", "execute_batch", "call_procedure", "begin", "commit", "rollback",
)
_DATABASE_METHODS = ("execute", "begin", "commit", "rollback")
_LOCK_METHODS = ("acquire", "acquire_all_or_nothing", "release", "release_all")
_WAL_METHODS = ("log_insert", "log_update", "log_delete", "commit", "abort")


class Tracer:
    """An in-memory span recorder for one thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[list] = []
        self._open: List[int] = []
        self.action_id = -1
        self._wrapped: List[tuple] = []

    # -- recording ------------------------------------------------------------

    def begin(self, name: str, layer: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self._open.append(index)
        self.spans.append([name, layer, self.clock(), 0.0, parent, self.action_id])
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = self.clock()
        self._open.pop()

    def wrap(self, holder: Any, method: str, layer: str, after=None) -> None:
        """Time ``holder.method`` through an instance attribute.

        *after*, when given, is called with ``(args, result)`` once the
        span has closed (successful calls only) — the capture hook for
        the stage replay, kept outside the timed interval.
        """
        original = getattr(holder, method)
        name = f"{type(holder).__name__}.{method}"
        spans, open_spans, clock = self.spans, self._open, self.clock

        def timed(*args, **kwargs):
            index = len(spans)
            parent = open_spans[-1] if open_spans else -1
            open_spans.append(index)
            record = [name, layer, clock(), 0.0, parent, self.action_id]
            spans.append(record)
            try:
                result = original(*args, **kwargs)
            finally:
                record[END] = clock()
                open_spans.pop()
            if after is not None:
                after(args, result)
            return result

        setattr(holder, method, timed)
        self._wrapped.append((holder, method))

    def unwrap_all(self) -> None:
        """Remove every timer (the class's own methods show through again)."""
        for holder, method in self._wrapped:
            try:
                delattr(holder, method)
            except AttributeError:
                pass
        self._wrapped.clear()

    # -- export ---------------------------------------------------------------

    def chrome_trace(self) -> Dict[str, Any]:
        """The spans in Chrome ``traceEvents`` form (complete events, µs)."""
        if not self.spans:
            return {"traceEvents": []}
        origin = self.spans[0][START]
        events = [
            {
                "name": span[NAME],
                "cat": span[LAYER],
                "ph": "X",
                "ts": (span[START] - origin) * 1e6,
                "dur": (span[END] - span[START]) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"action": span[ACTION], "parent": span[PARENT]},
            }
            for span in self.spans
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)


def _frame_hook(capture):
    def hook(args, result):
        capture("frame", args[0])

    return hook


def _statement_hook(capture, database):
    def hook(args, result):
        params = args[1] if len(args) > 1 else ()
        capture("statement", args[0], params, database.last_counters)

    return hook


def instrument(tracer: Tracer, stack, capture=None) -> None:
    """Put timers around every layer boundary of *stack*.

    *capture*, when given, receives ``("frame", bytes)`` for each request
    frame reaching ``DatabaseServer.handle`` and
    ``("statement", sql, params, counters)`` after each
    ``Database.execute``.
    """
    for client in stack.clients:
        for method in _PDM_METHODS:
            tracer.wrap(client, method, "pdm")
    for connection in stack.connections:
        for method in _CONNECTION_METHODS:
            tracer.wrap(connection, method, "server.client")
    for link in stack.links:
        tracer.wrap(link, "deliver", "network")
    database = stack.database
    frame_hook = statement_hook = None
    if capture is not None:
        frame_hook = _frame_hook(capture)
        statement_hook = _statement_hook(capture, database)
    tracer.wrap(stack.server, "handle", "server.server", after=frame_hook)
    for method in _DATABASE_METHODS:
        tracer.wrap(
            database,
            method,
            "sqldb",
            after=statement_hook if method == "execute" else None,
        )
    if stack.locks is not None:
        for method in _LOCK_METHODS:
            tracer.wrap(stack.locks, method, "concurrency")
    wal = getattr(database, "wal", None)
    if wal is not None:
        for method in _WAL_METHODS:
            tracer.wrap(wal, method, "recovery")
        tracer.wrap(wal.disk, "append", "recovery")


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------


def self_times(spans: Sequence[list]) -> List[float]:
    """Self time of every span: duration minus its direct children's."""
    result = [span[END] - span[START] for span in spans]
    for span in spans:
        parent = span[PARENT]
        if parent >= 0:
            result[parent] -= span[END] - span[START]
    return result


def layer_totals(spans: Sequence[list]) -> Dict[str, float]:
    """Summed self seconds per layer (every layer present, zero or not)."""
    totals = {layer: 0.0 for layer in LAYERS}
    for span, own in zip(spans, self_times(spans)):
        totals[span[LAYER]] = totals.get(span[LAYER], 0.0) + own
    return totals


def named_self_total(spans: Sequence[list], name: str) -> float:
    """Summed self seconds of the spans called *name*."""
    return sum(
        own for span, own in zip(spans, self_times(spans)) if span[NAME] == name
    )


def percentile(values: Iterable[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 1]) of *values*."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    position = q * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = position - lower
    return ordered[lower] * (1.0 - fraction) + ordered[upper] * fraction


def ledger_gap(spans: Sequence[list], action_walls: Sequence[float]) -> float:
    """|Σ layer self time − Σ action wall| as a share of Σ action wall."""
    wall = sum(action_walls)
    return abs(sum(layer_totals(spans).values()) - wall) / wall


def check_ledger(
    spans: Sequence[list], action_walls: Sequence[float], tolerance: float = 0.02
) -> Optional[str]:
    """None when the ledger closes within *tolerance*, else the complaint."""
    dangling = [span for span in spans if span[END] == 0.0]
    if dangling:
        return f"{len(dangling)} span(s) never closed, e.g. {dangling[0][NAME]}"
    gap = ledger_gap(spans, action_walls)
    if gap > tolerance:
        return (
            f"layer self times miss the action wall by {gap:.1%} "
            f"(tolerance {tolerance:.0%})"
        )
    return None
