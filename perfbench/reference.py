"""A fixed reference task, timed between the ops of every pass.

This sandbox shares its cores and memory system with other tenants: for
seconds to minutes at a time everything runs 1.5–2× slower, the engine's
scans a little more so than tight loops.  No estimator over one 15-second
run survives a window that is slow from end to end, so the wall metrics
are reported **at reference speed**: measured wall × (``NOMINAL_S`` ÷ what
the reference task cost in this run).  The task is sampled exactly like an
op — once per slot per pass, minimum over the passes, median over the
slots — so it catches the quiet moments an op catches, and misses the
ones an op misses.

The task is plain Python of the kind the stack is made of (tuple reads, a
filter, small objects, a dict, ``struct`` packing) over a table larger
than the core's private caches, walked a slice per call.  It calls nothing
under ``src/``, so no change to the repo can move it.
"""

from __future__ import annotations

import struct
import time
from typing import List, Sequence

from perfbench.spans import percentile

#: One reference call per this many ops.
EVERY = 8

#: What one call costs on a quiet seed-commit sandbox (seconds).  Only a
#: scale: it makes ``host_speed`` read 1.0 when nothing interferes.
NOMINAL_S = 0.00012

_ROWS = [(i, i * 7 % 1000, f"name-{i}", float(i)) for i in range(24_000)]
_SLICE = 600


class _Box:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: float) -> None:
        self.key = key
        self.value = value


def reference(slot: int) -> int:
    """One call of the reference task (*slot* picks the table slice)."""
    start = slot * _SLICE % len(_ROWS)
    boxes = []
    index = {}
    for row in _ROWS[start:start + _SLICE]:
        if row[1] & 1:
            box = _Box(row[0], row[3] + 1.0)
            boxes.append(box)
            index[row[0]] = box
    packed = b"".join(struct.pack(">qd", b.key, b.value) for b in boxes[:64])
    return len(packed) + len(index)


def sample(calls: int) -> List[float]:
    """Wall seconds of *calls* consecutive reference calls."""
    walls = []
    for slot in range(calls):
        started = time.perf_counter()
        reference(slot)
        walls.append(time.perf_counter() - started)
    return walls


def host_speed(passes: Sequence[List[float]]) -> float:
    """Reference speed of a run: ``NOMINAL_S`` ÷ the median over slots of
    each slot's minimum over the passes (> 1 on a faster host)."""
    best = [min(column) for column in zip(*passes)]
    return NOMINAL_S / percentile(best, 0.5)
