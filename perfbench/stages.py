"""Stage replay: time the engine's public stage functions over the
request frames and statements the traced pass captured.

The boundary spans say how long ``Database.execute`` or
``DatabaseServer.handle`` took as a whole; the replay splits that by
stage — frame decode, lex, parse, plan, execute with a warm plan cache,
result encode, client-side result decode — without touching ``src/``.
SELECT statements only; every figure is the best of :data:`REPEATS`.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.server import protocol
from repro.server.protocol import Opcode
from repro.sqldb import ast_nodes, wire
from repro.sqldb.lexer import tokenize
from repro.sqldb.parser import parse_statement

REPEATS = 3

#: At most this many distinct statements / frames are replayed, evenly
#: spaced through the captured stream (a recursive expand costs ~10 ms a
#: time, so the replay of a few hundred would outlast the pass itself).
SAMPLE = 64


def evenly_spaced(items: Sequence[Any], limit: int = SAMPLE) -> List[Any]:
    if len(items) <= limit:
        return list(items)
    step = len(items) / limit
    return [items[int(i * step)] for i in range(limit)]


def best_of(call: Callable[[], Any], repeats: int = REPEATS) -> Tuple[float, Any]:
    """Smallest wall seconds of *repeats* calls, and the last result."""
    best = float("inf")
    result = None
    for __ in range(repeats):
        started = time.perf_counter()
        result = call()
        best = min(best, time.perf_counter() - started)
    return best, result


def decode_frame(frame: bytes) -> None:
    """What the server does to a request before any engine work."""
    opcode, body = protocol.decode_envelope(frame)
    if opcode is Opcode.SEQUENCED:
        __, __, inner = protocol.decode_sequenced(body)
        opcode, body = protocol.decode_envelope(inner)
    if opcode is Opcode.QUERY:
        wire.decode_query(body)
    elif opcode is Opcode.BATCH:
        protocol.decode_batch(body)


def replay(
    database, frames: Sequence[bytes], statements: Sequence[Tuple[str, tuple]]
) -> Dict[str, float]:
    """Per-stage costs over the captured stream (see the module docstring).

    *statements* are the distinct ``(sql, params)`` pairs in first-seen
    order; non-SELECTs are skipped.
    """
    out: Dict[str, float] = {}
    sampled_frames = evenly_spaced(list(dict.fromkeys(frames)))
    decode_s = sum(best_of(lambda f=f: decode_frame(f))[0] for f in sampled_frames)
    out["server.server.decode_us_per_frame"] = (
        decode_s / len(sampled_frames) * 1e6 if sampled_frames else 0.0
    )

    selects = []
    for sql, params in statements:
        if not isinstance(sql, str):
            continue
        parsed = parse_statement(sql)
        if isinstance(parsed, ast_nodes.SelectStatement):
            selects.append((sql, params, parsed))
    selects = evenly_spaced(selects)
    totals = dict.fromkeys(
        ("lex", "parse", "plan", "exec", "encode", "decode"), 0.0
    )
    rows_scanned = 0
    encoded_bytes = 0
    for sql, params, parsed in selects:
        totals["lex"] += best_of(lambda: tokenize(sql))[0]
        totals["parse"] += best_of(lambda: parse_statement(sql))[0]
        totals["plan"] += best_of(lambda: database.plan_statement(parsed))[0]
        database.execute(sql, params)  # make sure the plan cache holds it
        seconds, result = best_of(lambda: database.execute(sql, params))
        totals["exec"] += seconds
        rows_scanned += database.last_counters.get("rows_scanned", 0)
        seconds, payload = best_of(lambda: wire.encode_result(result))
        totals["encode"] += seconds
        encoded_bytes += len(payload)
        totals["decode"] += best_of(lambda: wire.decode_result(payload))[0]
    count = len(selects)

    def per_stmt(stage: str) -> float:
        return totals[stage] / count * 1e6 if count else 0.0

    out["sqldb.lex_us_per_stmt"] = per_stmt("lex")
    # parse_statement lexes too; report the parser's own share.
    out["sqldb.parse_us_per_stmt"] = max(0.0, per_stmt("parse") - per_stmt("lex"))
    out["sqldb.plan_us_per_stmt"] = per_stmt("plan")
    out["sqldb.exec_hit_us_per_stmt"] = per_stmt("exec")
    out["sqldb.exec_ns_per_row_scanned"] = (
        totals["exec"] / rows_scanned * 1e9 if rows_scanned else 0.0
    )
    out["sqldb.encode_us_per_stmt"] = per_stmt("encode")
    out["sqldb.encode_ns_per_byte"] = (
        totals["encode"] / encoded_bytes * 1e9 if encoded_bytes else 0.0
    )
    out["server.client.decode_us_per_stmt"] = per_stmt("decode")
    return out
