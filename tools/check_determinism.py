#!/usr/bin/env python3
"""Determinism lint for the simulation code under ``src/repro/``.

The whole reproduction is a deterministic simulation: latency, faults,
and data generation all flow from explicit seeds, which is what makes
benchmark numbers and fault-injection tests reproducible.  This pass
walks the Python AST of every module under ``src/repro/`` and rejects
constructs that would smuggle nondeterminism (or real I/O) in:

* ``time.time`` / ``time.monotonic`` / ``time.perf_counter`` /
  ``time.sleep`` — the simulated clock lives in the network layer.
* ``datetime.now`` / ``datetime.today`` / ``datetime.utcnow``.
* module-level ``random.<fn>()`` calls — randomness must come from a
  seeded ``random.Random(seed)`` instance.
* ``socket`` / ``asyncio`` / ``threading`` imports — the wire protocol
  runs over the simulated link, never a real network or real
  concurrency.
* ``os.urandom`` / ``uuid.uuid1`` / ``uuid.uuid4`` / ``secrets``.
* the builtins ``exec`` / ``compile`` anywhere but
  ``sqldb/expressions.py`` — generated code has one home, the expression
  compiler, whose source is a pure function of the plan.

Usage: ``python tools/check_determinism.py [root]`` (default
``src/repro``).  Exits 1 and lists offending ``file:line`` sites.
"""

from __future__ import annotations

import ast
import pathlib
import sys
from typing import Iterator, List, Tuple

#: (module, attribute) call targets that are banned outright.
BANNED_CALLS = {
    ("time", "time"): "use the simulated clock, not wall time",
    ("time", "monotonic"): "use the simulated clock, not wall time",
    ("time", "perf_counter"): "use the simulated clock, not wall time",
    ("time", "sleep"): "the simulation advances time explicitly",
    ("datetime", "now"): "wall-clock timestamps break determinism",
    ("datetime", "today"): "wall-clock timestamps break determinism",
    ("datetime", "utcnow"): "wall-clock timestamps break determinism",
    ("os", "urandom"): "use a seeded random.Random instead",
    ("uuid", "uuid1"): "use a seeded random.Random instead",
    ("uuid", "uuid4"): "use a seeded random.Random instead",
}

#: random-module functions that use the shared, unseeded global state.
GLOBAL_RANDOM_FNS = {
    "random",
    "randint",
    "randrange",
    "choice",
    "choices",
    "shuffle",
    "sample",
    "uniform",
    "gauss",
    "expovariate",
    "seed",
}

#: modules whose import is banned anywhere under src/repro.
BANNED_IMPORTS = {
    "socket": "the wire protocol runs over the simulated link",
    "asyncio": "the simulation is single-threaded and deterministic",
    "threading": "the simulation is single-threaded and deterministic",
    "secrets": "use a seeded random.Random instead",
}

#: Builtins that turn text into code, and the one module allowed them.
CODE_BUILTINS = ("exec", "compile")
CODE_HOME = "sqldb/expressions.py"

Violation = Tuple[str, int, str]


def _dotted(node: ast.AST) -> str:
    """Best-effort dotted name for an attribute/name chain."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def check_module(path: pathlib.Path, rel: str) -> Iterator[Violation]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=rel)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in BANNED_IMPORTS:
                    yield (
                        rel,
                        node.lineno,
                        f"import {alias.name}: {BANNED_IMPORTS[root]}",
                    )
        elif isinstance(node, ast.ImportFrom):
            root = (node.module or "").split(".")[0]
            if root in BANNED_IMPORTS:
                yield (
                    rel,
                    node.lineno,
                    f"from {node.module} import ...: {BANNED_IMPORTS[root]}",
                )
        elif isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            if dotted in CODE_BUILTINS and not rel.replace("\\", "/").endswith(CODE_HOME):
                yield (
                    rel,
                    node.lineno,
                    f"{dotted}(): generated code lives only in {CODE_HOME}",
                )
            parts = dotted.split(".")
            if len(parts) == 2:
                pair = (parts[0], parts[1])
                if pair in BANNED_CALLS:
                    yield (
                        rel,
                        node.lineno,
                        f"{dotted}(): {BANNED_CALLS[pair]}",
                    )
                elif parts[0] == "random" and parts[1] in GLOBAL_RANDOM_FNS:
                    yield (
                        rel,
                        node.lineno,
                        f"{dotted}(): global random state is unseeded; "
                        "use random.Random(seed)",
                    )


def main(argv: List[str]) -> int:
    root = pathlib.Path(argv[1]) if len(argv) > 1 else pathlib.Path("src/repro")
    if not root.is_dir():
        print(f"error: {root} is not a directory", file=sys.stderr)
        return 2
    violations: List[Violation] = []
    for path in sorted(root.rglob("*.py")):
        rel = str(path)
        violations.extend(check_module(path, rel))
    for rel, lineno, message in violations:
        print(f"{rel}:{lineno}: {message}")
    if violations:
        print(f"{len(violations)} determinism violation(s)", file=sys.stderr)
        return 1
    print(f"determinism check: {root} clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
