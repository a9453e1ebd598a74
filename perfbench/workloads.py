"""The four workloads: seeded op lists, their executors and the oracle.

An *op* is one user action (or one reporting statement, or one
transaction script) driven through public API.  Every workload is a
fixed table of **op classes** — (kind, target selector, count) — so the
distribution of work per action is the same for every ``--seed``; the
seed picks which member of a class each op targets, the literals, and
the order.  Without that, the median op of a run with another seed would
sit on another subtree size and ``wall_ms_p50`` / ``sim_s_p50`` would
jump by a whole round trip (a σ=0.6 tree has mostly 2–5-node visible
subtrees, so quantiles are steps, not slopes).  The classes that hold the
50th and 95th percentile are exact-size classes for that reason.

Everything that checks results lives here too (``check_*``): the
generator's ground truth for expands, stdlib ``sqlite3`` for the
reporting statements, and the commit ledger for ``txn_mix``.
"""

from __future__ import annotations

import math
import random
import sqlite3
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import CheckOutError
from repro.pdm.generator import GeneratedProduct
from repro.pdm.operations import CheckOutMode, ExpandStrategy
from repro.server.client import RETRIABLE_TXN_ERRORS

from perfbench.stack import Stack

WORKLOADS = ("nav_flood", "recursive_expand", "report_scan", "txn_mix")


# ---------------------------------------------------------------------------
# Ground truth about the generated product
# ---------------------------------------------------------------------------


@dataclass
class GroundTruth:
    """What the generator knows about visibility, per object.

    ``size`` is the number of visible nodes in an assembly's subtree
    (itself included) — the navigational expand's round-trip count;
    ``height`` the number of assembly levels in it — the batched expand's
    round-trip count; ``level`` the distance from the root.
    """

    product: GeneratedProduct
    assemblies: Set[int]
    size: Dict[int, int] = field(default_factory=dict)
    height: Dict[int, int] = field(default_factory=dict)
    level: Dict[int, int] = field(default_factory=dict)
    parent: Dict[int, int] = field(default_factory=dict)

    @classmethod
    def of(cls, product: GeneratedProduct) -> "GroundTruth":
        truth = cls(product, {a.obid for a in product.assemblies})
        truth._walk(product.root_obid, 0)
        return truth

    def _walk(self, obid: int, level: int) -> None:
        """Fill size/height/level/parent for the visible subtree (depth
        is bounded by the tree's δ, so plain recursion is fine)."""
        self.level[obid] = level
        size, height = 1, 0
        for __, child in self.product.children.get(obid, ()):
            if child not in self.product.visible_obids:
                continue
            self.parent[child] = obid
            self._walk(child, level + 1)
            size += self.size[child]
            height = max(height, self.height[child])
        self.size[obid] = size
        self.height[obid] = height + 1 if obid in self.assemblies else 0

    def visible_subtree(self, obid: int) -> Set[int]:
        found = {obid}
        stack = [obid]
        while stack:
            for __, child in self.product.children.get(stack.pop(), ()):
                if child in self.product.visible_obids:
                    found.add(child)
                    stack.append(child)
        return found

    def visible_children(self, obid: int) -> Set[int]:
        return {
            child
            for __, child in self.product.children.get(obid, ())
            if child in self.product.visible_obids
        }

    def full_subtree_size(self, obid: int) -> int:
        """All nodes below *obid*, visible or not (what the check-out
        procedure collects: it follows every link)."""
        count, stack = 0, [obid]
        while stack:
            count += 1
            stack.extend(c for __, c in self.product.children.get(stack.pop(), ()))
        return count

    def ancestors(self, obid: int) -> List[int]:
        chain = []
        while obid in self.parent:
            obid = self.parent[obid]
            chain.append(obid)
        return chain

    def assemblies_below_root(self) -> List[int]:
        root = self.product.root_obid
        return sorted(o for o in self.size if o in self.assemblies and o != root)

    def visible_components(self) -> List[int]:
        return sorted(o for o in self.size if o not in self.assemblies)


# ---------------------------------------------------------------------------
# Ops and op classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    kind: str
    #: Target obid (PDM / txn ops) or statement text (report ops).
    target: Any
    #: Root attributes for expands (the model assumes the root of an
    #: expand "is already at the client").
    attrs: Optional[Dict[str, Any]] = None
    #: Which of the two logical clients acts (txn_mix only).
    client: int = 0
    #: Check-out cycles only: the other client tries the held subtree.
    contested: bool = False


@dataclass(frozen=True)
class OpClass:
    """*count* ops of *kind* on targets whose visible subtree has between
    *lo* and *hi* nodes (and, when given, exactly *height* assembly
    levels / sits at exactly *level*)."""

    kind: str
    count: int
    lo: int = 1
    hi: int = 10**9
    height: Optional[int] = None
    level: Optional[int] = None


def _mle(lo: int, hi: int, late: int, early: int) -> List[OpClass]:
    return [OpClass("mle_late", late, lo, hi), OpClass("mle_early", early, lo, hi)]


#: 1 000 ops.  Sorted by round trips the classes stack up as: sle 15 %,
#: size-1 2 %, size-2 13 %, size-3 14 %, **size-4 20 % (44–64 %: holds
#: p50)**, size-5 7 %, sizes 6–8 11 %, size-9 5 %, **size-10 8 %
#: (88–96 %: holds p95)**, larger 4.8 %, query 0.2 % (one whole-product
#: scan costs as much host time as ~150 median expands, so it stays rare).
NAV_FLOOD_CLASSES: List[OpClass] = [
    OpClass("sle", 150),
    OpClass("query", 2),
    *_mle(1, 1, 10, 10),
    *_mle(2, 2, 65, 65),
    *_mle(3, 3, 70, 70),
    *_mle(4, 4, 100, 100),
    *_mle(5, 5, 35, 35),
    *_mle(6, 8, 55, 55),
    *_mle(9, 9, 25, 25),
    *_mle(10, 10, 40, 40),
    *_mle(11, 40, 24, 24),
]

#: 240 ops: where_used 15 %, batched 25 %, recursive 60 %.  By host time
#: where_used < batched < recursive, so p50 sits in the recursive size-3
#: class (45–60 %) and p95 in the recursive size-8 class (87–97 %).  By
#: simulated time everything but the taller batched expands is one round
#: trip; p95 sits in the batched height-3 class (93–98 %).
RECURSIVE_EXPAND_CLASSES: List[OpClass] = [
    OpClass("where_used", 36),
    OpClass("mle_batched", 24, 2, 4, height=1),
    OpClass("mle_batched", 19, 3, 8, height=2),
    OpClass("mle_batched", 12, 6, 7, height=3),
    OpClass("mle_batched", 5, 8, 40, height=4),
    OpClass("mle_recursive", 12, 2, 2),
    OpClass("mle_recursive", 36, 3, 3),
    OpClass("mle_recursive", 31, 4, 4),
    OpClass("mle_recursive", 19, 5, 6),
    OpClass("mle_recursive", 15, 7, 7),
    OpClass("mle_recursive", 24, 8, 8),
    OpClass("mle_recursive", 7, 9, 40),
]

#: 300 ops, 50 per kind.  Check-out targets are picked by level because
#: the procedure collects the *whole* subtree (every link, visible or
#: not): 5 nodes one level above the leaves, 21 two levels above.
TXN_MIX_CLASSES: List[OpClass] = [
    OpClass("sle", 50),
    OpClass("where_used", 50),
    OpClass("mle_batched", 30, 3, 4, height=1),
    OpClass("mle_batched", 20, 7, 8, height=2),
    OpClass("eco", 50, 2, 5),
    OpClass("checkout_cycle", 35, level=-1),
    OpClass("checkout_cycle", 15, level=-2),
    OpClass("audit", 50, 5, 8, height=2),
]

#: 240 statements.  By host time narrow < arith < range < **order_limit
#: (40–60 %: p50)** < group < **distinct (76–96 %: p95)** < join_rollup <
#: three-way.  A join costs ten scans, so the joins stay at ten ops: they
#: weigh in ``actions_per_s`` (a quarter of a pass) and in their own
#: per-kind metric, not in the percentiles.
REPORT_FAMILIES: List[Tuple[str, int]] = [
    ("scan_narrow", 30),
    ("project_arith", 30),
    ("scan_range", 36),
    ("order_limit", 48),
    ("group_rollup", 40),
    ("distinct", 46),
    ("join_rollup", 8),
    ("join_three_way", 2),
]

PDM_KINDS = (
    "mle_late", "mle_early", "sle", "query",
    "mle_recursive", "mle_batched", "where_used",
)
TXN_KINDS = ("eco", "checkout_cycle", "audit")
REPORT_KINDS = tuple(name for name, __ in REPORT_FAMILIES)

#: Metric-name prefix of every op kind (``<prefix>.<kind>.wall_ms_p50``).
KIND_PREFIX: Dict[str, str] = {
    **{kind: "pdm" for kind in PDM_KINDS},
    **{kind: "txn" for kind in TXN_KINDS},
    **{kind: "report" for kind in REPORT_KINDS},
}

#: Every fourth check-out cycle has the other client try the held
#: subtree: an expected refusal, counted in ``pdm.checkout_conflicts``.
CONTESTED_EVERY = 4


def assembly_attrs(assembly) -> Dict[str, Any]:
    """Client-resident attributes of an expand's root (the same mapping
    ``GeneratedProduct.root_attributes`` builds for the product root)."""
    return {
        "type": "assy",
        "obid": assembly.obid,
        "name": assembly.name,
        "dec": "+" if assembly.decomposable else "-",
        "make_or_buy": assembly.make_or_buy,
        "weight": assembly.weight,
        "state": assembly.state,
        "checkedout": assembly.checked_out,
        "product": assembly.product,
        "strc_opt": assembly.strc_opt,
        "payload": assembly.payload,
    }


def scaled(count: int, smoke: bool) -> int:
    """Class size for this run: 1/20 (at least one op) under ``--smoke``."""
    return max(1, count // 20) if smoke else count


def class_members(truth: GroundTruth, cls: OpClass) -> List[int]:
    """Targets of *cls*; the nearest size when the exact class is empty
    (only a tree smaller than the workload's own can make it so)."""
    if cls.kind == "query":
        return [truth.product.root_obid]
    if cls.kind == "where_used":
        return truth.visible_components()
    pool = truth.assemblies_below_root()
    if cls.level is not None:
        depth = truth.product.tree.depth + cls.level
        return [o for o in pool if truth.level[o] == depth] or pool
    exact = [
        o
        for o in pool
        if cls.lo <= truth.size[o] <= cls.hi
        and (cls.height is None or truth.height[o] == cls.height)
    ]
    if exact:
        return exact
    nearest = min(abs(truth.size[o] - cls.lo) for o in pool)
    return [o for o in pool if abs(truth.size[o] - cls.lo) == nearest]


def pdm_ops(
    truth: GroundTruth,
    classes: Sequence[OpClass],
    seed: int,
    smoke: bool = False,
    clients: int = 1,
) -> List[Op]:
    """The seeded op list of a PDM / txn workload; ops alternate between
    the *clients* logical clients."""
    rng = random.Random(seed)
    assemblies = {a.obid: a for a in truth.product.assemblies}
    picks: List[Tuple[str, int, bool]] = []
    cycles = 0
    for cls in classes:
        members = class_members(truth, cls)
        for __ in range(scaled(cls.count, smoke)):
            contested = False
            if cls.kind == "checkout_cycle":
                cycles += 1
                contested = cycles % CONTESTED_EVERY == 0
            picks.append((cls.kind, rng.choice(members), contested))
    rng.shuffle(picks)
    return [
        Op(
            kind,
            target,
            attrs=assembly_attrs(assemblies[target]) if target in assemblies else None,
            client=index % clients,
            contested=contested,
        )
        for index, (kind, target, contested) in enumerate(picks)
    ]


# -- reporting statements -----------------------------------------------------


def _literal(value: float) -> str:
    return f"{value:.3f}"


def report_ops(truth: GroundTruth, seed: int, smoke: bool = False) -> List[Op]:
    """Ad-hoc reporting statements with inlined literals.

    Literals are taken from the data's own order statistics, so every
    statement of a family matches about the same number of rows whatever
    the seed, and every text is unique (the plan cache never hits).
    """
    rng = random.Random(seed)
    weights = sorted(c.weight for c in truth.product.components)
    assembly_weights = sorted(a.weight for a in truth.product.assemblies)
    n = len(weights)
    states = ("in_work", "released", "frozen", "obsolete")

    def at(fraction: float, jitter: int = 40) -> float:
        """A weight near the *fraction* quantile (seeded jitter in rank)."""
        index = int(fraction * n) + rng.randint(-jitter, jitter)
        return weights[max(0, min(n - 1, index))]

    def build(family: str) -> str:
        if family == "scan_range":
            width = max(1, n // 50)
            low = rng.randrange(0, n - width)
            return (
                "SELECT obid, name, weight FROM comp WHERE weight >= "
                f"{_literal(weights[low])} AND weight < {_literal(weights[low + width])}"
            )
        if family == "scan_narrow":
            return (
                f"SELECT obid FROM comp WHERE weight < {_literal(at(0.2))} "
                f"AND state = '{rng.choice(states)}' AND make_or_buy = 'buy'"
            )
        if family == "project_arith":
            return (
                f"SELECT obid, weight * {rng.randint(2, 9)}.5 + 1, "
                f"strc_opt + {rng.randint(1, 99)} FROM comp "
                f"WHERE weight >= {_literal(at(0.94))}"
            )
        if family == "group_rollup":
            return (
                "SELECT state, make_or_buy, COUNT(*), SUM(weight) FROM comp "
                f"WHERE weight < {_literal(at(0.63))} GROUP BY state, make_or_buy"
            )
        if family == "join_rollup":
            return (
                "SELECT link.left, COUNT(*), SUM(comp.weight) FROM link "
                "JOIN comp ON link.right = comp.obid "
                f"WHERE comp.weight >= {_literal(at(0.965))} GROUP BY link.left"
            )
        if family == "join_three_way":
            middle = assembly_weights[len(assembly_weights) // 2]
            return (
                "SELECT assy.obid, assy.name, comp.obid FROM assy "
                "JOIN link ON assy.obid = link.left "
                "JOIN comp ON link.right = comp.obid "
                f"WHERE comp.weight < {_literal(at(0.018, 20))} "
                f"AND assy.weight > {_literal(middle + rng.random())}"
            )
        if family == "order_limit":
            return (
                f"SELECT obid, name, weight FROM comp WHERE weight > {_literal(at(0.8))} "
                "ORDER BY weight DESC, obid LIMIT 20"
            )
        width = max(1, n // 25)
        low = rng.randrange(0, n - width)
        return (
            "SELECT DISTINCT state, make_or_buy FROM comp WHERE weight BETWEEN "
            f"{_literal(weights[low])} AND {_literal(weights[low + width])}"
        )

    seen: Set[str] = set()
    ops: List[Op] = []
    for family, count in REPORT_FAMILIES:
        wanted = scaled(count, smoke)
        for __ in range(wanted * 50):
            sql = build(family)
            if sql not in seen:
                seen.add(sql)
                ops.append(Op(family, sql))
                wanted -= 1
                if not wanted:
                    break
        else:
            raise ValueError(f"too few rows for {count} distinct {family} texts")
    rng.shuffle(ops)
    return ops


def make_ops(name: str, truth: GroundTruth, seed: int, smoke: bool = False) -> List[Op]:
    if name == "report_scan":
        return report_ops(truth, seed, smoke)
    classes = {
        "nav_flood": NAV_FLOOD_CLASSES,
        "recursive_expand": RECURSIVE_EXPAND_CLASSES,
        "txn_mix": TXN_MIX_CLASSES,
    }[name]
    return pdm_ops(truth, classes, seed, smoke, clients=2 if name == "txn_mix" else 1)


# ---------------------------------------------------------------------------
# Executors
# ---------------------------------------------------------------------------

ECO_ASSY_SQL = "UPDATE assy SET weight = ?, state = 'eco' WHERE obid = ?"
ECO_LINK_SQL = "UPDATE link SET eff_to = ? WHERE left = ?"
AUDIT_SQL = "SELECT COUNT(*), SUM(weight) FROM assy WHERE product = ?"
ECO_EFF_BASE = 100_000


@dataclass
class Context:
    """A stack plus what the executors and the oracle need beside it."""

    stack: Stack
    truth: GroundTruth
    #: assembly obid -> token of its last acknowledged ECO commit.
    acked: Dict[int, int] = field(default_factory=dict)
    checkout_conflicts: int = 0
    lock_conflicts: int = 0
    txn_commits: int = 0


def _eco_txn(connection, target: int, token: int) -> Tuple[int, int]:
    """One ECO write transaction; rolled back (and re-raised) when it
    meets a lock conflict."""
    connection.begin()
    try:
        first = connection.execute(ECO_ASSY_SQL, [float(token), target])
        second = connection.execute(
            ECO_LINK_SQL, [ECO_EFF_BASE + token % 800_000, target]
        )
        connection.commit()
    except RETRIABLE_TXN_ERRORS:
        connection.rollback()
        raise
    return first.rowcount, second.rowcount


def _run_mle(strategy: ExpandStrategy) -> Callable[[Context, Op, int], Any]:
    def run(ctx: Context, op: Op, token: int) -> Any:
        return ctx.stack.clients[op.client].multi_level_expand(
            op.target, strategy, root_attrs=op.attrs
        )

    return run


def _run_sle(ctx: Context, op: Op, token: int) -> Any:
    return ctx.stack.clients[op.client].single_level_expand(
        op.target, ExpandStrategy.NAVIGATIONAL_EARLY
    )


def _run_query(ctx: Context, op: Op, token: int) -> Any:
    return ctx.stack.clients[op.client].query(
        op.target, ExpandStrategy.NAVIGATIONAL_EARLY
    )


def _run_where_used(ctx: Context, op: Op, token: int) -> Any:
    return ctx.stack.clients[op.client].where_used(
        op.target, ExpandStrategy.RECURSIVE_EARLY
    )


def _run_report(ctx: Context, op: Op, token: int) -> Any:
    return ctx.stack.connections[0].execute(op.target)


def _run_eco(ctx: Context, op: Op, token: int) -> Any:
    counts = _eco_txn(ctx.stack.connections[op.client], op.target, token)
    ctx.acked[op.target] = token
    ctx.txn_commits += 1
    return counts


def _run_checkout_cycle(ctx: Context, op: Op, token: int) -> Any:
    mine = ctx.stack.clients[op.client]
    out = mine.check_out(op.target, CheckOutMode.SERVER_PROCEDURE)
    refused = not op.contested
    if op.contested:
        try:
            ctx.stack.clients[1 - op.client].check_out(
                op.target, CheckOutMode.SERVER_PROCEDURE
            )
        except CheckOutError:
            ctx.checkout_conflicts += 1
            refused = True
    back = mine.check_in(op.target, CheckOutMode.SERVER_PROCEDURE)
    return len(out.checked_out), len(back.checked_out), refused


def _run_audit(ctx: Context, op: Op, token: int) -> Any:
    """A READ ONLY audit that stays open while the other client commits an
    ECO on the audited subtree.  A writer that meets the reader's locks
    (a build without snapshot reads) rolls back and retries once the
    reader has committed."""
    reader = ctx.stack.clients[op.client]
    writer = ctx.stack.connections[1 - op.client]
    root = ctx.truth.product.root_obid
    reader.connection.begin(read_only=True)
    expand = reader.multi_level_expand(
        op.target, ExpandStrategy.EXPAND_BATCHED, root_attrs=op.attrs
    )
    before = reader.connection.execute(AUDIT_SQL, [root]).rows[0]
    deferred = False
    try:
        _eco_txn(writer, op.target, token)
    except RETRIABLE_TXN_ERRORS:
        ctx.lock_conflicts += 1
        deferred = True
    after = reader.connection.execute(AUDIT_SQL, [root]).rows[0]
    reader.connection.commit()
    if deferred:
        _eco_txn(writer, op.target, token)
    ctx.acked[op.target] = token
    ctx.txn_commits += 1
    return expand, before, after


EXECUTORS: Dict[str, Callable[[Context, Op, int], Any]] = {
    "mle_late": _run_mle(ExpandStrategy.NAVIGATIONAL_LATE),
    "mle_early": _run_mle(ExpandStrategy.NAVIGATIONAL_EARLY),
    "mle_recursive": _run_mle(ExpandStrategy.RECURSIVE_EARLY),
    "mle_batched": _run_mle(ExpandStrategy.EXPAND_BATCHED),
    "sle": _run_sle,
    "query": _run_query,
    "where_used": _run_where_used,
    "eco": _run_eco,
    "checkout_cycle": _run_checkout_cycle,
    "audit": _run_audit,
    **{family: _run_report for family in REPORT_KINDS},
}


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------


def fingerprint(op: Op, result: Any) -> Any:
    """A cheap, pass-independent digest of a result, compared between the
    verified warm-up pass and every timed pass."""
    if op.kind in REPORT_KINDS:
        return len(result.rows)
    if op.kind == "audit":
        return result[0].node_count
    if op.kind in ("eco", "checkout_cycle"):
        return result
    return result.node_count


def _rows_equal(ours: Sequence[tuple], theirs: Sequence[tuple]) -> bool:
    """Multiset equality with a float tolerance (SUM adds in scan order,
    which the two engines need not share)."""
    if len(ours) != len(theirs):
        return False

    def key(row: tuple) -> tuple:
        return tuple(
            round(v, 6) if isinstance(v, float) else (int(v) if isinstance(v, bool) else v)
            for v in row
        )

    for mine, other in zip(sorted(ours, key=key), sorted(theirs, key=key)):
        for a, b in zip(mine, other):
            if isinstance(a, float) or isinstance(b, float):
                if not math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9):
                    return False
            elif a != b:
                return False
    return True


class SqliteOracle:
    """stdlib ``sqlite3`` loaded with the product's rows."""

    def __init__(self, product: GeneratedProduct) -> None:
        self.connection = sqlite3.connect(":memory:")
        cur = self.connection.cursor()
        cur.execute(
            "CREATE TABLE assy (type, obid INTEGER PRIMARY KEY, name, dec, "
            "make_or_buy, weight REAL, state, checkedout, checkedout_by, "
            "product, strc_opt, payload)"
        )
        cur.execute(
            "CREATE TABLE comp (type, obid INTEGER PRIMARY KEY, name, "
            "make_or_buy, weight REAL, state, checkedout, checkedout_by, "
            "product, strc_opt, payload)"
        )
        cur.execute(
            "CREATE TABLE link (type, obid INTEGER PRIMARY KEY, left INTEGER, "
            "right INTEGER, eff_from, eff_to, strc_opt)"
        )
        cur.executemany(
            "INSERT INTO assy VALUES (?,?,?,?,?,?,?,?,?,?,?,?)",
            [a.to_row() for a in product.assemblies],
        )
        cur.executemany(
            "INSERT INTO comp VALUES (?,?,?,?,?,?,?,?,?,?,?)",
            [c.to_row() for c in product.components],
        )
        cur.executemany(
            "INSERT INTO link VALUES (?,?,?,?,?,?,?)",
            [link.to_row() for link in product.links],
        )
        cur.execute("CREATE INDEX link_left ON link (left)")
        cur.execute("CREATE INDEX link_right ON link (right)")
        self.connection.commit()

    def rows(self, sql: str) -> List[tuple]:
        return self.connection.execute(sql).fetchall()

    def close(self) -> None:
        self.connection.close()


def check_result(
    ctx: Context, op: Op, result: Any, oracle: Optional[SqliteOracle]
) -> Optional[str]:
    """None when *result* is right, else what is wrong with it."""
    truth = ctx.truth
    kind = op.kind
    if kind in REPORT_KINDS:
        if oracle is None:
            return None
        if not _rows_equal(result.rows, oracle.rows(op.target)):
            return f"{kind}: rows differ from sqlite3 for {op.target!r}"
        return None
    if kind.startswith("mle_"):
        got = result.tree.obids() if result.tree is not None else set()
        if got != truth.visible_subtree(op.target):
            return f"{kind}: node set of {op.target} differs from ground truth"
        return None
    if kind == "sle":
        if {o["obid"] for o in result.objects} != truth.visible_children(op.target):
            return f"sle: children of {op.target} differ from ground truth"
        return None
    if kind == "query":
        if {o["obid"] for o in result.objects} != truth.product.visible_obids:
            return "query: object set differs from the visible set"
        return None
    if kind == "where_used":
        if [o["obid"] for o in result.objects] != truth.ancestors(op.target):
            return f"where_used: ancestors of {op.target} differ from ground truth"
        return None
    if kind == "eco":
        fan_out = len(truth.product.children.get(op.target, ()))
        if result != (1, fan_out):
            return f"eco: updated {result}, expected (1, {fan_out})"
        return None
    if kind == "checkout_cycle":
        expected = truth.full_subtree_size(op.target)
        if result != (expected, expected, True):
            return f"checkout_cycle: {result}, expected {expected} out and in"
        return None
    expand, before, after = result
    got = expand.tree.obids() if expand.tree is not None else set()
    if got != truth.visible_subtree(op.target):
        return f"audit: node set of {op.target} differs from ground truth"
    if before != after:
        return f"audit: snapshot moved under the reader ({before} -> {after})"
    return None


def audit_durability(ctx: Context) -> Tuple[List[str], float, int]:
    """The closing audit of ``txn_mix``: check-outs released, then crash,
    restart, and every acknowledged commit readable with nothing else
    changed.  Returns (problems, restart wall seconds, replayed records).
    """
    stack = ctx.stack
    problems: List[str] = []
    fan_out = ctx.truth.product.tree.branching

    def state(execute) -> Tuple[Dict[int, float], int, int]:
        weights = {
            row[0]: row[1]
            for row in execute("SELECT obid, weight FROM assy WHERE state = 'eco'").rows
        }
        moved = execute(
            "SELECT COUNT(*) FROM link WHERE eff_to <> 999999"
        ).scalar()
        held = sum(
            execute(f"SELECT COUNT(*) FROM {table} WHERE checkedout = TRUE").scalar()
            for table in ("assy", "comp")
        )
        return weights, int(moved), int(held)

    def compare(label: str, found: Tuple[Dict[int, float], int, int]) -> None:
        weights, moved, held = found
        expected = {obid: float(token) for obid, token in ctx.acked.items()}
        lost = sorted(o for o in expected if weights.get(o) != expected[o])
        extra = sorted(o for o in weights if o not in expected)
        if lost:
            problems.append(f"{label}: lost commits on {lost[:5]}")
        if extra:
            problems.append(f"{label}: resurrected writes on {extra[:5]}")
        if moved != fan_out * len(expected):
            problems.append(f"{label}: {moved} link rows moved, expected "
                            f"{fan_out * len(expected)}")
        if held:
            problems.append(f"{label}: {held} objects still checked out")

    connection = stack.connections[0]
    compare("before crash", state(connection.execute))
    if stack.locks is not None:
        for client in stack.clients:
            owner = stack.locks.persistent_owner(("checkout", client.user))
            if stack.locks.locks_held(owner):
                problems.append(f"{client.user} still holds check-out locks")
    replayed_before = stack.server.statistics["replayed_records"]
    stack.server.crash()
    started = time.perf_counter()
    stack.server.restart()
    restart_s = time.perf_counter() - started
    for conn in stack.connections:
        conn.mark_session_lost()
        conn.open_session()
    compare("after restart", state(connection.execute))
    replayed = stack.server.statistics["replayed_records"] - replayed_before
    return problems, restart_s, replayed
