"""Stack factory: one fully wired client / link / server / engine stack
per workload, built from public API only.

The factory asks the constructors what they still accept instead of
hard-coding the engine's switches: ``execution_mode="columnar"`` and
``mvcc=True`` are passed only while ``Database`` (or
``Durability(db_kwargs=...)``) takes them, so a later change that deletes
a constructor switch needs no benchmark edit.  The effective
configuration is recorded on the stack and printed with the results.
"""

from __future__ import annotations

import inspect
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.bench.workload import USER_OPTIONS_VAR, scenario_rules
from repro.concurrency import LockManager, SessionManager
from repro.model.parameters import TreeParameters
from repro.network.clock import SimulatedClock
from repro.network.faults import FLAKY_WAN, FaultPlan, FaultyLink, RetryPolicy
from repro.network.profiles import LAN, WAN_512, LinkProfile
from repro.pdm.generator import GeneratedProduct, generate_product
from repro.pdm.objects import OPTION_STANDARD
from repro.pdm.operations import PDMClient
from repro.pdm.schema import (
    create_pdm_schema,
    install_checkout_procedures,
    load_product,
)
from repro.recovery import Durability, SimDisk
from repro.server.client import RemoteConnection
from repro.server.server import DatabaseServer
from repro.sqldb import Database

#: Engine switches the benchmark wants while they exist.
WANTED_DB_KWARGS = {"execution_mode": "columnar", "mvcc": True}

#: Generator seed of every workload's product.  Structure and visibility
#: are part of the workload definition, not of the run: ``--seed`` picks
#: targets, literals, part-name lengths, fault streams and op order.  (A
#: σ=0.6 visible tree is a branching process that dies out at the root
#: for some generator seeds; 4 gives a healthy visible tree at every
#: shape used here.)
PRODUCT_SEED = 4

#: Passes per run never exceed this (it spaces the per-pass fault seeds).
MAX_PASSES = 64

#: Lock-wait timeout on the simulated clock (the deadlock backstop).
LOCK_TIMEOUT_S = 300.0


@dataclass(frozen=True)
class StackSpec:
    """What one workload's stack is made of."""

    depth: int
    branching: int
    profile: LinkProfile
    #: ``pdm`` wires a PDMClient; ``report`` stops at RemoteConnection and
    #: seeds reporting attributes; ``txn`` adds faults, retries, sessions,
    #: locks and a WAL.
    flavour: str = "pdm"

    @property
    def tree(self) -> TreeParameters:
        return TreeParameters(self.depth, self.branching, 0.6)


SPECS: Dict[str, StackSpec] = {
    "nav_flood": StackSpec(9, 3, WAN_512),
    "recursive_expand": StackSpec(8, 3, WAN_512),
    "report_scan": StackSpec(6, 5, LAN, flavour="report"),
    "txn_mix": StackSpec(6, 4, WAN_512, flavour="txn"),
}

#: A tiny tree for ``--smoke`` runs of the unit tests.
TINY_SPECS: Dict[str, StackSpec] = {
    "nav_flood": StackSpec(5, 3, WAN_512),
    "recursive_expand": StackSpec(5, 3, WAN_512),
    "report_scan": StackSpec(3, 5, LAN, flavour="report"),
    "txn_mix": StackSpec(5, 3, WAN_512, flavour="txn"),
}


@dataclass
class Stack:
    """One wired stack.  ``clients`` is empty for the ``report`` flavour."""

    spec: StackSpec
    product: GeneratedProduct
    server: DatabaseServer
    clock: SimulatedClock
    links: List[Any]
    connections: List[RemoteConnection]
    clients: List[PDMClient] = field(default_factory=list)
    locks: Optional[LockManager] = None
    sessions: Optional[SessionManager] = None
    durability: Optional[Durability] = None
    config: Dict[str, Any] = field(default_factory=dict)

    @property
    def database(self) -> Database:
        """The live database (``server.restart()`` replaces it)."""
        return self.server.database

    def begin_pass(self, pass_index: int) -> None:
        """Put the stack where pass *pass_index* of the op list starts.

        Faulty links get the fault stream of (seed, pass): the same pass of
        the same seed always meets the same drops and spikes, and
        consecutive passes meet different ones, so simulated seconds can
        be pooled over several passes.  The ``report`` flavour re-runs
        ``ANALYZE``, which empties the plan cache: its statements are ad
        hoc, so every pass must lex, parse and plan them again.
        """
        for link in self.links:
            if isinstance(link, FaultyLink):
                link.plan = FaultPlan(
                    link.profile, link.fault_seed * MAX_PASSES + pass_index
                )
        if self.spec.flavour == "report":
            self.database.execute("ANALYZE")


def accepted_db_kwargs() -> Dict[str, Any]:
    """The wanted engine switches ``Database`` still accepts."""
    accepted = inspect.signature(Database).parameters
    return {k: v for k, v in WANTED_DB_KWARGS.items() if k in accepted}


def seed_report_attributes(product: GeneratedProduct) -> None:
    """Give the generated rows spread-out reporting attributes.

    The generator leaves ``weight``/``state``/``make_or_buy`` at their
    defaults; range predicates need a distribution to be selective on.
    Seeded with the product seed, so the data is the same on every run.
    """
    rng = random.Random(PRODUCT_SEED)
    states = ("in_work", "released", "frozen", "obsolete")
    for component in product.components:
        component.weight = round(rng.uniform(0.05, 50.0), 3)
        component.state = rng.choice(states)
        component.make_or_buy = "buy" if rng.random() < 0.35 else "make"
    for assembly in product.assemblies:
        assembly.weight = round(rng.uniform(1.0, 500.0), 3)
        assembly.state = rng.choice(states)


def seed_names(product: GeneratedProduct, seed: int) -> None:
    """Give every part a name of seeded length.

    The generator names parts ``Assy<obid>`` / ``Comp<obid>``: same length
    everywhere, so every row of a kind has the same wire size and the
    simulated seconds of an op class are one number whatever the seed.
    Real part names differ in length; a seeded suffix of 0–12 characters
    makes transfer time depend on which parts an action touched.
    """
    rng = random.Random(seed)
    for part in (*product.assemblies, *product.components):
        part.name += "-" + "x" * rng.randrange(13)


def _open_database(durable: bool, config: Dict[str, Any]):
    """A fresh database, WAL-backed through ``Durability`` when *durable*."""
    db_kwargs = accepted_db_kwargs()
    config["db_kwargs"] = dict(db_kwargs)
    if not durable:
        return Database(**db_kwargs), None
    durability_kwargs: Dict[str, Any] = {"disk": SimDisk()}
    if "db_kwargs" in inspect.signature(Durability).parameters:
        durability_kwargs["db_kwargs"] = db_kwargs
    else:
        config["db_kwargs"] = {}
    durability = Durability(**durability_kwargs)
    return durability.open(), durability


def build_stack(name: str, seed: int = 0, tiny: bool = False) -> Stack:
    """Generate the product, load it and wire the stack for workload *name*.

    *seed* seeds the part names and the fault plans of the ``txn``
    flavour; structure, visibility and reporting attributes are the same
    on every run.
    """
    spec = (TINY_SPECS if tiny else SPECS)[name]
    config: Dict[str, Any] = {
        "tree": [spec.depth, spec.branching, 0.6],
        "product_seed": PRODUCT_SEED,
        "link": spec.profile.name,
    }
    product = generate_product(
        spec.tree, seed=PRODUCT_SEED, user_options=OPTION_STANDARD
    )
    seed_names(product, seed)
    if spec.flavour == "report":
        seed_report_attributes(product)
    durable = spec.flavour == "txn"
    database, durability = _open_database(durable, config)
    create_pdm_schema(database)
    load_product(database, product)
    if spec.flavour == "report":
        database.execute("ANALYZE")
    if durability is not None:
        durability.checkpoint()

    clock = SimulatedClock()
    locks = sessions = None
    server_kwargs: Dict[str, Any] = {}
    if durable:
        locks = LockManager(clock=clock, timeout_s=LOCK_TIMEOUT_S)
        sessions = SessionManager(database, locks)
        server_kwargs = {"sessions": sessions, "durability": durability}
        config.update(faults=FLAKY_WAN.name, retry_policy="RetryPolicy()",
                      sessions="SEQUENCED", wal="SimDisk", locks="2PL")
    server = DatabaseServer(database, **server_kwargs)
    install_checkout_procedures(server)

    links: List[Any] = []
    connections: List[RemoteConnection] = []
    clients: List[PDMClient] = []
    for index in range(2 if durable else 1):
        link = spec.profile.create_link(clock=clock)
        retry_policy = None
        if durable:
            link = FaultyLink.wrap(link, FLAKY_WAN, seed=seed * 2 + index)
            retry_policy = RetryPolicy()
        connection = RemoteConnection(server, link, retry_policy=retry_policy)
        if durable:
            connection.open_session()
        links.append(link)
        connections.append(connection)
        if spec.flavour != "report":
            clients.append(
                PDMClient(
                    connection,
                    rule_table=scenario_rules(),
                    user=f"user{index}",
                    user_env={USER_OPTIONS_VAR: OPTION_STANDARD},
                )
            )
    return Stack(
        spec=spec,
        product=product,
        server=server,
        clock=clock,
        links=links,
        connections=connections,
        clients=clients,
        locks=locks,
        sessions=sessions,
        durability=durability,
        config=config,
    )
