"""Build ready-to-measure scenarios: database + server + WAN + client.

A :class:`Scenario` wires the whole stack together for one (tree, network
profile) cell of the paper's evaluation grid.  The σ visibility of the
analytic model is realised by structure-option access rules evaluated via
the ``options_overlap`` stored function (paper example 3 semantics, with
relations as first-class objects)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.model.parameters import TreeParameters
from repro.network.faults import FaultProfile, FaultyLink, RetryPolicy
from repro.network.link import NetworkLink
from repro.network.profiles import LinkProfile, WAN_256
from repro.pdm.generator import GeneratedProduct, generate_product
from repro.pdm.objects import OPTION_STANDARD
from repro.pdm.operations import PDMClient
from repro.pdm.schema import (
    create_pdm_schema,
    install_checkout_procedures,
    load_product,
)
from repro.rules.conditions import Attribute, BoolFunction, UserVar
from repro.rules.model import Actions, Rule
from repro.rules.ruletable import RuleTable
from repro.server.client import RemoteConnection
from repro.server.server import DatabaseServer
from repro.sqldb.database import Database

#: The user variable carrying the selected structure options.
USER_OPTIONS_VAR = "user_options"


def scenario_rules() -> RuleTable:
    """Access rules realising σ: an object/link is visible iff its
    structure-option mask overlaps the user's selected options.

    One rule per object type, all using the stored function — this is the
    rule set the σ-Bernoulli generator encodes its ground truth against.
    """
    table = RuleTable()
    for object_type in ("assy", "comp", "link"):
        table.add(
            Rule(
                user="*",
                action=Actions.ACCESS,
                object_type=object_type,
                condition=BoolFunction(
                    "options_overlap",
                    (Attribute("strc_opt"), UserVar(USER_OPTIONS_VAR)),
                ),
                name=f"options-{object_type}",
            )
        )
    return table


@dataclass
class Scenario:
    """One fully wired evaluation cell."""

    tree: TreeParameters
    profile: LinkProfile
    product: GeneratedProduct
    database: Database
    server: DatabaseServer
    link: NetworkLink
    connection: RemoteConnection
    client: PDMClient
    rule_table: RuleTable
    user_env: Dict[str, object]
    #: The attached :class:`repro.obs.TraceRecorder`, or None (untraced).
    recorder: Optional[object] = None

    def fresh_client(self, **overrides) -> PDMClient:
        """A new client on the same connection (e.g. different user)."""
        options = {
            "rule_table": self.rule_table,
            "user": "scott",
            "user_env": self.user_env,
        }
        options.update(overrides)
        return PDMClient(self.connection, **options)


def build_scenario(
    tree: TreeParameters,
    profile: LinkProfile = WAN_256,
    seed: int = 0,
    rule_table: Optional[RuleTable] = None,
    spec_probability: float = 0.0,
    node_bytes: int = 512,
    user: str = "scott",
    product: Optional[GeneratedProduct] = None,
    fault_profile: Optional[FaultProfile] = None,
    fault_seed: int = 0,
    retry_policy: Optional[RetryPolicy] = None,
    recorder=None,
) -> Scenario:
    """Generate (or reuse) a product, load it, and wire up the stack.

    Passing a pre-generated ``product`` lets the harness share one big
    database across several network profiles (only the link changes).

    ``fault_profile`` swaps the perfect link for a fault-injecting one
    (deterministic under ``fault_seed``); ``retry_policy`` arms the
    connection's resilient driver — with faults but no policy, injected
    losses propagate to the caller, which is occasionally what an
    experiment wants to observe.

    ``recorder`` (a :class:`repro.obs.TraceRecorder`) attaches the
    tracing layer to the whole stack via
    :func:`repro.obs.instrument_stack`; None leaves every layer
    untraced, which is guaranteed not to change any measurement.
    """
    if product is None:
        product = generate_product(
            tree,
            seed=seed,
            node_bytes=node_bytes,
            spec_probability=spec_probability,
            user_options=OPTION_STANDARD,
        )
    database = Database()
    create_pdm_schema(database)
    load_product(database, product)
    server = DatabaseServer(database)
    install_checkout_procedures(server)
    link = profile.create_link()
    if fault_profile is not None:
        link = FaultyLink.wrap(link, fault_profile, seed=fault_seed)
    connection = RemoteConnection(server, link, retry_policy=retry_policy)
    if recorder is not None:
        from repro.obs import instrument_stack

        instrument_stack(
            recorder,
            link=link,
            connection=connection,
            server=server,
            database=database,
        )
    table = rule_table if rule_table is not None else scenario_rules()
    user_env = {USER_OPTIONS_VAR: OPTION_STANDARD}
    client = PDMClient(
        connection,
        rule_table=table,
        user=user,
        user_env=user_env,
    )
    return Scenario(
        tree=tree,
        profile=profile,
        product=product,
        database=database,
        server=server,
        link=link,
        connection=connection,
        client=client,
        rule_table=table,
        user_env=user_env,
        recorder=recorder,
    )
