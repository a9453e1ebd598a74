"""Reproduction of "Tuning an SQL-Based PDM System in a Worldwide
Client/Server Environment" (Mueller, Dadam, Enderle, Feltes - ICDE 2001).

The package builds the paper's full stack from scratch:

* :mod:`repro.sqldb` - a relational engine with SQL:1999 recursion,
* :mod:`repro.network` - a deterministic WAN/LAN simulator,
* :mod:`repro.server` - the client/server protocol on top of both,
* :mod:`repro.pdm` - the PDM system (schema, generators, user actions),
* :mod:`repro.rules` - rule taxonomy, SQL translation, query modificator,
* :mod:`repro.model` - the analytic response-time model of Section 2,
* :mod:`repro.bench` - the harness regenerating Tables 2-4 / Figures 4-5.

Quickstart::

    from repro import build_scenario, ExpandStrategy
    from repro.model import TreeParameters
    from repro.network import WAN_512

    scenario = build_scenario(TreeParameters(4, 3, 0.6), WAN_512, seed=7)
    result = scenario.client.multi_level_expand(
        scenario.product.root_obid,
        ExpandStrategy.RECURSIVE_EARLY,
        root_attrs=scenario.product.root_attributes(),
    )
    print(result.seconds, result.tree.node_count())
"""

from repro.bench.workload import Scenario, build_scenario
from repro.concurrency import (
    ContentionConfig,
    ContentionSim,
    LockManager,
    LockMode,
    SessionManager,
)
from repro.model import (
    Action,
    NetworkParameters,
    Strategy,
    TreeParameters,
    predict,
)
from repro.network import LAN, WAN_256, WAN_512, WAN_1024, NetworkLink
from repro.pdm import (
    CheckOutMode,
    ExpandStrategy,
    PDMClient,
    figure2_dataset,
    generate_product,
    new_pdm_database,
)
from repro.rules import Actions, Rule, RuleTable
from repro.server import DatabaseServer, RemoteConnection
from repro.sqldb import Database

__version__ = "1.0.0"

__all__ = [
    "Database",
    "DatabaseServer",
    "RemoteConnection",
    "NetworkLink",
    "LAN",
    "WAN_256",
    "WAN_512",
    "WAN_1024",
    "PDMClient",
    "ExpandStrategy",
    "CheckOutMode",
    "generate_product",
    "figure2_dataset",
    "new_pdm_database",
    "Rule",
    "Actions",
    "RuleTable",
    "TreeParameters",
    "NetworkParameters",
    "Action",
    "Strategy",
    "predict",
    "Scenario",
    "build_scenario",
    "LockManager",
    "LockMode",
    "SessionManager",
    "ContentionConfig",
    "ContentionSim",
    "__version__",
]
