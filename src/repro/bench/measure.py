"""Run the paper's actions end-to-end and price the measured traffic.

The simulated response time of an action is linear in its traffic:

    T = messages * T_Lat + wire_bytes * 8 / (dtr * 1024)

so one end-to-end run per (tree, action, strategy) yields a traffic trace
that :func:`price_traffic` can re-price for every network profile of the
evaluation grid — the heavy simulations run once, not once per network.
(The PAPER_MODEL packet accounting makes wire bytes independent of
latency and bandwidth; they depend only on the 4 kB packet size, which is
constant across the grid.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.errors import ReproError
from repro.model.parameters import NetworkParameters
from repro.model.response_time import Action, Strategy
from repro.network.link import BITS_PER_KBIT
from repro.network.stats import TrafficStats
from repro.bench.workload import Scenario
from repro.pdm.operations import ExpandStrategy

#: Model strategy -> client strategy; the benches import this table.
EXPAND_STRATEGIES = {
    Strategy.LATE: ExpandStrategy.NAVIGATIONAL_LATE,
    Strategy.EARLY: ExpandStrategy.NAVIGATIONAL_EARLY,
    Strategy.RECURSIVE: ExpandStrategy.RECURSIVE_EARLY,
    Strategy.BATCHED: ExpandStrategy.EXPAND_BATCHED,
}


@dataclass
class MeasuredAction:
    """Traffic and result size of one end-to-end action run."""

    action: Action
    strategy: Strategy
    traffic: TrafficStats
    seconds: float
    round_trips: int
    result_nodes: int
    #: Server-side SQL statements the action executed (batch entries count
    #: individually) and how many of them hit the server's plan cache.
    statements: int = 0
    plan_cache_hits: int = 0

    @property
    def payload_bytes(self) -> int:
        return self.traffic.payload_bytes

    @property
    def wire_bytes(self) -> float:
        return self.traffic.wire_bytes


def measure_action(
    scenario: Scenario, action: Action, strategy: Strategy
) -> MeasuredAction:
    """Execute one action end-to-end over the scenario's simulated WAN."""
    client = scenario.client
    root = scenario.product.root_obid
    root_attrs = scenario.product.root_attributes()
    expand_strategy = EXPAND_STRATEGIES[strategy]
    db_before = dict(scenario.database.statistics)
    if action is Action.QUERY:
        # Query and expand use navigational SQL in every strategy; the
        # recursive strategy's behaviour equals early evaluation for them.
        result = client.query(root, expand_strategy)
        nodes = len(result.objects)
    elif action is Action.EXPAND:
        result = client.single_level_expand(root, expand_strategy)
        nodes = len(result.objects)
    elif action is Action.MLE:
        result = client.multi_level_expand(
            root, expand_strategy, root_attrs=root_attrs
        )
        nodes = result.tree.node_count() - 1 if result.tree else 0
    else:
        raise ReproError(f"unknown action {action!r}")
    db_after = scenario.database.statistics
    return MeasuredAction(
        action=action,
        strategy=strategy,
        traffic=result.traffic,
        seconds=result.seconds,
        round_trips=result.round_trips,
        result_nodes=nodes,
        statements=db_after["statements"] - db_before["statements"],
        plan_cache_hits=db_after["plan_cache_hits"]
        - db_before["plan_cache_hits"],
    )


def price_traffic(traffic: TrafficStats, network: NetworkParameters) -> float:
    """Response time of a recorded traffic trace on another network."""
    return (
        traffic.messages * network.latency_s
        + traffic.wire_bytes * 8.0 / (network.dtr_kbit_s * BITS_PER_KBIT)
    )


def measure_grid(
    scenario: Scenario,
    actions: Tuple[Action, ...] = (Action.QUERY, Action.EXPAND, Action.MLE),
    strategies: Tuple[Strategy, ...] = (
        Strategy.LATE,
        Strategy.EARLY,
        Strategy.RECURSIVE,
    ),
) -> Dict[Tuple[Action, Strategy], MeasuredAction]:
    """Measure every (action, strategy) combination once."""
    measurements: Dict[Tuple[Action, Strategy], MeasuredAction] = {}
    for action in actions:
        for strategy in strategies:
            measurements[(action, strategy)] = measure_action(
                scenario, action, strategy
            )
    return measurements
