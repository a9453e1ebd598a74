"""A host-independent gate on per-statement fixed cost.

The navigational flood — "one query per visible node" — is thousands of
cached one-row statements, so what it costs on the host is what one
round trip costs *besides* its rows: envelope, codec, plan-cache hit,
lock scope, result construction.  Wall time says how much that is on one
machine on one day; the number of Python-level function calls the
interpreter makes per round trip says it on every machine, and repeats
to the call.  This test counts them with ``sys.setprofile`` over a warm
pass of navigational expands and holds them under a budget.

History of the count (CPython 3.11, this stack, this pass): 532.3 with
one ``encode_value`` / ``decode_value`` call per value, an ``Opcode(...)``
construction per label and a lock footprint rebuilt per SELECT; 269.7
once the codec became one loop per run of values and shape work moved to
plan time; 249.2 once an index probe became one ``TableStorage.probe``
call instead of a probe plus a fetch per row.  The budget sits between
the first two, with room for interpreter versions that count
comprehensions differently.
"""

import gc
import sys

from repro.bench.workload import build_scenario
from repro.model.parameters import TreeParameters
from repro.network.profiles import WAN_512
from repro.pdm.operations import ExpandStrategy

TREE = TreeParameters(depth=5, branching=3, visibility=0.6)
SEED = 4
STRATEGIES = (ExpandStrategy.NAVIGATIONAL_LATE, ExpandStrategy.NAVIGATIONAL_EARLY)

#: Python-level calls one cached navigational round trip may cost.
CALLS_PER_ROUND_TRIP_BUDGET = 300


def calls_per_round_trip():
    """Build the stack, warm one pass of navigational expands of the
    whole product, count interpreter ``call`` events over a second pass;
    returns ``(calls per round trip, round trips)``."""
    scenario = build_scenario(TREE, WAN_512, seed=SEED)
    client = scenario.client
    connection = scenario.connection
    root = scenario.product.root_obid
    root_attrs = client.fetch_object(root)

    def one_pass():
        for strategy in STRATEGIES:
            client.multi_level_expand(root, strategy, root_attrs=root_attrs)

    one_pass()  # plan cache, SQL cache, header and shape memos are warm
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    before = connection.statistics["round_trips"]
    previous = sys.getprofile()
    # A collection that finalises a suspended generator resumes it, which
    # the profiler reports as a call; when one falls depends on what the
    # process allocated before this test, so none may fall inside the count.
    gc.collect()
    gc.disable()
    sys.setprofile(count)
    try:
        one_pass()
    finally:
        sys.setprofile(previous)
        gc.enable()
    round_trips = connection.statistics["round_trips"] - before
    return calls / round_trips, round_trips


def test_a_cached_round_trip_stays_inside_its_call_budget():
    per_trip, round_trips = calls_per_round_trip()
    assert round_trips > 100  # one statement per visible node, two expands
    assert per_trip <= CALLS_PER_ROUND_TRIP_BUDGET, (
        f"{per_trip:.1f} Python-level calls per cached navigational round "
        f"trip (budget {CALLS_PER_ROUND_TRIP_BUDGET}): per-statement fixed "
        f"cost crept back in — see DESIGN.md §5, 'run-of-values kernel'"
    )


def test_the_count_repeats_to_the_call():
    assert calls_per_round_trip() == calls_per_round_trip()
