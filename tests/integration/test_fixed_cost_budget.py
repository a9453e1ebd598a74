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
call instead of a probe plus a fetch per row, and still 249.2 once every
probe was priced against a scan at run time (the pricing reads two counts
inline and costs one call; building the key as a list costs one fewer
than as a generator); 248.2 once the server stopped calling an opt-in
lint gate (off, but still a call) on every QUERY and BATCH; 236.9 once an
index join stopped re-testing the key equality its probe had matched (the
ON clause minus its join key is the residual, as for a hash join); 234.9
before late rule evaluation was compiled, 222.9 after.  The budget sits
between the first two, with room for interpreter versions that count
comprehensions differently.

The late half of that pass is also held on its own, because there the
client checks the access rules of every fetched object: 254.2 calls per
cached navigational-late round trip while each object looked up its
relevant rules (re-matching and re-classifying every rule) and a second
interpreter walked each condition, 230.5 once each (action, type) has one
compiled check — the predicate early evaluation injects — run on the
object's attribute tuple.

Three engine-level statements are held the same way, on the ``txn_mix``
product (δ=6, κ=4: 1 365 assemblies, all of one product), each cached
and run straight on the ``Database``:

* the audit, ``SELECT COUNT(*), SUM(weight) FROM assy WHERE product =
  ?``, whose one key is the whole table: 20 522 calls while its index
  probe ran on the row operators, 4 160 once the probe was priced out
  and the plan ran on the batch operators as a scan, 69 once each
  aggregate folded its column slice with one ``add_many`` per batch
  instead of one ``add`` per row;
* a grouped roll-up of the same table, ``SELECT state, COUNT(*),
  SUM(weight), MIN(weight), MAX(weight) FROM assy GROUP BY state``: 9 618
  calls with one ``add`` per row and aggregate, 70 with one ``add_many``
  per group, aggregate and batch;
* a primary-key point ``SELECT *``, the batch of one: 62 calls on the
  row operators, 45 on the batch operators, where a filter tests a
  one-row batch with its row closure and a ``SELECT *`` projection
  passes it through untouched.

The two bulk paths are held per row, on the navigational product (727
rows):

* ``load_product``, one ``executemany`` per table: 117.0 calls per row
  while every parameter row ran the whole single-statement path (lock
  scope, WAL scope and environment, a closure per ``?``, one
  ``coerce_value`` per value, one ``HashIndex.add`` per index building
  its key through two generators); 29.2 once that work is done once per
  call, each column's converter is built at prepare time, a ``?`` is
  read straight from the parameter row and each index has a key
  function; 27.2 by the time the frame format had one owner, and still
  27.2 once the storage journals a row before it changes the heap and
  its indexes (check, journal, then mutate, in one ``_place`` call);
* restarting from its checkpoint (decode included): 34.2 calls per row
  while each ``I`` record went through ``insert_at`` and one
  ``HashIndex.add`` per index; 13.8 once each table's run of rows is
  loaded in one append and each index is filled once.  Decoding is
  about seven of the calls left.
"""

import gc
import sys

import pytest

from repro.bench.workload import build_scenario
from repro.model.parameters import TreeParameters
from repro.network.profiles import WAN_512
from repro.pdm.generator import generate_product
from repro.pdm.operations import ExpandStrategy
from repro.pdm.schema import create_pdm_schema, load_product, new_pdm_database
from repro.recovery import Durability, SimDisk

TREE = TreeParameters(depth=5, branching=3, visibility=0.6)
SEED = 4
STRATEGIES = (ExpandStrategy.NAVIGATIONAL_LATE, ExpandStrategy.NAVIGATIONAL_EARLY)

#: Python-level calls one cached navigational round trip may cost.
CALLS_PER_ROUND_TRIP_BUDGET = 300

#: Calls one cached navigational-late round trip may cost: one compiled
#: rule check per fetched object, not a rule lookup and a condition walk
#: (254.2 calls).
LATE_CALLS_PER_ROUND_TRIP_BUDGET = 242

#: The ``txn_mix`` product and its three engine-level statements.
TXN_MIX_TREE = TreeParameters(depth=6, branching=4, visibility=0.6)
AUDIT_SQL = "SELECT COUNT(*), SUM(weight) FROM assy WHERE product = ?"
GROUPED_SQL = (
    "SELECT state, COUNT(*), SUM(weight), MIN(weight), MAX(weight) FROM assy GROUP BY state"
)
POINT_SQL = "SELECT * FROM assy WHERE obid = ?"

#: Calls one cached audit statement may cost: a fold per aggregate per
#: batch, not an ``add`` per row (4 160 calls).
AUDIT_CALLS_BUDGET = 200

#: Calls one cached grouped roll-up may cost: a fold per group, aggregate
#: and batch, not an ``add`` per row and aggregate (9 618 calls).
GROUPED_CALLS_BUDGET = 300

#: Calls one cached primary-key point SELECT may cost: no more than on
#: the row operators.
POINT_CALLS_BUDGET = 62

#: Calls per row ``load_product`` may cost: per-statement work once per
#: ``executemany`` call, not once per row (117.0 calls).
LOAD_CALLS_PER_ROW_BUDGET = 40

#: Calls per row restoring a checkpoint may cost, decoding included: a
#: table's rows in one append and each index filled once (34.2 calls).
RESTORE_CALLS_PER_ROW_BUDGET = 15


def count_calls(action) -> int:
    """Interpreter ``call`` events while *action* runs."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    # A collection that finalises a suspended generator resumes it, which
    # the profiler reports as a call; when one falls depends on what the
    # process allocated before this test, so none may fall inside the count.
    gc.collect()
    gc.disable()
    sys.setprofile(count)
    try:
        action()
    finally:
        sys.setprofile(previous)
        gc.enable()
    return calls


def calls_per_round_trip(strategies=STRATEGIES):
    """Build the stack, warm one pass of navigational expands of the
    whole product (one per strategy), count interpreter ``call`` events
    over a second pass; returns ``(calls per round trip, round trips)``."""
    scenario = build_scenario(TREE, WAN_512, seed=SEED)
    client = scenario.client
    connection = scenario.connection
    root = scenario.product.root_obid
    root_attrs = client.fetch_object(root)

    def one_pass():
        for strategy in strategies:
            client.multi_level_expand(root, strategy, root_attrs=root_attrs)

    one_pass()  # plan cache, SQL cache, header and shape memos are warm
    before = connection.statistics["round_trips"]
    calls = count_calls(one_pass)
    round_trips = connection.statistics["round_trips"] - before
    return calls / round_trips, round_trips


@pytest.fixture(scope="module")
def txn_mix_db():
    product = generate_product(TXN_MIX_TREE, seed=SEED)
    database = new_pdm_database()
    load_product(database, product)
    return database, product.root_obid


def statement_calls(database, sql, params):
    """Calls of one execution of *sql*, cached by a first one."""
    database.execute(sql, params)
    return count_calls(lambda: database.execute(sql, params))


def test_a_cached_round_trip_stays_inside_its_call_budget():
    per_trip, round_trips = calls_per_round_trip()
    assert round_trips > 100  # one statement per visible node, two expands
    assert per_trip <= CALLS_PER_ROUND_TRIP_BUDGET, (
        f"{per_trip:.1f} Python-level calls per cached navigational round "
        f"trip (budget {CALLS_PER_ROUND_TRIP_BUDGET}): per-statement fixed "
        f"cost crept back in — see DESIGN.md §5, 'run-of-values kernel'"
    )


def test_a_cached_late_round_trip_checks_its_rules_inside_its_budget():
    per_trip, round_trips = calls_per_round_trip((ExpandStrategy.NAVIGATIONAL_LATE,))
    assert round_trips > 50  # one statement per visible node
    assert per_trip <= LATE_CALLS_PER_ROUND_TRIP_BUDGET, (
        f"{per_trip:.1f} Python-level calls per cached navigational-late "
        f"round trip (budget {LATE_CALLS_PER_ROUND_TRIP_BUDGET}): the late "
        f"rule check no longer runs one compiled predicate per object"
    )


def test_the_count_repeats_to_the_call():
    assert calls_per_round_trip() == calls_per_round_trip()


def test_the_audit_runs_as_a_columnar_scan_inside_its_budget(txn_mix_db):
    database, root = txn_mix_db
    calls = statement_calls(database, AUDIT_SQL, [root])
    assert database.last_executor == "columnar"
    assert database.last_counters["index_probes"] == 0
    assert database.last_counters["rows_scanned"] == 1365
    assert calls <= AUDIT_CALLS_BUDGET, (
        f"{calls} Python-level calls for one cached audit statement "
        f"(budget {AUDIT_CALLS_BUDGET}): the priced-out probe no longer "
        f"runs as a scan on the batch operators, or the aggregate no longer "
        f"folds a column slice per batch"
    )


def test_a_grouped_rollup_folds_per_group_inside_its_budget(txn_mix_db):
    database, _ = txn_mix_db
    calls = statement_calls(database, GROUPED_SQL, [])
    assert database.last_executor == "columnar"
    assert database.last_counters["rows_scanned"] == 1365
    assert calls <= GROUPED_CALLS_BUDGET, (
        f"{calls} Python-level calls for one cached grouped roll-up (budget "
        f"{GROUPED_CALLS_BUDGET}): the aggregate no longer folds a column "
        f"slice per group and batch"
    )


def test_a_point_select_costs_no_more_as_a_batch_of_one(txn_mix_db):
    database, root = txn_mix_db
    calls = statement_calls(database, POINT_SQL, [root])
    assert database.last_executor == "columnar"
    assert database.last_counters["index_probes"] == 1
    assert calls <= POINT_CALLS_BUDGET, (
        f"{calls} Python-level calls for one cached point SELECT (budget "
        f"{POINT_CALLS_BUDGET}, its cost on the row operators): a batch of "
        f"one costs more than a tuple"
    )


@pytest.fixture(scope="module")
def product_rows():
    product = generate_product(TREE, seed=SEED)
    rows = sum(
        len(part)
        for part in (
            product.assemblies,
            product.components,
            product.links,
            product.specifications,
            product.specified_by,
        )
    )
    return product, rows


def test_loading_a_product_stays_inside_its_per_row_budget(product_rows):
    product, rows = product_rows
    database = new_pdm_database()
    calls = count_calls(lambda: load_product(database, product))
    assert sum(database.table_rowcount(name) for name in database.table_names()) == rows
    assert calls / rows <= LOAD_CALLS_PER_ROW_BUDGET, (
        f"{calls / rows:.1f} Python-level calls per row loaded (budget "
        f"{LOAD_CALLS_PER_ROW_BUDGET}): executemany repeats per-statement "
        f"work for every parameter row"
    )


def test_restoring_a_checkpoint_stays_inside_its_per_row_budget(product_rows):
    product, rows = product_rows
    durability = Durability(SimDisk())
    database = durability.open()
    create_pdm_schema(database)
    load_product(database, product)
    durability.checkpoint()
    calls = count_calls(durability.recover)
    assert durability.last_report.checkpoint_used
    assert calls / rows <= RESTORE_CALLS_PER_ROW_BUDGET, (
        f"{calls / rows:.1f} Python-level calls per checkpointed row restored "
        f"(budget {RESTORE_CALLS_PER_ROW_BUDGET}): the restore no longer loads "
        f"a table's rows at once and fills each index once"
    )
