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
before late rule evaluation was compiled, 222.9 after; 143.9 once every
expression was emitted as Python text (one generated function per
filter, projection, key list and residual instead of a closure per
expression node, constants included); 137.2 once every plan ran on
batches — the child fetch's index joins included, a round trip's rows
passing each operator as one computed batch instead of one generator
resumption per row — and a row function read its slots in place; 122.9
once a stored function call from generated code was one lookup in the
registry's table of guarded callables and one call (seven before: the
registry's ``call``, an ``any`` over a generator of ``is_null``, the
function) and a call's result was tested for NULL and bool inline
instead of by ``to_bool``; 119.9 once the result codec was generated per
kind signature (a run of rows is one generated call, not one loop
iteration per value); 100.0 once each chain of filters, projections and
index joins ran as one generated loop (the child fetch's index join
reads the index's bucket and the heap in place, a ``?`` is read from the
parameters in place, and a union calls its branches without a generator
expression); 98.0 once one ``IndexLookup`` took every key source; 96.0
once ``ResultSet`` copied its rows with ``list(map(tuple, rows))``, not
a comprehension (a call on the server's side and one on the client's).
The budget sits about 10 % above the last (CPython 3.10
counts the same, 3.12 counts 96.9).

Calls miss a loop that runs per value in bytecode, so the same pass is
also held in bytecode instructions (``sys.settrace`` with
``frame.f_trace_opcodes``; ``sys.monitoring`` from CPython 3.12),
counting only the result codec's: the code of ``sqldb/wire.py`` and the
encoders and decoders it generates.  On CPython 3.11, 2 956 per cached
navigational round trip while every value went through the tag loop
(49 % of the round trip's 6 002), 1 122 once each run of rows of one
kind signature is one generated straight-line encoder or decoder and a
cached plan's header is recognised by its first bytes (1 007 on 3.10,
1 021 on 3.12).

The same pass is held in the engine's bytecode instructions too: the
code of ``executor``, ``storage``, ``columnar``, ``recursive``,
``functions``, ``expressions`` and ``pipelines`` and the code they
generate, the result codec's excepted.  1 298 per cached navigational
round trip on CPython 3.11 while every operator ran its own batch loop
and the rows went from one to the next as batches, 920 once each chain
of filters, projections and index joins is one generated loop (859 on
3.10 and 3.12), 930 once hash and nested-loop joins were that loop's
join steps too and every join checks its key's kind as ``=`` does (an
index join only a key that finds no row), 933 once every execution
keeps the marks by which a sort has a range scan walk its range in
order.

The late half of that pass is also held on its own, because there the
client checks the access rules of every fetched object: 254.2 calls per
cached navigational-late round trip while each object looked up its
relevant rules (re-matching and re-classifying every rule) and a second
interpreter walked each condition, 230.5 once each (action, type) has one
compiled check — the predicate early evaluation injects — run on the
object's attribute tuple, 149.6 once that check is one generated function,
141.6 once every plan ran on batches, 128.6 once a stored function call
was one call, 125.7 once the result codec was generated per kind
signature, 105.8 once each pipeline was one generated loop.

One cached ``RECURSIVE_EARLY`` expand of the same product is held as a
whole: the one ``WITH RECURSIVE`` statement and its fixpoint rounds.
21 984 calls while each expression node was a closure (``read``,
``is_null``, ``literal``, ``to_bool``, ``and_fn``, a ``cast`` and a
``types.convert`` per ``CAST(NULL AS ...)`` pad, a generator per
projected row), 7 913 once each operator calls one generated function
and constants are folded at plan time (still on the row operators, where
every round filters, projects and joins row by row), 3 182 once every
operator runs on batches — a round's rows go through each operator as
one batch — and the outer block's ``link.left IN (SELECT obid FROM
rtbl)`` fetches its value set once per batch instead of once per row
(490 ``value_set`` calls before), 1 498 once each stored function call
of the early predicate was one call of a guarded callable instead of the
registry's ``call`` with its ``any`` over a generator of ``is_null``, and
its result was tested for NULL and bool inline instead of by ``to_bool``,
952 once each fixpoint round's chain of index joins, filter and
projection ran as one generated loop.

Three engine-level statements are held the same way, on the ``txn_mix``
product (δ=6, κ=4: 1 365 assemblies, all of one product), each cached
and run straight on the ``Database``:

* the audit, ``SELECT COUNT(*), SUM(weight) FROM assy WHERE product =
  ?``, whose one key is the whole table: 20 522 calls while its index
  probe ran on the row operators, 4 160 once the probe was priced out
  and the plan ran on the batch operators as a scan, 69 once each
  aggregate folded its column slice with one ``add_many`` per batch
  instead of one ``add`` per row (65 by the time every plan ran on
  batches, 49 after: no ``_emit`` call per batch, an aggregate's result
  one computed batch; 43 once the aggregate's input was one generated
  loop; 32 once each aggregate folds a group's values once, with a fold
  chosen at plan time, instead of an ``Aggregator`` per group);
* a grouped roll-up of the same table, ``SELECT state, COUNT(*),
  SUM(weight), MIN(weight), MAX(weight) FROM assy GROUP BY state``: 9 618
  calls with one ``add`` per row and aggregate, 70 with one ``add_many``
  per group, aggregate and batch (67 → 52 the same way, 48 once the
  aggregate's input was one generated loop, 29 once each group folds
  once, 28 once the result's rows are copied without a comprehension).
  It is held in engine
  bytecode instructions per input row too: 40.7 while the keys, the
  argument columns and each group's positions were three passes over a
  batch, 19.7 once one loop collects each group's values (an argument
  three aggregates share, once) and ``add_many`` drops NULLs only from a
  column that holds one (19.36 once each group folds once; 18.41 once
  the loop finds a row's group by a list index into the chunk's group
  numbers, built in the measured execution, 18.36 in the ones after it,
  and a fold scans for NULL only where folding raised);
* a primary-key point ``SELECT *``, the batch of one: 62 calls on the
  row operators, 45 on the batch operators, where a filter tests a
  one-row batch with its row closure and a ``SELECT *`` projection
  passes it through untouched (38 → 28 once the probe's one batch is
  computed at once and no operator pays a generator for it);
* the ``report_scan`` top-k shape, ``SELECT obid, name, weight FROM assy
  ORDER BY weight DESC, obid LIMIT 20``: 10 952 calls while the sort
  called a lambda, the key's row function and ``_null_safe_key`` per row
  and key, and sorted every row the ``LIMIT`` never took; 47 once the
  keys' batch loop computes each key as one column, positions are
  sorted by ``column.__getitem__`` (a column is decorated only where a
  raw comparison raises), the key columns are checked for a NaN and the
  first 20 are picked by bounded selection on the leading key (48 once
  the key columns are the sink of a pipeline's generated loop, 47 once
  that loop picks its row or column form itself).

Three more are held on the same product with its assembly weights
spread out (uniform over 1–500, seeded), so that a range is selective;
each runs until the range reads have paid for the sorted copy of
``weight``:

* a 2 % range, ``SELECT obid, name, weight FROM assy WHERE weight >= ?
  AND weight < ?``: 1 365 rows scanned and 21 calls while the range was
  a filter over a scan; 27 rows scanned (the range's) and one index
  probe, 34 calls, once the range scan bisects the copy and gathers;
* the top-k shape with a range, ``SELECT obid, name, weight FROM assy
  WHERE weight > ? ORDER BY weight DESC, obid LIMIT 20`` (a fifth of the
  table in range): 1 365 rows scanned and 47 calls while the sort read
  the whole range; 21 rows scanned and 55 calls once it walks the copy
  from the top and stops past the 20th value;
* a GROUP BY of many groups, ``SELECT link.left, COUNT(*),
  SUM(comp.weight) FROM link JOIN comp ON link.right = comp.obid GROUP
  BY link.left`` (1 024 groups): 13 348 calls while each group built an
  ``Aggregator`` per aggregate and batch and fed it with ``add_many``;
  2 084 once each group's values are joined across the batches and each
  aggregate folds them once, with a fold chosen at plan time.

An ad-hoc text is held too: a ``report_scan``-like 2 % range with its
bounds inline, ``SELECT obid, name, weight FROM assy WHERE weight >= 250.1
AND weight < 260.2`` on the same product, analysed.  A text of a shape
the cache holds, another text whose literals alone differ: 810 calls
while the cache was keyed by the text alone (every such text was lexed,
parsed and planned afresh); 121 once it is lexed, keyed by its shape,
its estimate checked against its plan's bucket and run with its literals
as hidden parameters.  The first text of a shape now costs 1 097: it is
planned twice, with its literals hidden for the shape and as literals
for its own text.

The bulk paths are held per row, on the navigational product (727
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
  its indexes (check, journal, then mutate, in one ``_place`` call); 4.9
  once ``executemany`` converts the whole list with one generated row
  converter (a value already of its column's class passes with no call),
  checks it set-wise and places it with the routine checkpoint restore
  uses (the heap extended once, each index filled once, its key read with
  no call per row): what is left per row is mostly ``to_row``; 6.8 once
  each statement of the list was accounted for exactly (two generator
  steps per row counting the commit clock's ticks), 4.8 once the ticks
  are a division; 3.9 once ``load_product`` maps each table's records
  through their class's row layout (an ``attrgetter``) instead of a
  ``to_row`` call per record: one call per assembly is left, its ``dec``
  property, and the rest is the five statements' parse and prepare;
* restarting from its checkpoint (decode included): 34.2 calls per row
  while each ``I`` record went through ``insert_at`` and one
  ``HashIndex.add`` per index; 13.8 once each table's run of rows is
  loaded in one append and each index is filled once; 11.0 once an index
  reads its key with no call per row.  Decoding is about seven of the
  calls left;
* ``load_product`` into a database with a WAL (``Durability(SimDisk())``):
  29.8 calls per row while each statement's ``B``, ``I`` and ``C``
  records were each a ``WalRecord`` run through ``encode_record`` and a
  row's values through the tag loop; 25.1 once one ``WalWriter.log_inserts``
  call logs the list's statements, framing each record from its payload
  bytes with the kind, txn id and table encoded once per statement, and
  a row goes through the generated codec of its kind signature.  A
  row's three records cost three calls apiece to frame and append
  (``_append``, ``_frame``, ``SimDisk.append``): 9 of the calls left;
* checkpointing that database: 4.36 calls per row while each row's
  payload went through the tag loop and an ``embed`` call, 3.34 once it
  goes through the generated codec, appended inline (CPython 3.10 counts
  both the same, 3.12 25.1 and 3.33).

What a load leaves for the garbage collector is held per row too: the
objects it tracks after ``load_product`` of the same product (727 rows),
counted as ``len(gc.get_objects())`` around it with a collection before
each count.  1 225 (1.685 per row) while every index bucket was a list
of row ids under a tuple key (a one-element list for each of the 1 090
of 1 213 keys that one row holds); 131 (0.180 per row) once a bucket is
the row id itself while one row holds its key and a one-column key is
the value itself.
What is left is a list per key that several rows hold, and the heaps.
Every full collection walks what is tracked, so during the load of
``nav_flood``'s product the collector's share of the build fell with it
(CPython 3.10 and 3.12 count the same).

The product generator is held per node, on ``txn_mix``'s product (5 461
nodes): 3.0 calls per node while every record was built by keyword, one
child at a time, and its payload by a closure call; 2.0 once a level is
built at once, its links and nodes each by one positional construction
mapped over the level's columns, so what is left per node is the two
``__init__`` calls.  What it leaves for the collector: 3.25 GC-tracked
objects per node, before and after the records were slotted — the link,
the node and the ``(link, child)`` tuple ``children`` keeps per link,
and a list per parent.
"""

import gc
import random
import sys

import pytest

from repro.bench.workload import build_scenario
from repro.model.parameters import TreeParameters
from repro.network.profiles import WAN_512
from repro.pdm.generator import generate_product
from repro.pdm.operations import ExpandStrategy
from repro.pdm.schema import create_pdm_schema, load_product, new_pdm_database
from repro.recovery import Durability, SimDisk
from repro.sqldb import (
    columnar,
    executor,
    expressions,
    functions,
    pipelines,
    recursive,
    storage,
    wire,
)

TREE = TreeParameters(depth=5, branching=3, visibility=0.6)
SEED = 4
STRATEGIES = (ExpandStrategy.NAVIGATIONAL_LATE, ExpandStrategy.NAVIGATIONAL_EARLY)

#: Python-level calls one cached navigational round trip may cost: one
#: generated loop per pipeline, not a batch loop per operator (119.9
#: calls) nor a closure per expression node (222.9 calls).
CALLS_PER_ROUND_TRIP_BUDGET = 110

#: Calls one cached navigational-late round trip may cost: one generated
#: rule check per fetched object, not a rule lookup and a condition walk
#: (254.2 calls) nor a closure per condition node (230.5 calls), and one
#: generated loop per pipeline (125.7 calls with a loop per operator).
LATE_CALLS_PER_ROUND_TRIP_BUDGET = 116

#: Engine bytecode instructions one cached navigational round trip may
#: cost: one generated loop per pipeline, not a batch loop per operator
#: with the rows handed from one to the next (1 298 instructions).
ENGINE_OPCODES_PER_ROUND_TRIP_BUDGET = 1_010

#: Result codec bytecode instructions one cached navigational round trip
#: may cost: a generated codec per kind signature, not the tag loop per
#: value (2 956 instructions).
CODEC_OPCODES_PER_ROUND_TRIP_BUDGET = 1_235

#: Calls one cached recursive early expand of the whole product may cost
#: (21 984 calls with a closure per expression node, 7 913 on the row
#: operators, 3 182 with seven calls per stored function call, 1 498
#: with a batch loop per operator).
RECURSIVE_EXPAND_CALLS_BUDGET = 1_045

#: The ``txn_mix`` product and its three engine-level statements.
TXN_MIX_TREE = TreeParameters(depth=6, branching=4, visibility=0.6)
AUDIT_SQL = "SELECT COUNT(*), SUM(weight) FROM assy WHERE product = ?"
GROUPED_SQL = (
    "SELECT state, COUNT(*), SUM(weight), MIN(weight), MAX(weight) FROM assy GROUP BY state"
)
POINT_SQL = "SELECT * FROM assy WHERE obid = ?"
SORTED_SQL = "SELECT obid, name, weight FROM assy ORDER BY weight DESC, obid LIMIT 20"

#: Calls one cached audit statement may cost: a fold per aggregate per
#: batch, not an ``add`` per row (4 160 calls).
AUDIT_CALLS_BUDGET = 200

#: Calls one cached grouped roll-up may cost: a fold per group, aggregate
#: and batch, not an ``add`` per row and aggregate (9 618 calls).
GROUPED_CALLS_BUDGET = 300

#: Engine bytecode instructions per input row the grouped roll-up may
#: cost: one loop collecting each group's values, not three passes over
#: a batch (40.7 instructions).
GROUPED_OPCODES_PER_ROW_BUDGET = 21.7

#: Calls one cached primary-key point SELECT may cost: no more than on
#: the row operators.
POINT_CALLS_BUDGET = 62

#: Calls one cached top-k sort may cost: a key column per key and a
#: bounded selection, not calls per row and key (10 952 calls).
SORTED_CALLS_BUDGET = 52

#: The same product with seeded assembly weights, and statements on it.
RANGE_SQL = "SELECT obid, name, weight FROM assy WHERE weight >= ? AND weight < ?"
RANGED_TOP_SQL = (
    "SELECT obid, name, weight FROM assy WHERE weight > ? ORDER BY weight DESC, obid LIMIT 20"
)
MANY_GROUPS_SQL = (
    "SELECT link.left, COUNT(*), SUM(comp.weight) FROM link "
    "JOIN comp ON link.right = comp.obid GROUP BY link.left"
)

#: Calls one cached 2 % range read may cost: a bisection and a gather.
RANGE_CALLS_BUDGET = 38

#: Calls one cached top-k sort over a range may cost: a walk of the copy.
RANGED_TOP_CALLS_BUDGET = 61

#: Calls one cached GROUP BY of 1 024 groups may cost: one fold per group
#: and aggregate, not an ``Aggregator`` per group, aggregate and batch
#: (13 348 calls).
MANY_GROUPS_CALLS_BUDGET = 2_300

#: An ad-hoc range with its bounds inline, and the calls a text of a
#: cached shape may cost: a lex, a key and an estimate check, not a parse
#: and a plan (810 calls).
SHAPED_SQL = "SELECT obid, name, weight FROM assy WHERE weight >= {} AND weight < {}"
SHAPE_HIT_CALLS_BUDGET = 136

#: Calls per row ``load_product`` may cost: per-statement work once per
#: ``executemany`` call, not once per row (117.0 calls), the list
#: converted, checked and placed as one batch (27.2 calls row by row),
#: the commit clock's ticks counted without a step per row (6.8), and a
#: record's row read through its class's layout, not a ``to_row`` call
#: per record (4.8).
LOAD_CALLS_PER_ROW_BUDGET = 4.3

#: Calls per generated node ``generate_product`` may cost: two positional
#: constructions, a node and its link, not a keyword construction of each
#: and a payload closure call (3.0 calls).
GENERATE_CALLS_PER_NODE_BUDGET = 2.2

#: GC-tracked objects per node a generated product may hold: its link,
#: itself and the tuple ``children`` keeps per link (3.25), not a
#: container per record.
GENERATED_OBJECTS_PER_NODE_BUDGET = 3.5

#: Calls per row restoring a checkpoint may cost, decoding included: a
#: table's rows in one append and each index filled once (34.2 calls).
RESTORE_CALLS_PER_ROW_BUDGET = 15

#: Calls per row ``load_product`` into a database with a WAL may cost:
#: one writer call for the list's statements, each record framed from
#: its payload bytes and a row through its kind signature's codec, not a
#: ``WalRecord`` per record and the tag loop per value (29.8 calls).
DURABLE_LOAD_CALLS_PER_ROW_BUDGET = 27.5

#: Calls per row a checkpoint may cost: a row through its kind
#: signature's codec, not the tag loop and an ``embed`` call (4.36).
CHECKPOINT_CALLS_PER_ROW_BUDGET = 3.7

#: GC-tracked objects per row a load may leave: a bucket is the row id
#: itself while one row holds its key, not a one-element list under a
#: tuple key (1.685 per row).
TRACKED_OBJECTS_PER_ROW_BUDGET = 0.2


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


def _is_codec(code) -> bool:
    """Is *code* the result codec's: ``sqldb/wire.py`` or a generated
    encoder or decoder of a kind signature?"""
    if code.co_filename == wire.__file__:
        return True
    return code.co_filename.startswith("<") and code.co_name in ("encode_rows", "decode_rows")


#: The file name of the code ``expressions._compile`` generates.
GENERATED = "<sql expression>"

#: The engine's modules: what runs a statement's plan.
ENGINE_MODULES = (executor, storage, columnar, recursive, functions, expressions, pipelines)
_ENGINE_FILES = frozenset(module.__file__ for module in ENGINE_MODULES)


def _is_engine(code) -> bool:
    """Is *code* the engine's: one of :data:`ENGINE_MODULES` or code it
    generated (a pipeline, a program, a stored function's guard), the
    result codec's excepted?"""
    if code.co_filename in _ENGINE_FILES:
        return True
    return code.co_filename == GENERATED and not _is_codec(code)


def count_codec_opcodes(action) -> int:
    """Bytecode instructions executed in the result codec's code while
    *action* runs."""
    return count_opcodes(action, _is_codec)


def count_engine_opcodes(action) -> int:
    """Bytecode instructions executed in the engine's code while *action*
    runs."""
    return count_opcodes(action, _is_engine)


def count_opcodes(action, counted) -> int:
    """Bytecode instructions executed in the code objects *counted*
    accepts while *action* runs.  CPython 3.12 and later report no
    ``sys.settrace`` opcode event for code that ran before tracing began,
    so there the count is of ``sys.monitoring`` INSTRUCTION events."""
    opcodes = 0
    monitoring = getattr(sys, "monitoring", None)
    seen = set()

    def trace(frame, event, arg):
        nonlocal opcodes
        if event == "call":
            if not counted(frame.f_code):
                return None
            frame.f_trace_opcodes = True
        elif event == "opcode":
            opcodes += 1
        return trace

    def start(code, offset):
        if counted(code) and code not in seen:
            seen.add(code)
            monitoring.set_local_events(tool, code, monitoring.events.INSTRUCTION)

    def step(code, offset):
        nonlocal opcodes
        opcodes += 1

    gc.collect()
    gc.disable()
    if monitoring is None:
        previous = sys.gettrace()
        sys.settrace(trace)
    else:
        tool = monitoring.PROFILER_ID
        monitoring.use_tool_id(tool, "opcodes")
        monitoring.register_callback(tool, monitoring.events.PY_START, start)
        monitoring.register_callback(tool, monitoring.events.INSTRUCTION, step)
        monitoring.set_events(tool, monitoring.events.PY_START)
    try:
        action()
    finally:
        if monitoring is None:
            sys.settrace(previous)
        else:
            monitoring.set_events(tool, 0)
            for code in seen:
                monitoring.set_local_events(tool, code, 0)
            monitoring.free_tool_id(tool)
        gc.enable()
    return opcodes


def per_round_trip(counter=count_calls, strategies=STRATEGIES):
    """Build the stack, warm one pass of navigational expands of the
    whole product (one per strategy), count with *counter* over a second
    pass; returns ``(count per round trip, round trips)``."""
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
    counted = counter(one_pass)
    round_trips = connection.statistics["round_trips"] - before
    return counted / round_trips, round_trips


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
    per_trip, round_trips = per_round_trip()
    assert round_trips > 100  # one statement per visible node, two expands
    assert per_trip <= CALLS_PER_ROUND_TRIP_BUDGET, (
        f"{per_trip:.1f} Python-level calls per cached navigational round "
        f"trip (budget {CALLS_PER_ROUND_TRIP_BUDGET}): per-statement fixed "
        f"cost crept back in — see DESIGN.md §5, 'run-of-values kernel'"
    )


def test_a_cached_late_round_trip_checks_its_rules_inside_its_budget():
    per_trip, round_trips = per_round_trip(strategies=(ExpandStrategy.NAVIGATIONAL_LATE,))
    assert round_trips > 50  # one statement per visible node
    assert per_trip <= LATE_CALLS_PER_ROUND_TRIP_BUDGET, (
        f"{per_trip:.1f} Python-level calls per cached navigational-late "
        f"round trip (budget {LATE_CALLS_PER_ROUND_TRIP_BUDGET}): the late "
        f"rule check no longer runs one compiled predicate per object"
    )


def test_a_cached_recursive_expand_stays_inside_its_call_budget():
    scenario = build_scenario(TREE, WAN_512, seed=SEED)
    client = scenario.client
    root = scenario.product.root_obid
    root_attrs = client.fetch_object(root)

    def expand():
        return client.multi_level_expand(
            root, ExpandStrategy.RECURSIVE_EARLY, root_attrs=root_attrs
        )

    expand()  # plan cache and SQL cache are warm
    before = scenario.connection.statistics["round_trips"]
    calls = count_calls(expand)
    assert scenario.connection.statistics["round_trips"] - before == 1
    assert calls <= RECURSIVE_EXPAND_CALLS_BUDGET, (
        f"{calls} Python-level calls for one cached recursive expand (budget "
        f"{RECURSIVE_EXPAND_CALLS_BUDGET}): a fixpoint round pays per row "
        f"again, or expressions cost a call per node"
    )


def test_the_count_repeats_to_the_call():
    assert per_round_trip() == per_round_trip()


def test_a_cached_round_trip_stays_inside_its_codec_opcode_budget():
    per_trip, round_trips = per_round_trip(count_codec_opcodes)
    assert round_trips > 100 and per_trip > 0  # the counter sees the codec
    assert per_trip <= CODEC_OPCODES_PER_ROUND_TRIP_BUDGET, (
        f"{per_trip:.1f} result codec bytecode instructions per cached "
        f"navigational round trip (budget {CODEC_OPCODES_PER_ROUND_TRIP_BUDGET}): "
        f"rows are encoded or decoded per value again, or a cached plan's "
        f"header is walked name by name — see DESIGN.md §5, item 6"
    )


def test_the_opcode_count_repeats_to_the_instruction():
    assert per_round_trip(count_codec_opcodes) == per_round_trip(count_codec_opcodes)


def test_a_cached_round_trip_stays_inside_its_engine_opcode_budget():
    per_trip, round_trips = per_round_trip(count_engine_opcodes)
    assert round_trips > 100 and per_trip > 0  # the counter sees the engine
    assert per_trip <= ENGINE_OPCODES_PER_ROUND_TRIP_BUDGET, (
        f"{per_trip:.1f} engine bytecode instructions per cached navigational "
        f"round trip (budget {ENGINE_OPCODES_PER_ROUND_TRIP_BUDGET}): the child "
        f"fetch's operators hand rows to each other again — see DESIGN.md §10"
    )


def test_the_engine_opcode_count_repeats_to_the_instruction():
    assert per_round_trip(count_engine_opcodes) == per_round_trip(count_engine_opcodes)


def test_a_grouped_rollup_collects_its_groups_in_one_loop(txn_mix_db):
    database, _ = txn_mix_db
    database.execute(GROUPED_SQL)
    opcodes = count_engine_opcodes(lambda: database.execute(GROUPED_SQL))
    rows = database.last_counters["rows_scanned"]
    assert rows == 1365
    assert opcodes / rows <= GROUPED_OPCODES_PER_ROW_BUDGET, (
        f"{opcodes / rows:.1f} engine bytecode instructions per input row of a "
        f"cached grouped roll-up (budget {GROUPED_OPCODES_PER_ROW_BUDGET}): the "
        f"aggregate's input is no longer collected in its pipeline's loop"
    )


def test_the_audit_runs_as_a_columnar_scan_inside_its_budget(txn_mix_db):
    database, root = txn_mix_db
    calls = statement_calls(database, AUDIT_SQL, [root])
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
    assert database.last_counters["rows_scanned"] == 1365
    assert calls <= GROUPED_CALLS_BUDGET, (
        f"{calls} Python-level calls for one cached grouped roll-up (budget "
        f"{GROUPED_CALLS_BUDGET}): the aggregate no longer folds a column "
        f"slice per group and batch"
    )


def test_a_point_select_costs_no_more_as_a_batch_of_one(txn_mix_db):
    database, root = txn_mix_db
    calls = statement_calls(database, POINT_SQL, [root])
    assert database.last_counters["index_probes"] == 1
    assert calls <= POINT_CALLS_BUDGET, (
        f"{calls} Python-level calls for one cached point SELECT (budget "
        f"{POINT_CALLS_BUDGET}, its cost on the row operators): a batch of "
        f"one costs more than a tuple"
    )


def test_a_top_k_sort_costs_no_call_per_row_inside_its_budget(txn_mix_db):
    database, _ = txn_mix_db
    calls = statement_calls(database, SORTED_SQL, [])
    assert database.last_counters["rows_scanned"] == 1365
    assert len(database.execute(SORTED_SQL).rows) == 20
    assert calls <= SORTED_CALLS_BUDGET, (
        f"{calls} Python-level calls for one cached top-k sort (budget "
        f"{SORTED_CALLS_BUDGET}): the sort calls per row again, or sorts "
        f"every row the LIMIT never takes"
    )


@pytest.fixture(scope="module")
def weighted_db():
    """The ``txn_mix`` product with its assembly weights spread out, and
    the weights in order."""
    product = generate_product(TXN_MIX_TREE, seed=SEED)
    rng = random.Random(SEED)
    for assembly in product.assemblies:
        assembly.weight = round(rng.uniform(1.0, 500.0), 3)
    database = new_pdm_database()
    load_product(database, product)
    return database, sorted(assembly.weight for assembly in product.assemblies)


def copied_calls(database, sql, params):
    """Calls of one execution of *sql*, once its range reads have built
    the sorted copy they read."""
    for __ in range(30):
        database.execute(sql, params)
    return statement_calls(database, sql, params)


def test_a_range_reads_only_its_rows_inside_its_budget(weighted_db):
    database, weights = weighted_db
    count = len(weights)
    params = [weights[count // 2], weights[count // 2 + count // 50]]
    calls = copied_calls(database, RANGE_SQL, params)
    assert database.last_counters["index_probes"] == 1
    assert database.last_counters["rows_scanned"] == 27
    assert len(database.execute(RANGE_SQL, params).rows) == 27
    assert calls <= RANGE_CALLS_BUDGET, (
        f"{calls} Python-level calls for one cached 2 % range read (budget "
        f"{RANGE_CALLS_BUDGET}): the range scan no longer gathers its rows"
    )


def test_a_ranged_top_k_reads_only_the_top_inside_its_budget(weighted_db):
    database, weights = weighted_db
    params = [weights[int(0.8 * len(weights))]]
    calls = copied_calls(database, RANGED_TOP_SQL, params)
    assert database.last_counters["index_probes"] == 1
    assert database.last_counters["rows_scanned"] == 21
    assert len(database.execute(RANGED_TOP_SQL, params).rows) == 20
    assert calls <= RANGED_TOP_CALLS_BUDGET, (
        f"{calls} Python-level calls for one cached top-k sort over a range "
        f"(budget {RANGED_TOP_CALLS_BUDGET}): the sort no longer walks the copy"
    )


def test_a_many_group_rollup_folds_once_per_group_inside_its_budget(weighted_db):
    database, _ = weighted_db
    calls = statement_calls(database, MANY_GROUPS_SQL, [])
    assert len(database.execute(MANY_GROUPS_SQL).rows) == 1024
    assert calls <= MANY_GROUPS_CALLS_BUDGET, (
        f"{calls} Python-level calls for one cached GROUP BY of 1 024 groups "
        f"(budget {MANY_GROUPS_CALLS_BUDGET}): the aggregate builds its state "
        f"per group and batch again"
    )


def test_a_text_of_a_cached_shape_is_not_planned_again():
    database, weights = weighted_db.__wrapped__()
    middle, width = len(weights) // 2, len(weights) // 50
    texts = [SHAPED_SQL.format(weights[middle + k], weights[middle + width + k]) for k in range(32)]
    for sql in texts[:30]:  # the range reads pay for the sorted copy
        database.execute(sql)
    database.execute("ANALYZE")  # the plan cache is empty
    database.execute(texts[30])
    hits = database.statistics["plan_cache_hits"]
    calls = count_calls(lambda: database.execute(texts[31]))
    assert database.statistics["plan_cache_hits"] == hits + 1
    assert database.last_counters["rows_scanned"] == 27
    assert calls <= SHAPE_HIT_CALLS_BUDGET, (
        f"{calls} Python-level calls for a text of a cached shape (budget "
        f"{SHAPE_HIT_CALLS_BUDGET}): it is parsed or planned again"
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


def test_a_durable_load_stays_inside_its_per_row_budget(product_rows):
    product, rows = product_rows
    durability = Durability(SimDisk())
    database = durability.open()
    create_pdm_schema(database)
    appends = durability.disk.total_appends
    calls = count_calls(lambda: load_product(database, product))
    assert durability.disk.total_appends - appends == 3 * rows  # B, I, C a row
    assert calls / rows <= DURABLE_LOAD_CALLS_PER_ROW_BUDGET, (
        f"{calls / rows:.1f} Python-level calls per row loaded with a WAL "
        f"(budget {DURABLE_LOAD_CALLS_PER_ROW_BUDGET}): a WAL record is built "
        f"as a WalRecord again, or a row's values go through the tag loop"
    )


def test_a_checkpoint_stays_inside_its_per_row_budget(product_rows):
    product, rows = product_rows
    durability = Durability(SimDisk())
    database = durability.open()
    create_pdm_schema(database)
    load_product(database, product)
    calls = count_calls(durability.checkpoint)
    assert durability.recover().table_rowcount("link") == len(product.links)
    assert calls / rows <= CHECKPOINT_CALLS_PER_ROW_BUDGET, (
        f"{calls / rows:.2f} Python-level calls per row checkpointed (budget "
        f"{CHECKPOINT_CALLS_PER_ROW_BUDGET}): a row's values go through the tag "
        f"loop again, or a call per row came back"
    )


def test_loading_a_product_leaves_few_objects_to_the_collector(product_rows):
    product, rows = product_rows
    database = new_pdm_database()
    gc.collect()
    before = len(gc.get_objects())
    load_product(database, product)
    gc.collect()
    tracked = len(gc.get_objects()) - before
    assert sum(database.table_rowcount(name) for name in database.table_names()) == rows
    assert tracked / rows <= TRACKED_OBJECTS_PER_ROW_BUDGET, (
        f"{tracked / rows:.3f} GC-tracked objects left per row loaded (budget "
        f"{TRACKED_OBJECTS_PER_ROW_BUDGET}): an index keeps a container per "
        f"key again, and every full collection walks them"
    )


def test_generating_a_product_stays_inside_its_per_node_budget():
    generated = []
    calls = count_calls(lambda: generated.append(generate_product(TXN_MIX_TREE, seed=SEED)))
    nodes = generated[0].node_count
    assert nodes == 5_461
    assert calls / nodes <= GENERATE_CALLS_PER_NODE_BUDGET, (
        f"{calls / nodes:.2f} Python-level calls per generated node (budget "
        f"{GENERATE_CALLS_PER_NODE_BUDGET}): the generator calls per child "
        f"again, or builds a record by keyword"
    )


def test_a_generated_product_leaves_few_objects_to_the_collector():
    gc.collect()
    before = len(gc.get_objects())
    product = generate_product(TXN_MIX_TREE, seed=SEED)
    gc.collect()
    tracked = len(gc.get_objects()) - before
    assert tracked / product.node_count <= GENERATED_OBJECTS_PER_NODE_BUDGET, (
        f"{tracked / product.node_count:.3f} GC-tracked objects per generated "
        f"node (budget {GENERATED_OBJECTS_PER_NODE_BUDGET}): a record keeps a "
        f"container of its own again, and every full collection walks it"
    )
