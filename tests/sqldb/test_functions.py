"""Function registry: builtins, stored functions, aggregator unit tests."""

import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError, TypeMismatchError
from repro.sqldb import Database
from repro.sqldb.functions import FunctionRegistry, fold
from tests.sqldb.aggregator_oracle import Aggregator


class TestRegistry:
    def test_builtins_present(self):
        registry = FunctionRegistry()
        for name in ("UPPER", "LOWER", "LENGTH", "ABS", "SUBSTR", "MOD"):
            assert registry.is_registered(name)

    def test_call_case_insensitive(self):
        registry = FunctionRegistry()
        assert registry.call("upper", ["abc"]) == "ABC"

    def test_null_propagation_default(self):
        registry = FunctionRegistry()
        assert registry.call("UPPER", [None]) is None

    def test_null_propagation_opt_out(self):
        registry = FunctionRegistry()
        registry.register("is_missing", lambda x: x is None, propagate_null=False)
        assert registry.call("is_missing", [None]) is True

    def test_unknown_function_raises(self):
        with pytest.raises(ExecutionError):
            FunctionRegistry().call("nope", [])

    def test_function_error_wrapped(self):
        registry = FunctionRegistry()
        registry.register("boom", lambda: 1 / 0)
        with pytest.raises(ExecutionError):
            registry.call("boom", [])

    def test_reregistration_replaces(self):
        registry = FunctionRegistry()
        registry.register("f", lambda: 1)
        registry.register("f", lambda: 2)
        assert registry.call("f", []) == 2


class TestStoredFunctionsInSQL:
    """The SQL/PSM stand-in (paper Section 3.2): row conditions beyond
    plain predicates call stored functions from the WHERE clause."""

    @pytest.fixture
    def db(self):
        db = Database()
        db.execute("CREATE TABLE lk (obid INTEGER, strc_opt INTEGER)")
        for row in [(1, 1), (2, 2), (3, 3)]:
            db.execute("INSERT INTO lk VALUES (?, ?)", row)
        db.register_function(
            "options_overlap", lambda a, b: (int(a) & int(b)) != 0
        )
        return db

    def test_stored_function_in_where(self, db):
        result = db.execute(
            "SELECT obid FROM lk WHERE options_overlap(strc_opt, 1) ORDER BY 1"
        )
        assert result.column("obid") == [1, 3]

    def test_stored_function_in_select_list(self, db):
        result = db.execute(
            "SELECT options_overlap(strc_opt, 2) FROM lk ORDER BY obid"
        )
        assert result.rows == [(False,), (True,), (True,)]

    def test_stored_function_with_parameter(self, db):
        result = db.execute(
            "SELECT COUNT(*) FROM lk WHERE options_overlap(strc_opt, ?)", [2]
        )
        assert result.scalar() == 2

    def test_interval_overlap_function(self, db):
        db.register_function(
            "intervals_overlap",
            lambda a1, a2, b1, b2: a1 <= b2 and b1 <= a2,
        )
        db.execute(
            "CREATE TABLE eff (obid INTEGER, f INTEGER, t INTEGER)"
        )
        db.execute("INSERT INTO eff VALUES (1, 1, 5), (2, 6, 10)")
        result = db.execute(
            "SELECT obid FROM eff WHERE intervals_overlap(f, t, 4, 7) ORDER BY 1"
        )
        assert result.column("obid") == [1, 2]


class TestStoredFunctionsThroughACachedPlan:
    """A call from generated code is ``env.functions.bound[NAME](...)``,
    looked up when it runs: a cached plan sees every (re)registration and
    keeps the registry's NULL rule and error wrapping.  ``small`` is one
    batch of at most 64 rows (the row function per row), ``big`` one of
    more (the column loop)."""

    SIZES = {"small": 3, "big": 100}

    @pytest.fixture(params=sorted(SIZES))
    def db(self, request):
        db = Database()
        db.execute("CREATE TABLE t (id INTEGER, v INTEGER)")
        db.executemany(
            "INSERT INTO t VALUES (?, ?)",
            [(n, None if n == 0 else n) for n in range(self.SIZES[request.param])],
        )
        return db

    def run_twice(self, db, sql):
        """Both results of *sql*, the second from the plan cache."""
        first = db.execute(sql).rows
        hits = db.statistics["plan_cache_hits"]
        second = db.execute(sql).rows
        assert db.statistics["plan_cache_hits"] == hits + 1
        return first, second

    def test_an_unregistered_name_fails_where_it_runs(self, db):
        for __ in range(2):
            with pytest.raises(ExecutionError, match="unknown function 'NOPE'"):
                db.execute("SELECT id FROM t WHERE nope(v)")
        assert db.execute("SELECT id FROM t WHERE id < 0 AND nope(v)").rows == []

    def test_a_failing_function_is_an_execution_error(self, db):
        db.register_function("boom", lambda value: 1 // (value - value))
        for __ in range(2):
            with pytest.raises(ExecutionError, match="function 'boom' failed"):
                db.execute("SELECT id, boom(v) FROM t")

    def test_a_non_propagating_function_sees_the_null(self, db):
        db.register_function("missing", lambda value: value is None, propagate_null=False)
        first, second = self.run_twice(db, "SELECT id FROM t WHERE missing(v)")
        assert first == second == [(0,)]
        first, second = self.run_twice(db, "SELECT COUNT(*) FROM t WHERE NOT missing(v)")
        assert first == second == [(len(db.execute("SELECT id FROM t").rows) - 1,)]

    def test_a_propagating_function_is_not_called_on_null(self, db):
        seen = []
        db.register_function("spy", lambda value: seen.append(value) or value > 1)
        first, second = self.run_twice(db, "SELECT id FROM t WHERE spy(v)")
        assert first == second and (0,) not in first and None not in seen

    def test_re_registering_changes_a_cached_plan(self, db):
        sql = "SELECT id FROM t WHERE pick(v) ORDER BY id"
        db.register_function("pick", lambda value: value == 2)
        assert db.execute(sql).rows == [(2,)]
        hits = db.statistics["plan_cache_hits"]
        db.register_function("PICK", lambda value: value in (1, 2))
        assert db.execute(sql).rows == [(1,), (2,)]
        assert db.statistics["plan_cache_hits"] == hits + 1


class TestAggregatorUnit:
    def test_count_star(self):
        aggregator = Aggregator("COUNT", star=True)
        for __ in range(3):
            aggregator.add(None)
        assert aggregator.result() == 3

    def test_sum_ignores_nulls(self):
        aggregator = Aggregator("SUM")
        for value in (1, None, 2):
            aggregator.add(value)
        assert aggregator.result() == 3

    def test_empty_sum_is_null(self):
        assert Aggregator("SUM").result() is None

    def test_empty_count_is_zero(self):
        assert Aggregator("COUNT").result() == 0

    def test_avg(self):
        aggregator = Aggregator("AVG")
        for value in (2, 4):
            aggregator.add(value)
        assert aggregator.result() == 3

    def test_min_max(self):
        low, high = Aggregator("MIN"), Aggregator("MAX")
        for value in (5, 1, 3):
            low.add(value)
            high.add(value)
        assert (low.result(), high.result()) == (1, 5)

    def test_distinct_sum(self):
        aggregator = Aggregator("SUM", distinct=True)
        for value in (2, 2, 3):
            aggregator.add(value)
        assert aggregator.result() == 5

    def test_unknown_aggregate_rejected(self):
        with pytest.raises(ExecutionError):
            Aggregator("MEDIAN")


# ---------------------------------------------------------------------------
# add_many: one fold per column slice leaves the state of one add per value.
# ---------------------------------------------------------------------------

#: Ints, floats (some equal to an int, some with rounding tails) and
#: bools, with NULLs and duplicates; values of one chunk often recur in the next.
NUMBERS = st.one_of(
    st.none(),
    st.integers(-5, 5),
    st.sampled_from([0.1, 0.2, 0.3, 1e16, -1e16, 1.0, 2.5, -0.0]),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.booleans(),
)
STRINGS = st.one_of(st.none(), st.sampled_from(["", "a", "ab", "b", "B", "ä"]))


def chunked(values):
    """Split points over *values*: any chunking, empty chunks included."""
    return st.lists(st.integers(0, len(values)), max_size=6).map(
        lambda cuts: [0, *sorted(cuts), len(values)]
    )


#: (name, star) of every aggregate kind.
KINDS = [
    ("COUNT", True),
    ("COUNT", False),
    ("SUM", False),
    ("AVG", False),
    ("MIN", False),
    ("MAX", False),
]


@st.composite
def folds(draw):
    """An aggregate, its input values and a chunking of them."""
    name, star = draw(st.sampled_from(KINDS))
    distinct = not star and draw(st.booleans())
    pool = STRINGS if name in ("MIN", "MAX") and draw(st.booleans()) else NUMBERS
    values = draw(st.lists(pool, max_size=40))
    return name, distinct, star, values, draw(chunked(values))


def same_result(left, right):
    """Equal value and type; floats bit for bit (``-0.0`` is not ``0.0``)."""
    if isinstance(left, float) and isinstance(right, float):
        return left.hex() == right.hex()
    return type(left) is type(right) and left == right


class TestAddMany:
    @settings(max_examples=400, deadline=None)
    @given(folds())
    def test_a_chunked_fold_equals_the_add_loop(self, case):
        name, distinct, star, values, cuts = case
        one_by_one = Aggregator(name, distinct=distinct, star=star)
        for value in values:
            one_by_one.add(value)
        folded = Aggregator(name, distinct=distinct, star=star)
        for start, stop in zip(cuts, cuts[1:]):
            folded.add_many(values[start:stop])
        assert same_result(folded.result(), one_by_one.result()), (
            folded.result(),
            one_by_one.result(),
        )

    def test_int_sum_stays_int_and_all_null_stays_null(self):
        total = Aggregator("SUM")
        total.add_many([1, None, 2])
        total.add_many([None, None])
        total.add_many([])
        assert total.result() == 3 and type(total.result()) is int
        empty = Aggregator("AVG")
        empty.add_many([None, None])
        assert empty.result() is None

    def test_distinct_screens_across_chunks_in_input_order(self):
        aggregator = Aggregator("SUM", distinct=True)
        aggregator.add_many([1, 2, 2])
        aggregator.add_many([2.0, 3, True])  # 2.0 and True were seen as 2 and 1
        assert aggregator.result() == 6 and type(aggregator.result()) is int

    def test_float_sum_is_a_left_fold_not_compensated(self):
        aggregator = Aggregator("SUM")
        aggregator.add_many([0.1] * 10)
        assert aggregator.result() == 0.9999999999999999


class TestSumAndAvgFoldFromIntegerZero:
    """SUM and AVG add from integer 0, as SQLite does: text raises, as
    ``s + 1`` does (SQLite reads it as 0), a BOOLEAN sums to an integer
    and ``-0.0`` to ``0.0``, one row or many."""

    @pytest.mark.parametrize("values", [["a"], ["a", "b"], [None, "a"], ["a", 1], [2, "b"]], ids=repr)
    @pytest.mark.parametrize("name", ["SUM", "AVG"])
    def test_text_raises(self, name, values):
        for aggregate in (lambda: fold(name)(list(values)), lambda: aggregated(name, values)):
            with pytest.raises(TypeMismatchError, match=f"^{name}: .*'int' and 'str'"):
                aggregate()

    @pytest.mark.parametrize(
        "name, values, expected",
        [
            ("SUM", [True], 1),
            ("SUM", [True, True], 2),
            ("SUM", [False, None], 0),
            ("SUM", [-0.0], 0.0),
            ("SUM", [-0.0, -0.0], 0.0),
            ("AVG", [-0.0], 0.0),
            ("SUM", [0.1] * 3, 0.30000000000000004),
            ("SUM", [2, 3], 5),
        ],
        ids=repr,
    )
    def test_the_fold_starts_from_integer_zero(self, name, values, expected):
        assert same_result(fold(name)(list(values)), expected)
        assert same_result(aggregated(name, values), expected)

    def test_as_sqlite_in_sql(self):
        db = Database()
        db.execute("CREATE TABLE f (id INTEGER PRIMARY KEY, b BOOLEAN, z DOUBLE, s VARCHAR(4))")
        oracle = sqlite3.connect(":memory:")
        oracle.execute("CREATE TABLE f (id, b, z, s)")
        rows = [(1, True, -0.0, "a"), (2, True, -0.0, "b"), (3, None, None, None)]
        for engine in (db, oracle):
            engine.executemany("INSERT INTO f VALUES (?, ?, ?, ?)", rows)
        for where in ("id = 1", "id < 3", "1 = 1"):
            sql = f"SELECT SUM(b), SUM(z), AVG(z), COUNT(s) FROM f WHERE {where}"
            ours, theirs = db.execute(sql).rows[0], oracle.execute(sql).fetchone()
            assert all(map(same_result, ours, theirs)), (sql, ours, theirs)
        for name in ("SUM", "AVG"):
            with pytest.raises(TypeMismatchError):
                db.execute(f"SELECT {name}(s) FROM f WHERE id = 1")
        oracle.close()


def aggregated(name, values):
    aggregator = Aggregator(name)
    for value in values:
        aggregator.add(value)
    return aggregator.result()
