"""SQLite checks the rule translation.

Late and early evaluation run one translation of a row condition — the
late check compiles the very predicate early evaluation injects — so a
translation bug can no longer show up as late ≠ early.  SQLite shares no
code with either, so it is the check: for generated row conditions
(same-kind comparisons, stored functions, ``NOT`` / ``AND`` / ``OR``,
NULL constants and NULL attribute values) the objects the compiled late
check admits must be exactly the rows ``SELECT id FROM obj WHERE
<translated condition>`` returns from SQLite over the same values.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pdm.schema import register_stored_functions
from repro.rules.conditions import (
    And,
    Attribute,
    BoolFunction,
    Comparison,
    Const,
    Not,
    Or,
    UserVar,
)
from repro.rules.evaluate import RowCheck
from repro.rules.translate import translate_row_condition
from repro.sqldb.executor import ExecutionEnv
from repro.sqldb.functions import FunctionRegistry
from repro.sqldb.render import render_expression
from tests.sqldb.test_sqlite_oracle import sqlite_twin

USER_ENV = {"unit": 2}
ENV = ExecutionEnv(functions=register_stored_functions(FunctionRegistry()))

NUMERIC_COLUMNS = ("num", "qty", "opt", "flag")
STRING_COLUMNS = ("label", "code")
COLUMNS = ("id",) + NUMERIC_COLUMNS + STRING_COLUMNS
OPERATORS = st.sampled_from(["=", "<>", "<", "<=", ">", ">="])

small_ints = st.integers(min_value=-3, max_value=7)
strings = st.sampled_from(["", "a", "ab", "b", "B", "it's"])

numeric_terms = st.one_of(
    st.sampled_from(NUMERIC_COLUMNS).map(Attribute),
    small_ints.map(Const),
    st.just(Const(None)),
    st.just(UserVar("unit")),
)
string_terms = st.one_of(
    st.sampled_from(STRING_COLUMNS).map(Attribute),
    strings.map(Const),
    st.just(Const(None)),
)

leaves = st.one_of(
    st.builds(Comparison, OPERATORS, numeric_terms, numeric_terms),
    st.builds(Comparison, OPERATORS, string_terms, string_terms),
    st.builds(
        BoolFunction,
        st.just("options_overlap"),
        st.tuples(numeric_terms, numeric_terms),
    ),
    st.builds(
        BoolFunction,
        st.just("is_effective"),
        st.tuples(numeric_terms, numeric_terms, numeric_terms),
    ),
)
row_conditions = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.builds(Not, children),
        st.builds(And, children, children),
        st.builds(Or, children, children),
    ),
    max_leaves=6,
)


def nullable(values):
    return st.one_of(st.none(), values)


objects = st.lists(
    st.fixed_dictionaries(
        {
            "num": nullable(small_ints),
            "qty": nullable(small_ints),
            "opt": nullable(st.integers(min_value=0, max_value=7)),
            "flag": nullable(st.booleans()),
            "label": nullable(strings),
            "code": nullable(strings),
        }
    ),
    min_size=1,
    max_size=8,
)


@given(row_conditions, objects)
@settings(max_examples=200, deadline=None)
def test_the_late_check_admits_what_sqlite_admits(condition, values):
    rows = [dict(attrs, id=position) for position, attrs in enumerate(values)]
    check = RowCheck([condition], USER_ENV)
    admitted = {row["id"] for row in rows if check.value(row, ENV) is True}
    where = render_expression(translate_row_condition(condition, None, USER_ENV))
    oracle = sqlite_twin(
        {"obj": (COLUMNS, [tuple(row[column] for column in COLUMNS) for row in rows])}
    )
    try:
        selected = {row_id for (row_id,) in oracle.execute(f"SELECT id FROM obj WHERE {where}")}
    finally:
        oracle.close()
    assert admitted == selected, where
