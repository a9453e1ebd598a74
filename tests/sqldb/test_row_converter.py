"""The generated row converter converts each value as ``converter(type)``.

``expressions.row_converter`` lets a value whose class already is its column's
pass with no call (``int`` for INTEGER, ``float`` for DOUBLE, ``bool`` for
BOOLEAN, a ``str`` within a VARCHAR's length) and hands every other value
to the type's converter.  Whatever the declared type and the value's
class — ``bool`` is an ``int`` subclass, an ``IntEnum`` or a ``str``
subclass is not its base class — the stored value, its type and the
error text are the converter's.
"""

import enum
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SQLError
from repro.sqldb.executor import unbound_parameter
from repro.sqldb.expressions import row_converter
from repro.sqldb.types import BOOLEAN, CHAR, DOUBLE, INTEGER, VARCHAR, SQLType, converter


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 7


class Text(str):
    pass


TYPES = [INTEGER, DOUBLE, BOOLEAN, VARCHAR(3), VARCHAR(None), CHAR(1), SQLType("BLOB")]

VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.sampled_from(list(Level)),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
    st.text(max_size=6).map(Text),
    st.sampled_from(["1", " 2 ", "-3", "1.5", "nan", "inf", "1e400", "t", "false", "x", ""]),
)


def outcome(convert, value):
    try:
        return "value", convert(value)
    except SQLError as exc:
        return type(exc), str(exc)


def same(left, right):
    if left[0] != "value" or right[0] != "value":
        return left == right
    a, b = left[1], right[1]
    if type(a) is not type(b):
        return False
    if isinstance(a, float) and math.isnan(a):
        return math.isnan(b)
    return a == b


def generated(sql_type):
    convert = row_converter(1, [(0, sql_type)], [[0]], None, unbound_parameter)

    def one(value):
        out = []
        convert([(value,)], out)
        return out[0][0]

    return one


@settings(max_examples=300, deadline=None)
@given(type_index=st.integers(0, len(TYPES) - 1), value=VALUES)
def test_the_generated_converter_is_the_types_converter(type_index, value):
    sql_type = TYPES[type_index]
    expected = outcome(converter(sql_type), value)
    got = outcome(generated(sql_type), value)
    assert same(got, expected), (sql_type, value, got, expected)


def test_a_bool_into_an_integer_column_is_converted():
    assert type(generated(INTEGER)(True)) is int
    assert type(generated(INTEGER)(Level.HIGH)) is int
    assert type(generated(VARCHAR(5))(Text("ab"))) is str


def test_a_row_stops_at_its_first_bad_value_and_keeps_the_rows_before():
    convert = row_converter(
        3, [(2, INTEGER), (0, VARCHAR(2))], [[1, 0]], None, unbound_parameter
    )
    out = []
    with pytest.raises(SQLError, match="cannot coerce 'x' to INTEGER"):
        convert([("abc", 5), ("z", True), ("ok", "x"), ("never", 1)], out)
    assert out == [("ab", None, 5), ("z", None, 1)]


def test_a_short_parameter_row_is_an_unbound_parameter():
    convert = row_converter(2, [(0, INTEGER), (1, INTEGER)], [[0, 3]], None, unbound_parameter)
    out = []
    with pytest.raises(SQLError) as raised:
        convert([(1, 2, 3, 4), (1, 2)], out)
    assert str(raised.value) == str(unbound_parameter(3, 2))
    assert out == [(1, 4)]
