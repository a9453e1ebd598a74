"""Type names, value conversion, and the engine's three-valued logic."""

import pytest

from repro.errors import TypeMismatchError
from repro.sqldb import Database
from repro.sqldb.types import (
    BOOLEAN,
    CHAR,
    DOUBLE,
    INTEGER,
    VARCHAR,
    converter,
    is_null,
    type_from_name,
)


def coerce(value, sql_type):
    return converter(sql_type)(value)


def row(sql):
    """The one row of a FROM-less SELECT."""
    (result,) = Database().execute(sql).rows
    return result


class TestTypeNames:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("integer", "INTEGER"),
            ("INT", "INTEGER"),
            ("bigint", "INTEGER"),
            ("double", "DOUBLE"),
            ("float", "DOUBLE"),
            ("real", "DOUBLE"),
            ("boolean", "BOOLEAN"),
        ],
    )
    def test_aliases(self, name, expected):
        assert type_from_name(name).name == expected

    def test_varchar_length(self):
        sql_type = type_from_name("varchar", 30)
        assert sql_type.name == "VARCHAR"
        assert sql_type.length == 30
        assert str(sql_type) == "VARCHAR(30)"

    def test_char_defaults_to_length_one(self):
        assert type_from_name("char").length == 1

    def test_unknown_type_raises(self):
        with pytest.raises(TypeMismatchError):
            type_from_name("blob")

    def test_predicates(self):
        assert VARCHAR(5).is_character
        assert CHAR(1).is_character
        assert not INTEGER.is_character


class TestCoercion:
    def test_null_passes_through(self):
        assert coerce(None, INTEGER) is None

    def test_int_from_string(self):
        assert coerce("42", INTEGER) == 42

    def test_float_from_int(self):
        assert coerce(3, DOUBLE) == 3.0

    def test_bool_from_string(self):
        assert coerce("true", BOOLEAN) is True
        assert coerce("F", BOOLEAN) is False

    def test_bool_from_number(self):
        assert coerce(1, BOOLEAN) is True
        assert coerce(0, BOOLEAN) is False

    def test_string_from_number(self):
        assert coerce(5, VARCHAR(10)) == "5"

    def test_varchar_truncates_on_cast(self):
        assert coerce("abcdef", VARCHAR(3)) == "abc"

    def test_invalid_int_raises(self):
        with pytest.raises(TypeMismatchError):
            coerce("not-a-number", INTEGER)

    def test_invalid_bool_raises(self):
        with pytest.raises(TypeMismatchError):
            coerce("maybe", BOOLEAN)

    @pytest.mark.parametrize("value", [float("inf"), float("-inf")])
    def test_infinity_into_integer_is_a_type_error(self, value):
        with pytest.raises(TypeMismatchError, match="cannot coerce -?inf to INTEGER"):
            coerce(value, INTEGER)

    def test_cast_of_infinity_to_integer_is_a_type_error(self):
        from repro.sqldb import Database

        with pytest.raises(TypeMismatchError, match="cannot coerce inf to INTEGER"):
            Database().execute("SELECT CAST(1e400 AS INTEGER)")


class TestInference:
    def test_is_null(self):
        assert is_null(None)
        assert not is_null(0)
        assert not is_null("")


class TestThreeValuedLogic:
    def test_and_truth_table(self):
        assert row(
            "SELECT TRUE AND TRUE, TRUE AND FALSE, FALSE AND NULL, "
            "TRUE AND NULL, NULL AND NULL"
        ) == (True, False, False, None, None)  # False dominates

    def test_or_truth_table(self):
        assert row(
            "SELECT FALSE OR FALSE, TRUE OR NULL, FALSE OR NULL, NULL OR NULL"
        ) == (False, True, None, None)  # True dominates

    def test_not(self):
        assert row("SELECT NOT TRUE, NOT FALSE, NOT NULL") == (False, True, None)


class TestComparison:
    def test_numbers(self):
        assert row("SELECT 1 < 2, 2 = 2, 3 > 2, 3 < 2") == (True, True, True, False)

    def test_mixed_numeric_types(self):
        assert row("SELECT 1 = 1.0") == (True,)

    def test_strings(self):
        assert row("SELECT 'a' < 'b'") == (True,)

    def test_null_propagates(self):
        assert row("SELECT NULL < 1, 'x' = NULL") == (None, None)

    def test_cross_type_raises(self):
        with pytest.raises(TypeMismatchError):
            row("SELECT 1 < '1'")

    def test_bool_compares_as_number(self):
        assert row("SELECT TRUE = 1, FALSE < 1") == (True, True)
