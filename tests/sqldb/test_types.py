"""Type system and three-valued logic tests."""

import pytest

from repro.errors import TypeMismatchError
from repro.sqldb.types import (
    BOOLEAN,
    CHAR,
    DOUBLE,
    INTEGER,
    VARCHAR,
    coerce_value,
    compare_values,
    infer_type,
    is_null,
    logical_and,
    logical_not,
    logical_or,
    type_from_name,
)


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
        assert INTEGER.is_numeric
        assert DOUBLE.is_numeric
        assert VARCHAR(5).is_character
        assert CHAR(1).is_character
        assert not BOOLEAN.is_numeric


class TestCoercion:
    def test_null_passes_through(self):
        assert coerce_value(None, INTEGER) is None

    def test_int_from_string(self):
        assert coerce_value("42", INTEGER) == 42

    def test_float_from_int(self):
        assert coerce_value(3, DOUBLE) == 3.0

    def test_bool_from_string(self):
        assert coerce_value("true", BOOLEAN) is True
        assert coerce_value("F", BOOLEAN) is False

    def test_bool_from_number(self):
        assert coerce_value(1, BOOLEAN) is True
        assert coerce_value(0, BOOLEAN) is False

    def test_string_from_number(self):
        assert coerce_value(5, VARCHAR(10)) == "5"

    def test_varchar_truncates_on_cast(self):
        assert coerce_value("abcdef", VARCHAR(3)) == "abc"

    def test_invalid_int_raises(self):
        with pytest.raises(TypeMismatchError):
            coerce_value("not-a-number", INTEGER)

    def test_invalid_bool_raises(self):
        with pytest.raises(TypeMismatchError):
            coerce_value("maybe", BOOLEAN)

    @pytest.mark.parametrize("value", [float("inf"), float("-inf")])
    def test_infinity_into_integer_is_a_type_error(self, value):
        with pytest.raises(TypeMismatchError, match="cannot coerce -?inf to INTEGER"):
            coerce_value(value, INTEGER)

    def test_cast_of_infinity_to_integer_is_a_type_error(self):
        from repro.sqldb import Database

        with pytest.raises(TypeMismatchError, match="cannot coerce inf to INTEGER"):
            Database().execute("SELECT CAST(1e400 AS INTEGER)")


class TestInference:
    def test_infer(self):
        assert infer_type(1).name == "INTEGER"
        assert infer_type(1.5).name == "DOUBLE"
        assert infer_type(True).name == "BOOLEAN"
        assert infer_type("x").name == "VARCHAR"

    def test_is_null(self):
        assert is_null(None)
        assert not is_null(0)
        assert not is_null("")


class TestThreeValuedLogic:
    def test_and_truth_table(self):
        assert logical_and(True, True) is True
        assert logical_and(True, False) is False
        assert logical_and(False, None) is False  # False dominates
        assert logical_and(True, None) is None
        assert logical_and(None, None) is None

    def test_or_truth_table(self):
        assert logical_or(False, False) is False
        assert logical_or(True, None) is True  # True dominates
        assert logical_or(False, None) is None
        assert logical_or(None, None) is None

    def test_not(self):
        assert logical_not(True) is False
        assert logical_not(False) is True
        assert logical_not(None) is None


class TestComparison:
    def test_numbers(self):
        assert compare_values(1, 2) == -1
        assert compare_values(2, 2) == 0
        assert compare_values(3, 2) == 1

    def test_mixed_numeric_types(self):
        assert compare_values(1, 1.0) == 0

    def test_strings(self):
        assert compare_values("a", "b") == -1

    def test_null_propagates(self):
        assert compare_values(None, 1) is None
        assert compare_values("x", None) is None

    def test_cross_type_raises(self):
        with pytest.raises(TypeMismatchError):
            compare_values(1, "1")

    def test_bool_compares_as_number(self):
        assert compare_values(True, 1) == 0
        assert compare_values(False, 1) == -1
