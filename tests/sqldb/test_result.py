"""ResultSet container semantics."""

import pytest

from repro.sqldb import Database
from repro.sqldb.result import ResultSet


@pytest.fixture
def result():
    return ResultSet(
        ["obid", "Name", "weight"],
        [(1, "Assy1", 2.5), (2, "Assy2", None)],
    )


class TestAccessors:
    def test_len_iter_bool(self, result):
        assert len(result) == 2
        assert list(result) == result.rows
        assert bool(result)
        assert not bool(ResultSet(["a"], []))

    def test_fetch(self, result):
        assert result.fetchone() == (1, "Assy1", 2.5)
        assert result.fetchall() == result.rows
        assert ResultSet(["a"], []).fetchone() is None

    def test_scalar(self, result):
        assert result.scalar() == 1
        assert ResultSet(["a"], []).scalar() is None

    def test_column_by_name_case_insensitive(self, result):
        assert result.column("name") == ["Assy1", "Assy2"]
        assert result.column("NAME") == ["Assy1", "Assy2"]

    def test_unknown_column_raises_with_candidates(self, result):
        with pytest.raises(KeyError, match="obid"):
            result.column("missing")

    def test_column_index(self, result):
        assert result.column_index("weight") == 2

    def test_as_dicts_lowercases_keys(self, result):
        dicts = result.as_dicts()
        assert dicts[0] == {"obid": 1, "name": "Assy1", "weight": 2.5}
        assert dicts[1]["weight"] is None

    def test_duplicate_column_names_first_wins(self):
        duplicated = ResultSet(["x", "x"], [(1, 2)])
        assert duplicated.column("x") == [1]

    def test_mixed_case_duplicates_resolve_to_the_first_position(self):
        """The name index is built on first use; it answers as the eager
        one did: case-insensitively, first occurrence wins."""
        mixed = ResultSet(["X", "y", "x", "Y"], [(1, 2, 3, 4), (5, 6, 7, 8)])
        assert mixed.column_index("x") == mixed.column_index("X") == 0
        assert mixed.column_index("Y") == 1
        assert mixed.column("x") == [1, 5]
        assert mixed.column("y") == [2, 6]
        # as_dicts keys each name once, in first-seen order, last value.
        assert mixed.as_dicts()[0] == {"x": 3, "y": 4}

    def test_first_lookup_may_be_a_miss(self):
        fresh = ResultSet(["Obid"], [(1,)])
        with pytest.raises(KeyError, match="Obid"):
            fresh.column_index("missing")
        assert fresh.column_index("OBID") == 0

    def test_zero_column_result_has_no_names(self):
        with pytest.raises(KeyError):
            ResultSet([], [], rowcount=3).column("anything")

    def test_rowcount_defaults_to_len(self, result):
        assert result.rowcount == 2

    def test_rowcount_override_for_dml(self):
        dml = ResultSet([], [], rowcount=7)
        assert dml.rowcount == 7
        assert len(dml) == 0

    def test_rows_are_tuples(self):
        built = ResultSet(["a", "b"], [[1, 2]])
        assert built.rows == [(1, 2)]

    def test_repr_mentions_shape(self, result):
        assert "rows=2" in repr(result)


class TestRowsAreTheCallersOwn:
    def test_mutating_rows_leaves_a_rerun_unchanged(self):
        # A bare SELECT * hands back the table's cached chunk: the result
        # must be a copy of the list, though not of its tuples.
        db = Database()
        db.execute("CREATE TABLE t (a INTEGER, b VARCHAR(4))")
        db.executemany("INSERT INTO t VALUES (?, ?)", [(1, "x"), (2, "y")])
        first = db.execute("SELECT * FROM t")
        first.rows[0] = (9, "q")
        first.rows.append((3, "z"))
        again = db.execute("SELECT * FROM t")
        assert again.rows == [(1, "x"), (2, "y")]
        assert ResultSet(["a", "b"], again.rows).rows[1] is again.rows[1]
