"""Aggregation: GROUP BY, HAVING, empty groups, NULL handling."""

import pytest

from repro.errors import ParseError, TypeMismatchError
from repro.sqldb import Database


@pytest.fixture
def db():
    db = Database()
    db.execute_script(
        "CREATE TABLE m (grp VARCHAR(4), val INTEGER, weight DOUBLE)"
    )
    rows = [
        ("a", 1, 1.0),
        ("a", 2, 2.0),
        ("a", None, 3.0),
        ("b", 10, None),
        ("b", 20, 4.0),
    ]
    for row in rows:
        db.execute("INSERT INTO m VALUES (?, ?, ?)", row)
    return db


class TestPlainAggregates:
    def test_count_star_counts_rows(self, db):
        assert db.execute("SELECT COUNT(*) FROM m").scalar() == 5

    def test_count_column_skips_nulls(self, db):
        assert db.execute("SELECT COUNT(val) FROM m").scalar() == 4

    def test_sum_avg_min_max(self, db):
        row = db.execute(
            "SELECT SUM(val), AVG(val), MIN(val), MAX(val) FROM m"
        ).fetchone()
        assert row == (33, 33 / 4, 1, 20)

    def test_aggregates_over_empty_table(self, db):
        db.execute("DELETE FROM m")
        row = db.execute("SELECT COUNT(*), SUM(val), MAX(val) FROM m").fetchone()
        assert row == (0, None, None)

    def test_count_distinct(self, db):
        db.execute("INSERT INTO m VALUES ('c', 1, 0.5)")
        assert db.execute("SELECT COUNT(DISTINCT val) FROM m").scalar() == 4

    def test_aggregate_of_expression(self, db):
        assert db.execute("SELECT SUM(val * 2) FROM m").scalar() == 66

    def test_expression_of_aggregates(self, db):
        assert db.execute("SELECT MAX(val) - MIN(val) FROM m").scalar() == 19


class TestGroupBy:
    def test_group_by_counts(self, db):
        result = db.execute(
            "SELECT grp, COUNT(*) FROM m GROUP BY grp ORDER BY grp"
        )
        assert result.rows == [("a", 3), ("b", 2)]

    def test_group_key_in_select(self, db):
        result = db.execute(
            "SELECT grp, SUM(val) FROM m GROUP BY grp ORDER BY grp"
        )
        assert result.rows == [("a", 3), ("b", 30)]

    def test_group_by_expression(self, db):
        result = db.execute(
            "SELECT val % 2, COUNT(*) FROM m WHERE val IS NOT NULL "
            "GROUP BY val % 2 ORDER BY 1"
        )
        assert result.rows == [(0, 3), (1, 1)]

    def test_having_filters_groups(self, db):
        result = db.execute(
            "SELECT grp FROM m GROUP BY grp HAVING COUNT(val) >= 2 ORDER BY grp"
        )
        assert result.column("grp") == ["a", "b"]
        result = db.execute(
            "SELECT grp FROM m GROUP BY grp HAVING SUM(val) > 10"
        )
        assert result.column("grp") == ["b"]

    def test_having_without_group_by_or_aggregate_rejected(self, db):
        with pytest.raises(ParseError):
            db.execute("SELECT grp FROM m HAVING grp = 'a'")

    def test_ungrouped_column_in_select_rejected(self, db):
        with pytest.raises(Exception):
            db.execute("SELECT val, COUNT(*) FROM m GROUP BY grp")

    def test_group_by_with_where(self, db):
        result = db.execute(
            "SELECT grp, COUNT(*) FROM m WHERE weight IS NOT NULL "
            "GROUP BY grp ORDER BY grp"
        )
        assert result.rows == [("a", 3), ("b", 1)]

    def test_group_by_null_key_forms_group(self, db):
        db.execute("INSERT INTO m VALUES (NULL, 7, 1.0)")
        result = db.execute("SELECT grp, COUNT(*) FROM m GROUP BY grp")
        groups = dict(result.rows)
        assert groups[None] == 1

    def test_order_by_aggregate(self, db):
        result = db.execute(
            "SELECT grp FROM m GROUP BY grp ORDER BY SUM(val) DESC"
        )
        assert result.column("grp") == ["b", "a"]


class TestPaperAggregatePatterns:
    """The tree-aggregate condition shapes of Section 5.3.3."""

    def test_count_with_type_filter(self, db):
        value = db.execute(
            "SELECT COUNT(*) FROM m WHERE grp = 'a'"
        ).scalar()
        assert value == 3

    def test_avg_threshold_comparison(self, db):
        result = db.execute(
            "SELECT * FROM m WHERE (SELECT AVG(weight) FROM m) <= 12"
        )
        assert len(result) == 5
        result = db.execute(
            "SELECT * FROM m WHERE (SELECT AVG(weight) FROM m) <= 1"
        )
        assert len(result) == 0


class TestMixedKinds:
    """An aggregate over numbers and strings in one group is a typed
    error, ungrouped and grouped, on the dict path and over the chunk's
    group numbers — never a bare Python ``TypeError``."""

    MIXED = "CASE WHEN k = 1 THEN s ELSE v END"

    @pytest.fixture
    def mixed(self):
        db = Database()
        db.execute("CREATE TABLE x (g INTEGER, k INTEGER, s VARCHAR(4), v INTEGER)")
        db.executemany(
            "INSERT INTO x VALUES (?, ?, ?, ?)",
            [(1, 1, "a", 1), (1, 2, "b", 2), (2, 2, "c", 3), (1, None, "d", None)],
        )
        return db

    @pytest.mark.parametrize("name", ["MAX", "MIN", "SUM", "AVG"])
    @pytest.mark.parametrize("distinct", ["", "DISTINCT "])
    def test_ungrouped(self, mixed, name, distinct):
        with pytest.raises(TypeMismatchError):
            mixed.execute(f"SELECT {name}({distinct}{self.MIXED}) FROM x")

    @pytest.mark.parametrize("name", ["MAX", "SUM"])
    def test_grouped_on_the_dict_path_and_over_group_numbers(self, mixed, name):
        from repro.sqldb.columnar import table_batches

        sql = f"SELECT g, {name}({self.MIXED}) FROM x GROUP BY g"
        storage = mixed.catalog.lookup("x").storage
        for __ in range(4):  # the third run on a version reads group numbers
            with pytest.raises(TypeMismatchError):
                mixed.execute(sql)
        assert all((0,) in chunk.columns for chunk in table_batches(storage))
        assert mixed.execute(f"SELECT g, {name}(v) FROM x GROUP BY g").rows[1] == (2, 3)
