"""The ANALYZE statement, the statistics catalog, and estimate quality.

The drift test is the acceptance bound of the cost-based planner: over
the 25-template PDM corpus every operator's ``est_rows`` must stay
within a loose factor of the actual per-loop row count observed by
EXPLAIN ANALYZE.  Tight point assertions (pk lookups estimate exactly
one row, scans estimate the exact row count, range estimates land
within 2x on uniform data) live alongside because the loose corpus
bound alone would not catch a broken selectivity rule.
"""

from __future__ import annotations

import re

import pytest

from repro.errors import CatalogError
from repro.sqldb import Database
from repro.sqldb.stats import (
    NUM_HISTOGRAM_BUCKETS,
    ColumnStats,
    collect_table_stats,
)


@pytest.fixture
def db():
    db = Database()
    db.execute_script(
        """
        CREATE TABLE u (id INTEGER PRIMARY KEY, grp INTEGER, v INTEGER);
        CREATE INDEX u_grp ON u (grp)
        """
    )
    db.executemany(
        "INSERT INTO u VALUES (?, ?, ?)",
        [(i, i % 5, i if i % 10 else None) for i in range(100)],
    )
    return db


def plan_text(db, sql, params=()):
    return "\n".join(
        line for (line,) in db.execute(f"EXPLAIN {sql}", params).rows
    )


class TestAnalyzeStatement:
    def test_analyze_one_table(self, db):
        result = db.execute("ANALYZE u")
        assert result.columns == ["table", "rows", "columns"]
        assert result.rows == [("u", 100, 3)]

    def test_analyze_all_tables_sorted(self, db):
        db.execute("CREATE TABLE a (x INTEGER)")
        result = db.execute("ANALYZE")
        assert [row[0] for row in result.rows] == ["a", "u"]

    def test_analyze_unknown_table_raises(self, db):
        with pytest.raises(CatalogError):
            db.execute("ANALYZE nope")

    def test_analyze_invalidates_plan_cache(self, db):
        db.execute("SELECT * FROM u WHERE grp = ?", (1,))
        db.execute("SELECT * FROM u WHERE grp = ?", (1,))
        assert db.statistics["plan_cache_hits"] >= 1
        db.execute("ANALYZE u")
        assert len(db._plan_cache) == 0
        # The next run replans and now carries estimates.
        text = plan_text(db, "SELECT * FROM u WHERE grp = ?", (1,))
        assert "est_rows=" in text

    def test_drop_table_drops_stats(self, db):
        db.execute("ANALYZE u")
        assert db.stats.get("u") is not None
        db.execute("DROP TABLE u")
        assert db.stats.get("u") is None

    def test_analyze_allowed_inside_transaction(self, db):
        db.execute("BEGIN TRANSACTION")
        db.execute("ANALYZE u")
        db.execute("ROLLBACK")
        # Statistics are advisory, not transactional state.
        assert db.stats.get("u") is not None


class TestCollectedStatistics:
    def test_row_count_distinct_and_null_fraction(self, db):
        db.execute("ANALYZE u")
        stats = db.stats.get("u")
        assert stats.row_count == 100
        assert stats.column("id").n_distinct == 100
        assert stats.column("id").null_frac == 0.0
        assert stats.column("grp").n_distinct == 5
        # v is NULL at multiples of 10: 10 of 100 rows.
        assert stats.column("v").null_frac == pytest.approx(0.1)
        assert stats.column("v").n_distinct == 90

    def test_min_max_and_histogram_edges(self, db):
        db.execute("ANALYZE u")
        column = db.stats.get("u").column("id")
        assert column.min_value == 0
        assert column.max_value == 99
        assert len(column.histogram) == NUM_HISTOGRAM_BUCKETS + 1
        assert column.histogram[0] == 0
        assert column.histogram[-1] == 99
        assert list(column.histogram) == sorted(column.histogram)

    def test_collection_is_deterministic(self, db):
        entry = db.catalog.lookup("u")
        first = collect_table_stats(entry.schema, entry.storage)
        second = collect_table_stats(entry.schema, entry.storage)
        assert first == second

    def test_mistyped_probe_value_falls_back_to_default(self):
        column = ColumnStats(
            n_distinct=3,
            null_frac=0.0,
            min_value=1,
            max_value=3,
            histogram=(1, 2, 3),
        )
        # A string probed against a numeric histogram cannot compare.
        assert column.fraction_below("a") is None

    def test_string_columns_get_histograms_too(self):
        db = Database()
        db.execute("CREATE TABLE m (x VARCHAR(10))")
        db.executemany(
            "INSERT INTO m VALUES (?)", [(chr(ord("a") + i),) for i in range(26)]
        )
        entry = db.catalog.lookup("m")
        column = collect_table_stats(entry.schema, entry.storage).column("x")
        assert column.n_distinct == 26
        assert column.min_value == "a"
        assert column.max_value == "z"
        assert len(column.histogram) == NUM_HISTOGRAM_BUCKETS + 1

    def test_eq_selectivity_accounts_for_nulls(self):
        column = ColumnStats(n_distinct=4, null_frac=0.2)
        assert column.eq_selectivity() == pytest.approx(0.8 / 4)
        assert ColumnStats(n_distinct=0, null_frac=0.0).eq_selectivity() == 0.0


class TestEstimateRendering:
    def test_no_estimates_before_analyze(self, db):
        assert "est_rows=" not in plan_text(db, "SELECT * FROM u")

    def test_seq_scan_estimates_exact_row_count(self, db):
        db.execute("ANALYZE u")
        assert "SeqScan(u) (est_rows=100)" in plan_text(db, "SELECT * FROM u")

    def test_pk_lookup_estimates_one_row(self, db):
        db.execute("ANALYZE u")
        text = plan_text(db, "SELECT * FROM u WHERE id = ?", (7,))
        assert "IndexLookup(u via u_pk) (est_rows=1)" in text

    def test_group_lookup_estimates_group_size(self, db):
        db.execute("ANALYZE u")
        text = plan_text(db, "SELECT * FROM u WHERE grp = ?", (1,))
        assert "IndexLookup(u via u_grp) (est_rows=20)" in text

    def test_explain_analyze_carries_both(self, db):
        db.execute("ANALYZE u")
        text = "\n".join(
            line
            for (line,) in db.execute(
                "EXPLAIN ANALYZE SELECT * FROM u WHERE grp = 1"
            ).rows
        )
        assert "(est_rows=20 loops=1 rows=20)" in text


class TestRangeEstimates:
    def test_uniform_range_estimate_within_2x(self):
        db = Database()
        db.execute("CREATE TABLE big (id INTEGER PRIMARY KEY, w INTEGER)")
        db.executemany(
            "INSERT INTO big VALUES (?, ?)", [(i, i) for i in range(1000)]
        )
        db.execute("ANALYZE big")
        for threshold, actual in ((250, 250), (500, 500), (900, 900)):
            text = plan_text(db, f"SELECT * FROM big WHERE w < {threshold}")
            match = re.search(r"Filter \(est_rows=(\d+)\)", text)
            assert match, text
            estimate = int(match.group(1))
            assert actual / 2 <= estimate <= actual * 2, (threshold, estimate)

    @pytest.mark.parametrize(
        "where, actual",
        [
            ("v >= 5000 AND v < 5200", 200),
            ("5200 > v AND 5000 <= v", 200),
            ("v BETWEEN 5000 AND 5199", 200),
            ("v >= 5000 AND v BETWEEN 4000 AND 5199", 200),
            ("v > 100 AND v < 9000 AND v <= 1100", 1000),
            ("v > 6000 AND v < 5000", 0),
        ],
    )
    def test_two_range_conjuncts_on_one_column_within_2x(self, where, actual):
        """The range conjuncts on one column bound one interval, priced as
        BETWEEN is, not as independent halves (``v >= 5000 AND v < 5200``
        was estimated at 2 600 rows)."""
        db = Database()
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        db.executemany("INSERT INTO t VALUES (?, ?)", [(i, i) for i in range(10_000)])
        db.execute("ANALYZE t")
        assert len(db.execute(f"SELECT * FROM t WHERE {where}").rows) == actual
        text = plan_text(db, f"SELECT * FROM t WHERE {where}")
        match = re.search(r"Filter \(est_rows=(\d+)\)", text)
        assert match, text
        estimate = int(match.group(1))
        assert actual / 2 <= estimate <= actual * 2, (where, estimate)


# ---------------------------------------------------------------------------
# Corpus-wide drift bound over the PDM template corpus.
# ---------------------------------------------------------------------------

DRIFT_FACTOR = 10.0
DRIFT_SLACK_ROWS = 50.0
_ANNOTATION = re.compile(r"est_rows=(\d+) loops=(\d+) rows=(\d+)")


def pdm_select_templates():
    from repro.analysis.templates import template_queries

    return [
        (name, sql)
        for name, sql in template_queries()
        if sql.lstrip().upper().startswith(("SELECT", "WITH"))
    ]


def parameter_count(sql: str) -> int:
    return re.sub(r"'[^']*'", "", sql).count("?")


#: No PDM template vectorizes (index paths, CTEs), so one reporting
#: statement that does rides along: the annotation the drift bound parses
#: must read the same off a plan that ran on the batch operators.
VECTORIZED_REPORT = (
    "report-count-by-sourcing",
    "SELECT make_or_buy, COUNT(*) FROM assy WHERE obid > 2 GROUP BY make_or_buy",
)


@pytest.mark.parametrize(
    "name,sql",
    pdm_select_templates() + [VECTORIZED_REPORT],
    ids=[n for n, _ in pdm_select_templates() + [VECTORIZED_REPORT]],
)
def test_corpus_estimates_within_drift_bounds(figure2_db, name, sql):
    """est_rows vs actual rows/loop stays within a loose factor (plus
    absolute slack: the Figure 2 tables hold tens of rows, where a
    single default selectivity is already a multiple of the table)."""
    figure2_db.execute("ANALYZE")
    params = tuple([1] * parameter_count(sql))
    text = "\n".join(
        line
        for (line,) in figure2_db.execute(f"EXPLAIN ANALYZE {sql}", params).rows
    )
    annotated = _ANNOTATION.findall(text)
    if (name, sql) == VECTORIZED_REPORT:
        # The scan carries its estimate and counts; the filter, fused into
        # the aggregate's pipeline, its estimate alone.
        assert len(annotated) == 1
        assert re.search(r"Filter \(est_rows=\d+ fused\)", text)
    for est, loops, rows in annotated:
        estimate = float(est)
        actual = float(rows) / float(loops)
        assert estimate <= DRIFT_FACTOR * actual + DRIFT_SLACK_ROWS, (
            name,
            estimate,
            actual,
        )
        assert actual <= DRIFT_FACTOR * estimate + DRIFT_SLACK_ROWS, (
            name,
            estimate,
            actual,
        )


def test_corpus_produces_annotated_operators(figure2_db):
    """The drift bound must actually see estimates (guard against the
    annotation silently disappearing)."""
    figure2_db.execute("ANALYZE")
    total = 0
    for __, sql in pdm_select_templates():
        params = tuple([1] * parameter_count(sql))
        text = "\n".join(
            line
            for (line,) in figure2_db.execute(
                f"EXPLAIN ANALYZE {sql}", params
            ).rows
        )
        total += len(_ANNOTATION.findall(text))
    assert total >= 25
