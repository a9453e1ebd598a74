"""The analyzer's surfaces: a script against a database (which it never
executes), workload analysis, the template self-check, and the CLI."""

import json

import pytest

from repro.analysis import (
    REPEAT_THRESHOLD,
    Severity,
    analyze_sql,
    analyze_transaction_sql,
    analyze_workload,
    is_lint_clean,
)
from repro.analysis.__main__ import main as cli_main
from repro.analysis.templates import (
    recursive_early_workload,
    table2_late_workload,
    template_queries,
)
from repro.sqldb import Database

POINT_SELECT = "SELECT name FROM part WHERE obid = ?"


class TestStaticness:
    """Given a database, the script analyzer reads its catalog but
    executes nothing: the statement counter and every table's rows are
    the same after as before."""

    @pytest.fixture
    def db(self):
        db = Database()
        db.execute("CREATE TABLE part (obid INTEGER PRIMARY KEY, name VARCHAR(10))")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        db.execute("INSERT INTO part VALUES (1, 'root'), (2, 'child')")
        db.execute("INSERT INTO t VALUES (1, 10), (2, 20)")
        return db

    @staticmethod
    def rows(db):
        return {
            name: db.execute(f"SELECT * FROM {name} ORDER BY 1").rows
            for name in db.table_names()
        }

    def test_analyze_transaction_sql_executes_nothing(self, db):
        before = self.rows(db)
        statements = db.statistics["statements"]
        (c002,) = [
            f
            for f in analyze_transaction_sql(
                "UPDATE t SET v = v + 1 WHERE id = 1", database=db
            )
            if f.rule_id == "C002"
        ]
        assert c002.severity is Severity.ERROR
        analyze_transaction_sql(
            "BEGIN; DELETE FROM t WHERE id = 1; COMMIT", database=db
        )
        assert db.statistics["statements"] == statements
        assert self.rows(db) == before


class TestWorkloadAnalysis:
    def test_repeated_point_select_escalates(self):
        report = analyze_workload([POINT_SELECT] * REPEAT_THRESHOLD)
        w001 = [f for f in report.findings if f.rule_id == "W001"]
        assert w001 and all(f.severity is Severity.WARNING for f in w001)
        assert report.statement_count == REPEAT_THRESHOLD
        assert report.distinct_shapes == 1

    def test_below_threshold_stays_info(self):
        report = analyze_workload([POINT_SELECT] * (REPEAT_THRESHOLD - 1))
        w001 = [f for f in report.findings if f.rule_id == "W001"]
        assert w001 and all(f.severity is Severity.INFO for f in w001)

    def test_whitespace_variants_count_as_one_shape(self):
        report = analyze_workload(
            [POINT_SELECT, "SELECT name\n  FROM part WHERE obid = ?"] * 5
        )
        assert report.distinct_shapes == 1

    def test_table2_late_workload_is_flagged(self):
        report = analyze_workload(table2_late_workload(nodes=100))
        assert report.max_severity is Severity.WARNING

    def test_recursive_early_workload_is_clean(self):
        report = analyze_workload(recursive_early_workload())
        assert report.max_severity < Severity.WARNING


class TestTemplateSelfCheck:
    def test_every_template_is_lint_clean(self):
        """Every query the PDM layer or the rule rewriter can emit must
        have no findings at WARNING or above."""
        dirty = {}
        for name, sql in template_queries():
            findings = analyze_sql(sql)
            if not is_lint_clean(findings):
                dirty[name] = [f.as_row() for f in findings]
        assert not dirty, f"templates with warnings/errors: {dirty}"

    def test_corpus_covers_builders_and_rewrites(self):
        names = {name for name, __ in template_queries()}
        assert "mle-recursive" in names
        assert "rewrite-mle-early-inside" in names
        assert any(name.startswith("batched-children") for name in names)

    def test_bucket_constant_shared_with_pdm_client(self):
        from repro.pdm.operations import BATCH_KEY_BUCKETS

        names = {name for name, __ in template_queries()}
        for node_type in ("assy", "comp"):
            assert {
                name
                for name in names
                if name.startswith(f"batched-children-{node_type}-")
            } == {
                f"batched-children-{node_type}-{bucket}"
                for bucket in BATCH_KEY_BUCKETS
            }


class TestCli:
    def test_templates_mode_passes_warning_gate(self, capsys):
        assert cli_main(["--templates", "--fail-on", "warning"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_late_workload_fails_warning_gate(self, capsys):
        exit_code = cli_main(
            ["--workload", "table2-late", "--nodes", "20", "--fail-on", "warning"]
        )
        assert exit_code == 1
        assert "W001" in capsys.readouterr().out

    def test_late_workload_passes_error_gate(self, capsys):
        assert cli_main(["--workload", "table2-late", "--nodes", "20"]) == 0
        capsys.readouterr()

    def test_json_output(self, capsys):
        assert cli_main(["--workload", "recursive-early", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["worst"] == "INFO"
        assert payload["results"][0]["source"] == "workload:recursive-early"

    def test_lints_sql_file(self, tmp_path, capsys):
        workload = tmp_path / "workload.sql"
        workload.write_text(
            "SELECT name FROM part WHERE obid = ?;\n"
            "WITH RECURSIVE r(obid) AS (SELECT obid FROM part WHERE obid = ?"
            " UNION ALL SELECT l.right FROM r JOIN link l ON l.left = r.obid)"
            " SELECT obid FROM r;\n"
        )
        exit_code = cli_main([str(workload), "--fail-on", "warning"])
        out = capsys.readouterr().out
        assert exit_code == 1
        assert "W001" in out and "R003" in out

    def test_unparseable_file_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.sql"
        bad.write_text("SELEKT nonsense;")
        assert cli_main([str(bad)]) == 1
        capsys.readouterr()

    def test_no_input_is_usage_error(self, capsys):
        assert cli_main([]) == 2
        err = capsys.readouterr().err
        assert "--scripts" in err


class TestScriptsCli:
    CLEAN = (
        "-- pragma: sequenced\n"
        "BEGIN;\n"
        "SELECT v FROM t WHERE id = 1;\n"
        "COMMIT;\n"
    )
    NON_IDEMPOTENT = "UPDATE t SET v = v + 1 WHERE id = 1;\n"

    def write_corpus(self, tmp_path, **scripts):
        for name, text in scripts.items():
            (tmp_path / f"{name}.sql").write_text(text)
        return str(tmp_path)

    def test_clean_corpus_passes_error_gate(self, tmp_path, capsys):
        corpus = self.write_corpus(tmp_path, reader=self.CLEAN)
        assert cli_main(["--scripts", corpus, "--fail-on", "error"]) == 0
        capsys.readouterr()

    def test_c002_error_fails_error_gate(self, tmp_path, capsys):
        corpus = self.write_corpus(tmp_path, bump=self.NON_IDEMPOTENT)
        exit_code = cli_main(["--scripts", corpus, "--fail-on", "error"])
        assert exit_code == 1
        assert "C002" in capsys.readouterr().out

    def test_c001_warning_fails_warning_gate_only(self, tmp_path, capsys):
        inversion = (
            "-- pragma: sequenced\n"
            "BEGIN;\n"
            "UPDATE t SET v = 1 WHERE id = ?;\n"
            "UPDATE t SET v = 1 WHERE id = ?;\n"
            "COMMIT;\n"
        )
        corpus = self.write_corpus(tmp_path, contended=inversion)
        assert cli_main(["--scripts", corpus, "--fail-on", "error"]) == 0
        capsys.readouterr()
        exit_code = cli_main(["--scripts", corpus, "--fail-on", "warning"])
        out = capsys.readouterr().out
        assert exit_code == 1
        assert "C001" in out
        assert "predicted deadlock contended <-> contended" in out

    def test_unparseable_script_fails(self, tmp_path, capsys):
        corpus = self.write_corpus(tmp_path, bad="SELEKT nonsense;")
        assert cli_main(["--scripts", corpus]) == 1
        capsys.readouterr()

    def test_json_shape(self, tmp_path, capsys):
        corpus = self.write_corpus(
            tmp_path, bump=self.NON_IDEMPOTENT, reader=self.CLEAN
        )
        exit_code = cli_main(["--scripts", corpus, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 1  # C002 is an ERROR, default --fail-on error
        assert payload["worst"] == "ERROR"
        (entry,) = [
            r for r in payload["results"] if r["source"] == "scripts"
        ]
        assert entry["scripts"] == ["bump", "reader"]
        assert {"rule_id", "severity", "message", "node_path"} <= set(
            entry["findings"][0]
        )
        assert any(
            finding["rule_id"] == "C002" for finding in entry["findings"]
        )
        assert isinstance(entry["conflict_edges"], list)
        assert isinstance(entry["deadlock_cycles"], list)

    def test_explicit_file_and_directory_mix(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "reader.sql").write_text(self.CLEAN)
        lone = tmp_path / "lone.sql"
        lone.write_text(self.CLEAN)
        exit_code = cli_main(
            ["--scripts", str(corpus), str(lone), "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        (entry,) = [
            r for r in payload["results"] if r["source"] == "scripts"
        ]
        assert entry["scripts"] == ["reader", "lone"]

    def test_committed_corpus_is_error_free(self, capsys):
        import os

        corpus = os.path.join(
            os.path.dirname(__file__), "..", "..", "examples", "txn_scripts"
        )
        assert cli_main(["--scripts", corpus, "--fail-on", "error"]) == 0
        capsys.readouterr()
