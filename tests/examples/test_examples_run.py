"""Every example script must run to completion and print its story.

These are true end-to-end smoke tests: each example wires the full stack
(engine + WAN + server + PDM + rules) through the public API only.
"""

import pathlib
import subprocess
import sys

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[2] / "examples"


def run_example(name, *args, timeout=180):
    process = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert process.returncode == 0, process.stderr
    return process.stdout


def test_examples_directory_complete():
    names = {path.name for path in EXAMPLES_DIR.glob("*.py")}
    assert {
        "quickstart.py",
        "worldwide_expand.py",
        "access_rules.py",
        "checkout_workflow.py",
        "capacity_planning.py",
        "impact_analysis.py",
        "engineer_session.py",
    } <= names


def test_quickstart():
    out = run_example("quickstart.py")
    assert "recursive-early" in out
    assert "retrieved tree" in out


def test_worldwide_expand_small():
    out = run_example("worldwide_expand.py", "--small")
    assert "LAN" in out
    assert "WAN-256" in out


def test_access_rules():
    out = run_example("access_rules.py")
    assert "ROW condition" in out
    assert "0 nodes retrieved" in out  # the all-or-nothing example
    assert "WITH RECURSIVE" in out  # prints the generated SQL


def test_checkout_workflow():
    out = run_example("checkout_workflow.py")
    assert "denied" in out
    assert "function shipping saves" in out


def test_capacity_planning():
    out = run_example("capacity_planning.py")
    assert "Buy bandwidth" in out
    assert "Closed-form planning" in out
    assert "impossible" in out


def test_engineer_session():
    out = run_example("engineer_session.py")
    assert "session recipe" in out
    assert "recursive-early" in out


def test_impact_analysis():
    out = run_example("impact_analysis.py")
    assert "where-used" in out
    assert "denied atomically" in out
