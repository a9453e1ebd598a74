"""Layering: the static analyzer is an offline tool on top of the stack.

No module of ``repro`` outside ``repro.analysis`` imports it — at module
level or inside a function — and each top-level package imports on its
own in a fresh interpreter, without loading the analyzer.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(repro.__file__).parent


def imported_modules(node):
    """Dotted names an import statement binds or reads from."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
        return [node.module] + [
            f"{node.module}.{alias.name}" for alias in node.names
        ]
    return []


def analysis_imports(path):
    """Line numbers of every import of ``repro.analysis`` in *path*."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        node.lineno
        for node in ast.walk(tree)
        if any(
            name == "repro.analysis" or name.startswith("repro.analysis.")
            for name in imported_modules(node)
        )
    ]


def test_nothing_outside_the_package_imports_the_analyzer():
    offenders = {
        path.relative_to(ROOT).as_posix(): lines
        for path in sorted(ROOT.rglob("*.py"))
        if "analysis" not in path.relative_to(ROOT).parts
        for lines in [analysis_imports(path)]
        if lines
    }
    assert offenders == {}


def test_the_scan_sees_function_scoped_imports(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "def f():\n"
        "    from repro.analysis import analyze_sql\n"
        "    from repro import analysis\n"
        "    import repro.analysis.txn\n"
    )
    assert analysis_imports(module) == [2, 3, 4]


@pytest.mark.parametrize(
    "package", ["concurrency", "sqldb", "pdm", "server", "analysis", "recovery"]
)
def test_package_imports_on_its_own(package):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT.parent)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    probe = (
        f"import sys, repro.{package}; "
        "print('repro.analysis' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == str(package == "analysis")
