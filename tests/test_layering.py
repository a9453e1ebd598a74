"""Layering: the static analyzer is an offline tool on top of the stack.

No module of ``repro`` outside ``repro.analysis`` imports it — at module
level or inside a function — and each top-level package imports on its
own in a fresh interpreter, without loading the analyzer.

Transaction state has one owner, ``repro.sqldb.transactions``: no other
module reads a private attribute of it (through ``.transactions``) or
one of the names ``Database`` kept that state under before.

The SQL engine has a size: no module of ``repro.sqldb`` is longer than
:data:`SQLDB_MODULE_LINES`, and the package is no longer than
:data:`SQLDB_LINES` (``wc -l src/repro/sqldb/*.py``).  Raising either is
a declared change.  History of the package's count: 10 196 when the
result codec was generated per kind signature; 10 744 once each pipeline
ran as one generated loop (548 over, against the 150 its roadmap item
allowed); 10 683 once the hash and nested-loop joins were that loop's
join steps and DISTINCT, EXCEPT and INTERSECT its sinks, and their
hand-written row loops were deleted; 10 933 (250 more, the most its
change allowed) once a range conjunct read a sorted copy of its column
(``RangeScan``, the copy and its rental, the ordered pull of a top-k
sort), two range conjuncts on one column were estimated as one
interval, and an aggregate folded each group once; 10 821 once one
``IndexLookup`` took every key source (``=``, IN-list, IN-subquery), the
planner found them in one pass, and one method built a child planner;
10 900 (79 more, within the 80 its change allowed) once a SELECT's plan
was cached by statement shape with its literals as hidden parameters,
the lexer was one compiled alternation (81 lines fewer) and a range
scan took its bounds from its filter's lowered conjuncts; 10 974 (74
more, within the 80 its change allowed) once a GROUP BY over a table
version's cached chunks found each row's group by a list index into
rented group numbers, a fold dropped NULLs only where folding raised,
and GROUP BY matching kept the case of string literals; 10 971 once
``executemany`` converted, checked and placed an INSERT's parameter list
as one batch (a generated row converter, set-wise checks, statement
bookkeeping kept exact) with a simple CASE and typed mixed-kind
aggregate errors beside it, repaid by the per-row placement it deleted,
a second table-reference walk in ``ast_walk``, the storage's WAL hook
and the production copy of the incremental ``Aggregator`` (now the
tests' oracle; rules fold as SQL does); 10 952 once each pipeline held
one row loop, the one form with SQL's semantics, that every batch a
column loop refuses runs: the careful column and numbered loops, the
emitter's ``fast`` flag and ``Program.batch`` were deleted (SUM and
AVG folding from integer 0 beside it); 10 946 once a batch INSERT's WAL
records were written by one ``WalWriter.log_inserts`` call (the
statement loop moved out of ``Database``) and a counted list went
through the generated codec of its kind signature; 10 942 once
sessions, transactions and their lock glue left ``Database`` for one
owner in ``sqldb/transactions.py`` (its undo logs one dict, its id
sequences counters, one acquire over a footprint); 10 847 once
``Database``'s three options became module constants and the helpers
nothing called left ``sqldb/types.py`` (Python-level three-valued logic,
``compare_values``, ``coerce_value``, ``infer_type``,
``SQLType.is_numeric``) and ``sqldb/stats.py``
(``ColumnStats.range_selectivity``).
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(repro.__file__).parent

#: The most lines one module of ``repro.sqldb`` may have.
SQLDB_MODULE_LINES = 1_200

#: The most lines ``repro.sqldb`` may have (see the history above).
SQLDB_LINES = 10_847


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


#: The names ``Database`` held transaction state under before it had an
#: owner; no module reads them.
FORMER_TRANSACTION_STATE = frozenset(
    {"_aborted", "_transactions", "_current_session", "_txn_seq", "_implicit_txn_seq"}
)

TRANSACTIONS = ROOT / "sqldb" / "transactions.py"


def owner_privates():
    """Private methods and ``self`` attributes of ``sqldb/transactions.py``."""
    names = set()
    for node in ast.walk(ast.parse(TRANSACTIONS.read_text(encoding="utf-8"))):
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "self":
            names.add(node.attr)
    return {name for name in names if name.startswith("_") and not name.endswith("__")}


def transaction_state_reads(path, privates):
    """Line numbers in *path* that read a former transaction-state name,
    or a private attribute of the owner through ``<x>.transactions``."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
        and (
            node.attr in FORMER_TRANSACTION_STATE
            or node.attr in privates
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "transactions"
        )
    ]


def test_nothing_outside_the_owner_reads_transaction_state():
    privates = owner_privates()
    offenders = {
        path.relative_to(ROOT).as_posix(): lines
        for path in sorted(ROOT.rglob("*.py"))
        if path != TRANSACTIONS
        for lines in [transaction_state_reads(path, privates)]
        if lines
    }
    assert offenders == {}


def test_the_transaction_scan_sees_every_reach(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "def f(self, database):\n"
        "    database._transactions.get(1)\n"
        "    self.database._aborted.pop(1, None)\n"
        "    database.transactions._open.clear()\n"
        "    return self._open, database.transactions.get(1)\n"
    )
    assert transaction_state_reads(module, owner_privates()) == [2, 3, 4]


def sqldb_lines():
    """``{module: lines}`` of ``repro.sqldb``, counted as ``wc -l`` counts."""
    return {
        path.name: path.read_bytes().count(b"\n") for path in sorted((ROOT / "sqldb").glob("*.py"))
    }


def test_no_sqldb_module_is_over_its_size():
    assert {name: n for name, n in sqldb_lines().items() if n > SQLDB_MODULE_LINES} == {}


def test_sqldb_is_no_larger_than_its_count():
    total = sum(sqldb_lines().values())
    assert total <= SQLDB_LINES, (
        f"src/repro/sqldb is {total} lines, over its {SQLDB_LINES}: delete "
        f"what the change duplicates, or raise SQLDB_LINES as a declared change"
    )
