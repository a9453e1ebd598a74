"""``tools/check_determinism.py`` on snippets: one rule it must enforce,
one placement it must accept."""

import importlib.util
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "check_determinism.py"


@pytest.fixture(scope="module")
def lint():
    spec = importlib.util.spec_from_file_location("check_determinism", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SNIPPET = 'code = compile("x + 1", "<expr>", "eval")\nexec(code)\n'


def violations(lint, tmp_path, rel):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(SNIPPET, encoding="utf-8")
    return list(lint.check_module(path, f"src/repro/{rel}"))


def test_exec_and_compile_outside_the_expression_compiler_are_rejected(lint, tmp_path):
    found = violations(lint, tmp_path, "sqldb/planner.py")
    assert [(line, message.split("(")[0]) for __, line, message in found] == [
        (1, "compile"),
        (2, "exec"),
    ]
    assert all("sqldb/expressions.py" in message for __, __, message in found)


def test_the_expression_compiler_may_generate_code(lint, tmp_path):
    assert violations(lint, tmp_path, "sqldb/expressions.py") == []


def test_the_tree_is_clean(lint):
    assert lint.main(["check_determinism.py", str(TOOL.parent.parent / "src" / "repro")]) == 0
